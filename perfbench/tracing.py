"""Spans around toricdegen's public functions, recorded from outside.

`install` replaces each traced function in every toricdegen module namespace
that binds it: `from .linalg import rank_sparse_mod_p` copies the name, so
patching only the defining module would miss calls made through the copy.
Spans stay in memory and are written out once, when the traced process
ends.  A span's self time is its duration minus the part of it that its
child spans cover; without the subtraction, work that a lazy generator
does inside its consumer's span (family._sparse_rows runs
differential_generators inside rank_sparse_mod_p) is charged twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("poly", "linalg", "binomials", "cones", "family", "theorem", "cli")

# Only main is traced in cli, so its self time covers argument parsing and
# the JSON output written by the cmd_* handlers.
_CLI_FUNCTIONS = ("main",)

# Span notes: what a call returned, for the outcome ratios.
_NOTES = {
    "binomials.enumerate_patterns": len,
    "cones.implies": bool,
    "family.differential_rank": lambda report: report.method,
    "theorem.strata_survey": lambda survey: survey.checked,
}

_CERTIFICATES = ("theorem.dominance_certificate", "theorem.existence_witness",
                 "theorem.nonexistence_certificate")

# Per-layer metrics reported by the traced run, with their units.
METRICS = {
    "poly.multiply.calls": "count",
    "poly.multiply.self_s": "s",
    "poly.partial_derivative.calls": "count",
    "poly.partial_derivative.self_s": "s",
    "poly.initial_form.self_s": "s",
    "poly.format_poly.self_s": "s",
    "linalg.basis.self_s": "s",
    "linalg.rank_sparse_mod_p.calls": "count",
    "linalg.rank_sparse_mod_p.self_s": "s",
    "linalg.rank_sparse_exact.calls": "count",
    "linalg.rank_sparse_exact.self_s": "s",
    "linalg.random_prime.calls": "count",
    "linalg.rank.self_s": "s",
    "binomials.enumerate_patterns.self_s": "s",
    "binomials.classify.calls": "count",
    "binomials.prime_ratio": "ratio",
    "cones.solve.calls": "count",
    "cones.solve.self_s": "s",
    "cones.implies.calls": "count",
    "cones.implies.true_ratio": "ratio",
    "cones.implies.per_stratum": "ratio",
    "family.sample_family.calls": "count",
    "family.differential_generators.self_s": "s",
    "family.differential_rank.calls": "count",
    "family.differential_rank.self_s": "s",
    "family.redundancy_check.self_s": "s",
    "family.modular_confirmed_ratio": "ratio",
    "family.accept_ratio": "ratio",
    "theorem.threshold_sweep.self_s": "s",
    "theorem.dominance_certificate.calls": "count",
    "theorem.existence_witness.self_s": "s",
    "theorem.nonexistence_certificate.self_s": "s",
    "theorem.strata_survey.self_s": "s",
    "theorem.strata_survey.checked": "count",
    "cli.main.self_s": "s",
}


class Recorder:
    """In-memory spans of one traced process.

    A span is (id, parent, name, start_ns, end_ns, note): parent is -1 at
    the top, and note is None when the call raised.  Spans are appended as
    they close, so children come before their parents.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        append, stack, ids = self.spans.append, self._stack, self._ids
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                append((sid, parent, name, start, perf_counter_ns(), None))
                stack.pop()
                raise
            append((sid, parent, name, start, perf_counter_ns(),
                    note(result) if note else True))
            stack.pop()
            return result

        return traced

    def dump(self, path: str) -> None:
        # json.dumps takes the C encoder; json.dump would not.
        text = json.dumps({"run_id": self.run_id, "spans": self.spans})
        with open(path, "w") as fh:
            fh.write(text)


def traced_functions(module) -> list[str]:
    """Public functions defined in a toricdegen module (not generators)."""
    layer = module.__name__.rsplit(".", 1)[-1]
    if layer == "cli":
        return list(_CLI_FUNCTIONS)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(obj)):
            continue
        names.append(name)
    return names


def install(recorder: Recorder) -> None:
    """Wrap every traced function in every loaded toricdegen namespace that
    binds it."""
    namespaces = [m for name, m in sys.modules.items()
                  if name == "toricdegen" or name.startswith("toricdegen.")]
    for layer in LAYERS:
        module = sys.modules[f"toricdegen.{layer}"]
        for fname in traced_functions(module):
            original = getattr(module, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its direct children's
    intervals, clipped to the span (in the spans' time unit)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _name, start, end, _note in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _note in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(runs) -> dict[str, float]:
    """Per-layer metrics over the span lists of one pass (one per process)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    notes: dict[str, list] = {}
    for spans in runs:
        own = self_times(spans)
        for sid, _parent, name, _start, _end, note in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[sid] / 1e9
            notes.setdefault(name, []).append(note)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    checked = sum(n for n in notes.get("theorem.strata_survey", ()) if n)
    derived = {
        "binomials.prime_ratio": ratio(
            sum(n for n in notes.get("binomials.enumerate_patterns", ()) if n),
            calls.get("binomials.classify", 0)),
        "cones.implies.true_ratio": ratio(
            notes.get("cones.implies", []).count(True),
            calls.get("cones.implies", 0)),
        "cones.implies.per_stratum": ratio(calls.get("cones.implies", 0),
                                           checked),
        "family.modular_confirmed_ratio": ratio(
            notes.get("family.differential_rank", []).count(
                "modular+exact-confirmed"),
            calls.get("family.differential_rank", 0)),
        "family.accept_ratio": ratio(
            sum(notes.get(name, []).count(True) for name in _CERTIFICATES),
            calls.get("family.sample_family", 0)),
        "theorem.strata_survey.checked": checked,
    }
    out = {}
    for metric in METRICS:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, kind = metric.rsplit(".", 1)
        out[metric] = calls.get(name, 0) if kind == "calls" \
            else self_s.get(name, 0.0)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(p[m] for p in passes) for m in METRICS}
