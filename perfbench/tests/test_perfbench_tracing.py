"""Self time on synthetic span trees, the per-layer metrics, and a real
traced child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH = Path(__file__).resolve().parents[1]


def span(sid, parent, name, start, end, note=True):
    return (sid, parent, name, start, end, note)


def test_self_time_subtracts_nested_children():
    spans = [
        span(2, 1, "g", 15, 25),
        span(1, 0, "a", 10, 40),
        span(3, 0, "b", 50, 60),
        span(0, -1, "root", 0, 100),
    ]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        span(1, 0, "a", 10, 30),
        span(2, 0, "b", 20, 40),   # overlaps a by 10
        span(3, 0, "c", 90, 120),  # runs past the parent's end
        span(0, -1, "root", 0, 100),
    ]
    assert tracing.self_times(spans)[0] == 100 - 30 - 10


def test_layer_metrics_counts_ratios_and_units():
    run = [
        span(1, 0, "cones.implies", 0, 1_000_000_000, True),
        span(2, 0, "cones.implies", 0, 0, False),
        span(3, 0, "binomials.classify", 0, 0),
        span(4, 0, "binomials.classify", 0, 0),
        span(5, 0, "binomials.enumerate_patterns", 0, 0, 1),
        span(6, 0, "family.differential_rank", 0, 0, "modular+exact-confirmed"),
        span(7, 0, "family.differential_rank", 0, 0, "exact"),
        span(0, -1, "theorem.strata_survey", 0, 3_000_000_000, 4),
    ]
    m = tracing.layer_metrics([run, run])
    assert m["cones.implies.calls"] == 4
    assert m["cones.implies.true_ratio"] == 0.5
    assert m["cones.implies.per_stratum"] == 4 / 8
    assert m["theorem.strata_survey.checked"] == 8
    assert m["theorem.strata_survey.self_s"] == pytest.approx(4.0)
    assert m["binomials.prime_ratio"] == 0.5
    assert m["family.modular_confirmed_ratio"] == 0.5
    assert m["family.accept_ratio"] == 0.0
    assert set(m) == set(tracing.METRICS)


def test_traced_child_sees_calls_through_copied_names(tmp_path):
    trace = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace-out", str(trace),
         "--run-id", "t", "cli", "verify-lemma", "--n", "2", "--d", "4",
         "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["codim"] == 1
    data = json.loads(trace.read_text())
    assert data["run_id"] == "t"
    spans = data["spans"]
    by_id = {s[0]: s for s in spans}
    names = [s[2] for s in spans]
    # family binds rank_sparse_mod_p by `from .linalg import ...`.
    assert names.count("linalg.rank_sparse_mod_p") == 3  # one per sample
    assert names.count("cli.main") == 1
    # _sparse_rows is lazy, so the generators are built inside the
    # elimination's span.
    gens = next(s for s in spans if s[2] == "family.differential_generators")
    assert by_id[gens[1]][2] == "linalg.rank_sparse_mod_p"
    own = tracing.self_times(spans)
    assert all(v >= 0 for v in own.values())
    top = next(s for s in spans if s[1] == -1)
    assert sum(own.values()) == top[4] - top[3]
