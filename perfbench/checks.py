"""Expected verdicts derived without toricdegen, and the output checks.

Every expected value here comes from a closed-form law of the threshold
theorem or from brute force over exponent tuples; nothing imports the
program under test.  Each check returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, factorial, gcd


def degenerable(n: int, d: int) -> bool:
    return d <= 2 * n - 1


def ambient(n: int, d: int) -> int:
    return comb(n + d, d)


def codim(n: int, d: int) -> int:
    return max(0, d - 2 * n + 1)


def key_matrix_rank(n: int, d: int) -> int:
    return min(d - 1, 2 * n - 2)


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d exponent tuples in n+1 variables, by stars and bars."""
    out = []
    for bars in combinations(range(d + n), n):
        edges = (-1, *bars, d + n)
        out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


def prime_pairs(n: int, d: int) -> set[frozenset]:
    """Unordered pairs of exponents with disjoint supports whose entries are
    jointly coprime: the supports of the prime binomials."""
    out = set()
    for u, v in combinations(exponents(n, d), 2):
        if any(a and b for a, b in zip(u, v)):
            continue
        if reduce(gcd, u + v) == 1:
            out.add(frozenset((u, v)))
    return out


def strata_count(n: int, d: int, patterns: int) -> int:
    """Strata a full survey checks: every pattern under every ordering."""
    return patterns * factorial(n + 1)


def _mismatch(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def check_sweep(out: dict, n_max: int, d_max: int, seed: int) -> list[str]:
    problems: list[str] = []
    _mismatch(problems, "seed", out.get("seed"), seed)
    _mismatch(problems, "all_match", out.get("all_match"), True)
    rows = out.get("rows", [])
    grid = [(n, d) for n in range(2, n_max + 1) for d in range(2, d_max + 1)]
    _mismatch(problems, "grid", [(r.get("n"), r.get("d")) for r in rows], grid)
    for r in rows:
        n, d = r.get("n"), r.get("d")
        if (n, d) not in grid:
            continue
        at = f"({n},{d})"
        _mismatch(problems, f"{at} degenerable", r.get("degenerable"),
                  degenerable(n, d))
        _mismatch(problems, f"{at} expected", r.get("expected"),
                  degenerable(n, d))
        _mismatch(problems, f"{at} ambient", r.get("ambient"), ambient(n, d))
        _mismatch(problems, f"{at} codim", r.get("codim"), codim(n, d))
        _mismatch(problems, f"{at} generic_rank", r.get("generic_rank"),
                  ambient(n, d) - codim(n, d))
    return problems


def check_nonexist(out: dict, n: int, d: int, seed: int,
                   patterns: int) -> list[str]:
    problems: list[str] = []
    _mismatch(problems, "seed", out.get("seed"), seed)
    _mismatch(problems, "codim_bound", out.get("codim_bound"), codim(n, d))
    _mismatch(problems, "sampled_codims", out.get("sampled_codims"),
              [codim(n, d)] * 3)
    _mismatch(problems, "redundancy_ok", out.get("redundancy_ok"), True)
    _mismatch(problems, "strata_checked", out.get("strata_checked"),
              strata_count(n, d, patterns))
    _mismatch(problems, "strata_full", out.get("strata_full"), True)
    _mismatch(problems, "strata_reduced", out.get("strata_reduced"), True)
    return problems


def check_enumerate(out: dict, n: int, d: int,
                    pairs: set[frozenset]) -> list[str]:
    problems: list[str] = []
    listed = out.get("patterns", [])
    _mismatch(problems, "count", out.get("count"), len(pairs))
    _mismatch(problems, "listed", len(listed), len(pairs))
    got = {frozenset((tuple(p["u"]), tuple(p["v"]))) for p in listed}
    if got != pairs:
        problems.append(f"pattern set: {len(got - pairs)} unexpected, "
                        f"{len(pairs - got)} missing")
    return problems


def check_strata_survey(out: dict, n: int, d: int, patterns: int) -> list[str]:
    problems: list[str] = []
    _mismatch(problems, "checked", out.get("checked"),
              strata_count(n, d, patterns))
    _mismatch(problems, "full", out.get("full"), True)
    _mismatch(problems, "passed", out.get("passed"), True)
    _mismatch(problems, "failures", out.get("failures"), 0)
    return problems


def check_verify_lemma(out: dict, n: int, d: int, seed: int) -> list[str]:
    problems: list[str] = []
    _mismatch(problems, "seed", out.get("seed"), seed)
    _mismatch(problems, "key_matrix_rank", out.get("key_matrix_rank"),
              key_matrix_rank(n, d))
    _mismatch(problems, "expected_min", out.get("expected_min"),
              key_matrix_rank(n, d))
    _mismatch(problems, "ambient", out.get("ambient"), ambient(n, d))
    _mismatch(problems, "codim", out.get("codim"), codim(n, d))
    _mismatch(problems, "expected_codim", out.get("expected_codim"),
              codim(n, d))
    _mismatch(problems, "differential_rank", out.get("differential_rank"),
              ambient(n, d) - codim(n, d))
    _mismatch(problems, "surjective", out.get("surjective"),
              degenerable(n, d))
    return problems


def check_witness(out: dict, n: int, d: int, seed: int) -> list[str]:
    problems: list[str] = []
    _mismatch(problems, "seed", out.get("seed"), seed)
    x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
    lead = tuple(d - 1 if i == 0 else int(i == 2) for i in range(n + 1))
    support = {tuple(u) for u in out.get("initial_support", [])}
    _mismatch(problems, "initial_support", support, {x1d, lead})
    _mismatch(problems, "verdict", out.get("verdict"),
              {"tag": "Prime", "power": None})
    w = [Fraction(x) for x in out.get("omega", [])]
    if len(w) != n + 1 or any(a <= b for a, b in zip(w, w[1:])) \
            or (d - 1) * w[0] + w[2] != d * w[1]:
        problems.append(f"omega {out.get('omega')!r} is not a strictly "
                        "decreasing weight with (d-1)*w0 + w2 = d*w1")
    dom = out.get("dominance", {})
    _mismatch(problems, "dominance.ambient", dom.get("ambient"), ambient(n, d))
    _mismatch(problems, "dominance.codim", dom.get("codim"), codim(n, d))
    _mismatch(problems, "dominance.rank", dom.get("rank"),
              ambient(n, d) - codim(n, d))
    _mismatch(problems, "dominance.surjective", dom.get("surjective"),
              degenerable(n, d))
    return problems


class Expected:
    """Expected answers for one seed; brute-force pattern sets are built
    once per (n, d) and shared by every check that needs them."""

    def __init__(self, seed: int):
        self.seed = seed
        self._pairs: dict[tuple[int, int], set[frozenset]] = {}

    def pairs(self, n: int, d: int) -> set[frozenset]:
        if (n, d) not in self._pairs:
            self._pairs[n, d] = prime_pairs(n, d)
        return self._pairs[n, d]

    def check(self, command: str, n: int, d: int, returncode: int,
              stdout: str) -> list[str]:
        """Problems with one invocation's exit code and standard output.

        For `sweep`, n and d are --n-max and --d-max.
        """
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if not isinstance(out, dict):
            return ["stdout is not a JSON object"]
        problems: list[str] = []
        if command != "sweep":
            _mismatch(problems, "n", out.get("n"), n)
            _mismatch(problems, "d", out.get("d"), d)
        if command == "sweep":
            problems += check_sweep(out, n, d, self.seed)
        elif command == "nonexist":
            problems += check_nonexist(out, n, d, self.seed,
                                       len(self.pairs(n, d)))
        elif command == "enumerate-binomials":
            problems += check_enumerate(out, n, d, self.pairs(n, d))
        elif command == "strata-survey":
            problems += check_strata_survey(out, n, d, len(self.pairs(n, d)))
        elif command == "verify-lemma":
            problems += check_verify_lemma(out, n, d, self.seed)
        elif command == "witness":
            problems += check_witness(out, n, d, self.seed)
        else:
            raise ValueError(f"no check for command {command!r}")
        return problems
