import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import toricdegen.cli as cli
import toricdegen.errors
from toricdegen import (CertificateError, FamilyPoint, UsageError,
                        differential_rank, dominance_point, enumerate_patterns,
                        format_poly, key_matrix, parse_poly, pattern_from_poly,
                        rank, sample_family, solve, strata_survey,
                        structural_rank_bound, stratum_system, threshold_sweep)
from toricdegen.cli import build_parser, main
from toricdegen.family import key_rank
from helpers import (forbid_pattern_generation, listing_payload,
                     listing_table, patched_support, spikeless_sampler,
                     stuck_sampler)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_closed(unbuffered, *argv):
    """Exit code and stderr of the CLI run with stdout's read end closed
    before the command writes anything, with PYTHONUNBUFFERED unset or 1:
    buffered, a write to the closed stdout fails only at main's flush;
    unbuffered, it fails inside the handler."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, toricdegen.cli; sys.exit(toricdegen.cli.main())",
         *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    return proc.wait(timeout=60), err


def _forbid_enumeration_and_sampling(monkeypatch):
    import toricdegen.binomials
    import toricdegen.family
    # None makes any call fail the test; cli and theorem read sample_family
    # from family
    monkeypatch.setattr(toricdegen.binomials, "iter_exponents", None)
    monkeypatch.setattr(toricdegen.family, "sample_family", None)


class TestVerifyLemma:
    def test_boundary_case(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "--n", "3", "--d", "5",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["key_matrix_rank"] == 4
        assert payload["expected_min"] == 4
        assert payload["surjective"] is True

    def test_codim_one(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "--n", "2", "--d", "4",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["codim"] == 1
        assert payload["surjective"] is False

    def test_usage_error_low_n(self, capsys):
        code, _out, err = run(capsys, "verify-lemma", "--n", "1", "--d", "3",
                              "--seed", "1")
        assert code == 64
        assert "error" in err

    def test_zero_samples_usage(self, capsys):
        code, _out, err = run(capsys, "verify-lemma", "--n", "2", "--d", "3",
                              "--samples", "0")
        assert code == 64
        assert "samples" in err

    def test_oversized_rejected_before_basis(self, capsys, monkeypatch):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, _out, err = run(capsys, "verify-lemma", "--n", "40", "--d", "40")
        assert code == 64
        assert "ambient dimension" in err

    def test_best_ranks_over_samples(self, capsys):
        # the maxima over every sampled point, drawn as the command draws
        # them; with --bound 2 the last of these six points ranks lower
        rng = Random(16)
        points = [sample_family(3, 5, rng, 2) for _ in range(6)]
        assert rank(key_matrix(points[-1])) == 3
        code, out, _ = run(capsys, "verify-lemma", "--n", "3", "--d", "5",
                           "--seed", "16", "--samples", "6", "--bound", "2")
        payload = json.loads(out)
        assert code == 0
        assert (payload["key_matrix_rank"], payload["differential_rank"]) \
            == (4, 56)
        assert payload["key_matrix_rank"] == max(rank(key_matrix(p))
                                                 for p in points)
        assert payload["differential_rank"] == max(differential_rank(p).rank
                                                   for p in points)

    # one sample at bound 2 whose key rank falls short of the law at the
    # boundary d = 2n - 1
    SHORTFALL = ("verify-lemma", "--n", "3", "--d", "5", "--samples", "1",
                 "--bound", "2", "--seed", "13")

    def test_sampled_shortfall_is_genericity_failure(self, capsys):
        code, out, err = run(capsys, *self.SHORTFALL)
        payload = json.loads(out)
        assert code == 2
        assert (payload["key_matrix_rank"], payload["surjective"]) == (2, False)
        assert err.startswith("genericity failure")
        assert "n=3, d=5" in err and err.endswith("(seed 13)\n")

    def test_shortfall_with_closed_stdout_exits_74(self):
        for unbuffered in (False, True):
            code, err = run_closed(unbuffered, *self.SHORTFALL)
            assert code == 74, (unbuffered, err)
            assert "Traceback" not in err

    def test_one_block_per_sample(self, capsys, monkeypatch):
        # the block ranks 1 + its key matrix, so key_matrix builds the one
        # block of each sample, and key_rank ranks nothing else
        import toricdegen.family
        build = toricdegen.family.excluded_block
        rank_of = toricdegen.family.rank
        built, ranked = [], []
        monkeypatch.setattr(toricdegen.family, "excluded_block",
                            lambda point: built.append(point) or build(point))
        monkeypatch.setattr(toricdegen.family, "rank",
                            lambda rows: ranked.append(rows) or rank_of(rows))
        code, _out, _err = run(capsys, "verify-lemma", "--n", "3", "--d", "6",
                               "--seed", "5", "--samples", "3")
        assert code == 0
        assert len(built) == len(set(built)) == len(ranked) == 3

    def test_zero_spike_is_certificate_failure(self, capsys, monkeypatch):
        # a point with c[x1^d] = 0 breaks the identity the command ranks by;
        # sampling never draws one, so only a wrong sampler gets there
        spikeless_sampler(monkeypatch)
        code, out, err = run(capsys, "verify-lemma", "--n", "3", "--d", "5",
                             "--seed", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("certificate failure: c[x1^5] = 0")
        assert "n=3, d=5" in err and err.endswith("(seed 4)\n")


class TestRankRoute:
    # the benchmark's command invocations (perfbench/run.py, WORKLOADS)
    BENCHMARK = [("sweep", "--n-max", "4", "--d-max", "10"),
                 ("nonexist", "--n", "3", "--d", "6"),
                 ("enumerate-binomials", "--n", "4", "--d", "8"),
                 ("verify-lemma", "--n", "5", "--d", "12"),
                 ("witness", "--n", "5", "--d", "9")]

    def test_no_command_ranks_a_whole_block(self, capsys, monkeypatch):
        # every certificate ranks a point through family.key_rank;
        # differential_rank, the general definition, is left to the tests
        import toricdegen.family

        def refuse(*args, **kwargs):
            raise AssertionError("a certificate ranked a whole block")

        monkeypatch.setattr(toricdegen.family, "differential_rank", refuse)
        assert len(threshold_sweep(4, 10)) == 27
        assert strata_survey(3, 7).passed and strata_survey(3, 8).passed
        for argv in self.BENCHMARK:
            code, _out, _err = run(capsys, *argv)
            assert code == 0, argv


class TestWitness:
    def test_seeded_bundle(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--d", "3",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert sorted(payload["initial_support"]) == [[0, 3, 0], [2, 0, 1]]
        assert payload["verdict"]["tag"] == "Prime"
        assert payload["omega"] == ["3", "2", "0"]
        assert payload["dominance"]["surjective"] is True

    def test_boundary_5_9(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "5", "--d", "9",
                           "--seed", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["dominance"]["surjective"] is True

    def test_builds_the_polynomial_once(self, capsys, monkeypatch):
        # the bundle keeps the polynomial its initial form was taken from,
        # and the command prints that one
        built = []
        to_poly = FamilyPoint.to_poly
        monkeypatch.setattr(FamilyPoint, "to_poly",
                            lambda point: built.append(to_poly(point))
                            or built[-1])
        code, out, _ = run(capsys, "witness", "--n", "3", "--d", "5",
                           "--seed", "4")
        assert code == 0
        assert len(built) == 1
        assert json.loads(out)["poly"] == format_poly(built[0])

    def test_past_threshold_witness_still_exists(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--d", "12",
                           "--seed", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"]["tag"] == "Prime"
        assert payload["dominance"]["surjective"] is False


class TestSweep:
    def test_tiny_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-max", "2", "--d-max", "3",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["all_match"] is True
        assert [r["degenerable"] for r in payload["rows"]] == [True, True]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-max", "2", "--d-max", "3",
                           "--seed", "1", "--format", "table")
        assert code == 0
        assert "all_match = True" in out

    def test_oversized_rejected_before_basis(self, capsys, monkeypatch):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, out, err = run(capsys, "sweep", "--n-max", "40", "--d-max", "40")
        assert code == 64
        assert out == ""
        assert "ambient dimension" in err

    @pytest.mark.parametrize("n_max,d_max", [("999", "2"), ("2", "999")])
    def test_grid_over_budget_rejected_before_any_row(self, capsys,
                                                      monkeypatch, n_max,
                                                      d_max):
        # the ambient limit is the grid's one budget: C(1001, 2) = 500,500
        import toricdegen.theorem
        # None makes any call fail the test
        monkeypatch.setattr(toricdegen.theorem, "dominance_certificate", None)
        code, out, err = run(capsys, "sweep", "--n-max", n_max,
                             "--d-max", d_max)
        assert code == 64
        assert out == ""
        assert "ambient dimension" in err

    def test_grid_below_two_is_usage(self, capsys):
        code, out, err = run(capsys, "sweep", "--n-max", "1", "--d-max", "3")
        assert code == 64
        assert out == ""
        assert "need n >= 2 and d >= 2, got n=1, d=3" in err


class TestClassify:
    def test_prime(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "x1^3 + x0^2*x2",
                           "--n", "2", "--d", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == {"tag": "Prime", "power": None}

    def test_proper_power(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "x0^2 - x1^2",
                           "--n", "1", "--d", "2")
        payload = json.loads(out)
        assert payload["verdict"] == {"tag": "ProperPower", "power": 2}

    def test_three_terms(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly",
                           "x0^2 + x1^2 + x2^2", "--n", "2", "--d", "2")
        assert json.loads(out)["verdict"]["tag"] == "NotTwoTerms"

    def test_parse_error_is_usage(self, capsys):
        code, _out, err = run(capsys, "classify", "--poly", "x0 +* x1",
                              "--n", "1", "--d", "1")
        assert code == 64

    @pytest.mark.parametrize("command", [
        ("classify", "--poly", "x0 + x1"),
        ("stratum", "--f", "x0 + x1", "--g", "x0 - x1"),
        ("enumerate-binomials",),
    ])
    @pytest.mark.parametrize("nd", [("1", "-1"), ("-1", "1")])
    def test_negative_n_or_d_is_usage(self, capsys, command, nd):
        code, out, err = run(capsys, *command, "--n", nd[0], "--d", nd[1])
        assert code == 64
        assert out == ""
        assert f"need n >= 0 and d >= 0, got n={nd[0]}, d={nd[1]}" in err

    def test_binomial_admitted_at_term_bound(self, capsys):
        # 2 terms * 250,000 variables is exactly MAX_AMBIENT exponent entries
        code, out, _ = run(capsys, "classify", "--poly", "x0 + x1",
                           "--n", "249999", "--d", "1")
        assert code == 0
        assert json.loads(out)["verdict"]["tag"] == "Prime"


class TestStratum:
    def test_feasible_with_deterministic_witness(self, capsys):
        code, out, _ = run(capsys, "stratum",
                           "--f", "x1^3+x0^2*x2+x2^3",
                           "--g", "x1^3 + x0^2*x2",
                           "--n", "2", "--d", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["feasible"] is True
        assert payload["witness"] == ["3", "2", "0"]

    def test_wide_sparse_output_pinned(self, capsys):
        # three terms over 5,001 variables: every functional is mostly zeros
        n = 5000
        code, out, _ = run(capsys, "stratum", "--f", "x0 + x1 + x2",
                           "--g", "x0 + x1", "--n", str(n), "--d", "1")
        zeros = ["0"] * (n - 2)
        expected = {
            "n": n, "d": 1, "f": "x0 + x1 + x2", "g": "x0 + x1",
            "equalities": [["1", "-1", "0"] + zeros],
            "strict_ineqs": [["1", "0", "-1"] + zeros],
            "feasible": True,
            "witness": ["1", "1", "0"] + zeros,
            "certificate": None,
        }
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_support_mismatch_usage(self, capsys):
        code, _out, _err = run(capsys, "stratum",
                               "--f", "x1^3 + x2^3",
                               "--g", "x1^3 + x0^2*x2",
                               "--n", "2", "--d", "3")
        assert code == 64

    def test_fourier_motzkin_budget(self, capsys):
        # g = x0*x1^(d-1) + x2^d eliminates w0 = d*w2 - (d-1)*w1; then the
        # term x0^a*x1^b*x2^c carries (d-1)*a - b on w1: the d-1 terms with
        # a = 1 bound w1 from below and the d terms with a = 0 from above
        from toricdegen.cones import MAX_FM_CONSTRAINTS
        d = math.isqrt(MAX_FM_CONSTRAINTS) + 2
        terms = [f"x0*x1^{b}*x2^{d - 1 - b}" for b in range(d - 1)]
        terms += [f"x1^{b}*x2^{d - b}" for b in range(1, d + 1)]
        g = f"x0*x1^{d - 1} + x2^{d}"
        start = time.perf_counter()
        code, out, err = run(capsys, "stratum", "--f", " + ".join([g] + terms),
                             "--g", g, "--n", "2", "--d", str(d))
        assert time.perf_counter() - start < 1
        assert code == 64
        assert out == ""
        assert f"over the limit of {MAX_FM_CONSTRAINTS}" in err

    def test_infeasibility_certificate_is_rechecked(self, capsys, monkeypatch):
        import toricdegen.cones
        # the infeasible input of test_schemas; a rejecting check must stop it
        f, g = "x1^3 + x0^2*x2 + x0*x1*x2 + x0*x1^2", "x1^3 + x0^2*x2"
        monkeypatch.setattr(toricdegen.cones, "verify_certificate",
                            lambda system, cert: False)
        system = stratum_system(parse_poly(f, 2, 3),
                                pattern_from_poly(parse_poly(g, 2, 3)))
        with pytest.raises(CertificateError):
            solve(system)
        code, out, err = run(capsys, "stratum", "--f", f, "--g", g,
                             "--n", "2", "--d", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("certificate failure")


class TestEnumerate:
    def test_three_patterns(self, capsys):
        code, out, _ = run(capsys, "enumerate-binomials", "--n", "2",
                           "--d", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 3
        pairs = {frozenset((tuple(p["u"]), tuple(p["v"])))
                 for p in payload["patterns"]}
        assert pairs == {
            frozenset(((2, 0, 0), (0, 1, 1))),
            frozenset(((0, 2, 0), (1, 0, 1))),
            frozenset(((0, 0, 2), (1, 1, 0)))}

    @pytest.mark.parametrize("n,d", [(0, 3), (2, 0), (998, 0), (499999, 0)])
    def test_zero_n_or_d_lists_nothing(self, capsys, n, d):
        # check_ambient admits n, d >= 0, as for enumerate_patterns, and
        # up to MAX_AMBIENT variables at d = 0
        code, out, _ = run(capsys, "enumerate-binomials", "--n", str(n),
                           "--d", str(d))
        assert code == 0
        assert json.loads(out) == {"n": n, "d": d, "count": 0,
                                   "patterns": enumerate_patterns(n, d)}
        assert enumerate_patterns(n, d) == []
        code, out, _ = run(capsys, "enumerate-binomials", "--n", str(n),
                           "--d", str(d), "--format", "table")
        assert code == 0
        assert out == f"n = {n}\nd = {d}\ncount = 0\n"

    def test_builds_no_pattern_objects(self, capsys, monkeypatch):
        # monomials are formatted from exponent tuples; None makes any
        # BinomialPattern or HomogPoly construction fail
        import toricdegen
        for name in ("BinomialPattern", "HomogPoly"):
            for module in vars(toricdegen).values():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, None)
        code, out, _ = run(capsys, "enumerate-binomials", "--n", "3",
                           "--d", "7")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == len(payload["patterns"]) == 240
        assert payload["patterns"][0]["lhs"] == "x0^7"


class TestEnumerateStreaming:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_short_listing_is_certificate_failure(self, capsys, monkeypatch,
                                                  fmt):
        import toricdegen.binomials
        pairs = toricdegen.binomials.prime_pairs
        monkeypatch.setattr(toricdegen.binomials, "prime_pairs",
                            lambda n, d: list(pairs(n, d))[:-1])
        code, _out, err = run(capsys, "enumerate-binomials", "--n", "2",
                              "--d", "3", "--format", fmt)
        assert code == 2
        assert "certificate failure" in err
        assert ("5 prime patterns listed at n=2, d=3, but the closed form "
                "counts 6") in err

    @pytest.mark.parametrize("nd, expected", [
        (("1", "2"), "n = 1\nd = 2\ncount = 0\n"),
        (("2", "2"), "n = 2\nd = 2\ncount = 3\nx0^2  |  x1*x2\n"
                     "x0*x1  |  x2^2\nx0*x2  |  x1^2\n"),
    ])
    def test_table_text(self, capsys, nd, expected):
        code, out, _ = run(capsys, "enumerate-binomials", "--n", nd[0],
                           "--d", nd[1], "--format", "table")
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_74(self, unbuffered):
        # a reader that stops early, like `| head -c 64`: no traceback, and
        # EX_IOERR rather than 1, the claim-mismatch code
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, toricdegen.cli; sys.exit(toricdegen.cli.main())",
             "enumerate-binomials", "--n", "4", "--d", "8"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 74, err
        assert "Traceback" not in err

    def test_listing_memory_is_constant(self, monkeypatch):
        # building the whole payload and its text first peaks at about 6 MB
        # here; streamed, the peak does not grow with the listing
        main(["enumerate-binomials", "--n", "2", "--d", "2",
              "--format", "table"])  # first-call caches outside the peak
        with open(os.devnull, "w") as null:
            monkeypatch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                code = main(["enumerate-binomials", "--n", "4", "--d", "8"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000


class TestOutputText:
    # stdout is exactly json.dumps(payload, indent=2) plus a newline
    @pytest.mark.parametrize("argv", [
        ("witness", "--n", "2", "--d", "3", "--seed", "1"),
        ("sweep", "--n-max", "2", "--d-max", "4", "--seed", "9"),
        ("verify-lemma", "--n", "3", "--d", "6", "--seed", "5"),
        ("nonexist", "--n", "2", "--d", "4", "--seed", "2"),
        ("enumerate-binomials", "--n", "2", "--d", "3"),
        ("stratum", "--f", "x1^3+x0^2*x2+x2^3", "--g", "x1^3 + x0^2*x2",
         "--n", "2", "--d", "3"),
        ("classify", "--poly", "x1^3 + x0^2*x2", "--n", "2", "--d", "3"),
        # infeasible: a null witness and a list of certificate dicts
        ("stratum", "--f", "x1^3 + x0^2*x2 + x0*x1*x2 + x0*x1^2",
         "--g", "x1^3 + x0^2*x2", "--n", "2", "--d", "3"),
        ("enumerate-binomials", "--n", "1", "--d", "2"),
        ("enumerate-binomials", "--n", "4", "--d", "8"),
        ("enumerate-binomials", "--n", "3", "--d", "7"),
    ])
    def test_json_is_indent_2(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @staticmethod
    def _listing_matches_oracle(capsys, n, d):
        expected = listing_payload(n, d)
        texts = {"json": json.dumps(expected, indent=2) + "\n",
                 "table": listing_table(expected)}
        for fmt, text in texts.items():
            code, out, _ = run(capsys, "enumerate-binomials", "--n", str(n),
                               "--d", str(d), "--format", fmt)
            assert code == 0
            if out != text:
                # a plain == would have pytest diff megabytes of text
                lines = enumerate(zip(out.splitlines(), text.splitlines()))
                k = next((k for k, (a, b) in lines if a != b), "the end")
                pytest.fail(f"({n}, {d}) {fmt} differs at line {k}")

    def test_listing_matches_dict_per_row_oracle(self, capsys):
        # rows are rendered from each exponent pair; the oracle builds a
        # dict per pattern and prints it with json.dumps, at every point
        # from (1, 1) to (4, 8), the table at (4, 8) included
        for n in range(1, 5):
            for d in range(1, 9):
                self._listing_matches_oracle(capsys, n, d)

    def test_listing_matches_oracle_at_5_10(self, capsys):
        self._listing_matches_oracle(capsys, 5, 10)


class TestPatternBudget:
    # enumerate-binomials lists at most 1,000,000 exponent entries, 2*(n+1)
    # per pattern.  nonexist certifies at most 2,000,000 support shapes, but
    # inside the ambient limit it reaches only n <= 7, with 2,997 shapes
    @pytest.mark.parametrize("argv", [
        ("enumerate-binomials", "--n", "6", "--d", "12"),
    ])
    def test_oversized_rejected_before_work(self, capsys, monkeypatch, argv):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "prime patterns at n=" in err


class TestSamplesBound:
    @pytest.mark.parametrize("argv", [
        ("verify-lemma", "--n", "2", "--d", "3"),
        ("nonexist", "--n", "2", "--d", "4"),
    ])
    def test_rejected_before_sampling(self, capsys, monkeypatch, argv):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, out, err = run(capsys, *argv, "--samples", "1001")
        assert code == 64
        assert out == ""
        assert "samples exceed the limit of 1000" in err


class TestHugeInputs:
    # C(n+d, d) has thousands of digits here; the limits are decided from a
    # count capped just past them, so nothing huge is computed or printed
    @pytest.mark.parametrize("argv", [
        ("verify-lemma", "--n", "7200", "--d", "7200"),
        ("sweep", "--n-max", "7200", "--d-max", "7200"),
        ("nonexist", "--n", "7200", "--d", "7200"),
        ("enumerate-binomials", "--n", "4000", "--d", "4000"),
        ("witness", "--n", "1000000", "--d", "1000000"),
        ("enumerate-binomials", "--n", "40", "--d", "2"),
    ])
    def test_rejected_as_usage(self, capsys, monkeypatch, argv):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "exceed" in err

    @pytest.mark.parametrize("argv", [
        ("classify", "--poly", "x0 + x1", "--n", "10000000", "--d", "1"),
        ("classify", "--poly", "1", "--n", "10000000", "--d", "0"),
        ("stratum", "--f", "x0 + x1", "--g", "x0 - x1",
         "--n", "10000000", "--d", "1"),
        ("classify", "--poly", "x0^20 + x1^20", "--n", "10", "--d", "20"),
        # (n + 1) * (1 + count of '+' and '-') exceeds MAX_AMBIENT entries
        ("classify", "--poly", " + ".join(f"x{i}" for i in range(80)),
         "--n", "499999", "--d", "1"),
        ("stratum", "--f", " + ".join(f"x{i}" for i in range(20)),
         "--g", "x0 - x1", "--n", "499999", "--d", "1"),
        ("classify", "--poly", "x0 + x1", "--n", "250000", "--d", "1"),
    ])
    def test_parse_commands_rejected_before_parsing(self, capsys, monkeypatch,
                                                    argv):
        import toricdegen.poly
        # parse_poly admits the text before any regex runs or any
        # polynomial is built
        monkeypatch.setattr(toricdegen.poly, "re", None)
        monkeypatch.setattr(toricdegen.poly, "HomogPoly", None)
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "exceed" in err

    # one digit past the interpreter's integer string limit, where int()
    # raises a bare ValueError
    @pytest.mark.parametrize("number", ["coefficient", "exponent"])
    @pytest.mark.parametrize("argv", [
        ("classify", "--poly", "{coefficient}*x0 + x1^{exponent}",
         "--n", "1", "--d", "1"),
        ("stratum", "--f", "{coefficient}*x1 + x0^{exponent}",
         "--g", "x0 + x1", "--n", "1", "--d", "1"),
        ("stratum", "--f", "x0 + x1", "--g",
         "{coefficient}*x0 + x1^{exponent}", "--n", "1", "--d", "1"),
    ])
    def test_overlong_number_is_usage(self, capsys, argv, number):
        limit = sys.get_int_max_str_digits()
        values = {"coefficient": "1", "exponent": "1", number: "1" * (limit + 1)}
        code, out, err = run(capsys, *(arg.format(**values) for arg in argv))
        assert code == 64
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"exceeds the limit of {limit} digits" in err


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ("classify", "--poly", "x1^3 + x0^2*x2", "--n", "2", "--d", "3"),
        ("stratum", "--f", "x1^3+x0^2*x2+x2^3", "--g", "x1^3 + x0^2*x2",
         "--n", "2", "--d", "3"),
        ("enumerate-binomials", "--n", "2", "--d", "2"),
        ("sweep", "--n-max", "2", "--d-max", "3"),
    ])
    @pytest.mark.parametrize("flag", [("--samples", "2"), ("--bound", "5")])
    def test_sampling_flags_only_where_sampling_happens(self, capsys, argv,
                                                        flag):
        code, out, _err = run(capsys, *argv, *flag)
        assert code == 64
        assert out == ""

    def test_witness_takes_no_samples(self, capsys):
        code, out, _err = run(capsys, "witness", "--n", "2", "--d", "3",
                              "--samples", "0")
        assert code == 64
        assert out == ""
        code, _out, _err = run(capsys, "witness", "--n", "2", "--d", "3",
                               "--bound", "5")
        assert code == 0


class TestGenericityFailure:
    def test_exits_2(self, capsys, monkeypatch):
        stuck_sampler(monkeypatch)
        code, out, err = run(capsys, "nonexist", "--n", "3", "--d", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("genericity failure")

    def test_witness_exits_0_after_one_draw(self, capsys, monkeypatch):
        draws = stuck_sampler(monkeypatch)
        code, out, _err = run(capsys, "witness", "--n", "3", "--d", "5")
        assert code == 0
        assert draws == [(3, 5)]
        assert json.loads(out)["dominance"]["surjective"] is True



class TestContradictedClaims:
    """A printed rank off d <= 2n - 1 can only come from a wrong certificate,
    so it exits 2 like every other certificate failure."""

    def test_sweep_row_off_the_threshold_is_certificate_failure(
            self, capsys, monkeypatch):
        import toricdegen.theorem
        monkeypatch.setattr(toricdegen.theorem, "sweep_row_matches",
                            lambda row: False)
        code, out, err = run(capsys, "sweep", "--n-max", "2", "--d-max", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(
            "certificate failure: threshold violated at n=2, d=2")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--n-max", "2", "--d-max", "2"),
        ("witness", "--n", "2", "--d", "3"),
        ("verify-lemma", "--n", "2", "--d", "4"),
        ("nonexist", "--n", "2", "--d", "4"),
    ], ids=lambda argv: argv[0])
    def test_rank_past_the_bound_is_one_certificate_failure(
            self, capsys, monkeypatch, argv):
        # every command ranks only through key_rank's call of rank on the
        # key matrix, so patching it changes the key rank alone; key_rank
        # refuses the rank with one message, before any payload, and
        # nonexist redraws no such sample
        import toricdegen.family
        sample, draws = toricdegen.family.sample_family, []
        monkeypatch.setattr(toricdegen.family, "rank", lambda rows: 10**6)
        monkeypatch.setattr(toricdegen.family, "sample_family",
                            lambda *args: draws.append(args) or sample(*args))
        n, d = int(argv[2]), int(argv[4])  # sweep fails at its first row
        with pytest.raises(CertificateError) as refused:
            key_rank(dominance_point(n, d))
        assert str(refused.value) == (
            f"rank {math.comb(n + d, d) - d + 1 + 10**6} at n={n}, d={d} "
            f"exceeds the structural bound {structural_rank_bound(n, d)}")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"certificate failure: {refused.value} (seed 1)\n"
        if argv[0] == "nonexist":
            assert len(draws) == 1


_INPUT_ERRORS = [cls for cls in vars(toricdegen.errors).values()
                 if isinstance(cls, type) and issubclass(cls, ValueError)
                 and cls is not UsageError]


class TestExitCodes:
    """The exception type alone decides the exit code."""

    @pytest.mark.parametrize("error", _INPUT_ERRORS,
                             ids=lambda cls: cls.__name__)
    def test_every_input_error_is_usage(self, capsys, monkeypatch, error):
        import toricdegen.cli

        def handler(args):
            raise error("bad input")

        assert issubclass(error, UsageError)
        monkeypatch.setattr(toricdegen.cli, "cmd_classify", handler)
        code, out, err = run(capsys, "classify", "--poly", "x0", "--n", "0",
                             "--d", "1")
        assert code == 64
        assert out == ""
        assert err == "error: bad input\n"

    # every exit-2 line names the seed, so the failure can be replayed
    def test_genericity_failure_names_the_seed(self, capsys, monkeypatch):
        stuck_sampler(monkeypatch)
        code, _out, err = run(capsys, "nonexist", "--n", "3", "--d", "6")
        assert code == 2
        assert err.endswith("(seed 1)\n")

    def test_certificate_failure_names_the_seed(self, capsys, monkeypatch):
        import toricdegen.theorem
        monkeypatch.setattr(toricdegen.theorem, "sweep_row_matches",
                            lambda row: False)
        code, _out, err = run(capsys, "sweep", "--n-max", "2", "--d-max", "2")
        assert code == 2
        assert err.endswith("(seed 1)\n")


class TestNonexist:
    def test_2_4(self, capsys):
        code, out, _ = run(capsys, "nonexist", "--n", "2", "--d", "4",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["codim_bound"] == 1
        assert payload["strata_full"] is True

    def test_stray_support_is_certificate_failure(self, capsys):
        with patched_support(lambda s: s | {(0, 0, 0)}):
            code, out, err = run(capsys, "nonexist", "--n", "2", "--d", "4",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("certificate failure")
        assert "off the last column the key rows, at [(0, 0, 0)]" in err

    def test_calls_no_redundancy_check(self, capsys, monkeypatch):
        # the support certificate covers every point, so no sample is
        # checked on its own
        calls = []
        # every namespace that binds the name; the package reads it from
        # family
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "toricdegen" and \
                    "redundancy_check" in vars(module):
                check = module.redundancy_check
                monkeypatch.setattr(module, "redundancy_check",
                                    lambda point, check=check:
                                    calls.append(point) or check(point))
        for n, d in [("2", "4"), ("3", "7")]:
            code, out, _ = run(capsys, "nonexist", "--n", n, "--d", d)
            assert code == 0
            assert json.loads(out)["redundancy_ok"] is True
        assert calls == []

    def test_below_threshold_usage(self, capsys):
        code, _out, _err = run(capsys, "nonexist", "--n", "2", "--d", "3",
                               "--seed", "1")
        assert code == 64

    def test_past_the_old_pattern_budget(self, capsys, monkeypatch):
        # the survey certifies support shapes and generates no pattern;
        # (7, 14) has 18,128,544 prime patterns and (7, 18) is the largest
        # point past the threshold inside the ambient limit
        forbid_pattern_generation(monkeypatch)
        code, out, _ = run(capsys, "nonexist", "--n", "7", "--d", "14",
                           "--seed", "1")
        assert code == 0
        assert json.loads(out)["strata_checked"] == 18128544 * 40320
        code, out, _ = run(capsys, "nonexist", "--n", "7", "--d", "18",
                           "--seed", "1")
        assert code == 0
        assert json.loads(out)["strata_reduced"] is True

    def test_zero_spike_is_certificate_failure(self, capsys, monkeypatch):
        # every sample is ranked through key_rank, which refuses the point
        # rather than redraw it as a genericity shortfall
        spikeless_sampler(monkeypatch)
        code, out, err = run(capsys, "nonexist", "--n", "3", "--d", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("certificate failure: c[x1^6] = 0")
        assert "n=3, d=6" in err and err.endswith("(seed 1)\n")

    def test_shape_failure_is_certificate_failure(self, capsys, monkeypatch):
        # a shape check swapping the other term's last index instead of its
        # first is caught by the per-shape re-check
        import toricdegen.theorem
        monkeypatch.setattr(toricdegen.theorem, "_swap_pair",
                            lambda lead, other: (lead[-1], other[-1]))
        code, out, err = run(capsys, "nonexist", "--n", "2", "--d", "4",
                             "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("certificate failure")
        assert "strata reduction failed" in err and "is uncertified" in err


class TestLeadingSign:
    """A text that starts with '-' reaches the parser only joined to its
    flag by '=' or holding a space; else argparse reads it as a flag."""

    def test_unspaced_text_after_its_flag_is_usage(self, capsys):
        code, out, err = run(capsys, "classify", "--poly", "-x0-x1",
                             "--n", "1", "--d", "1")
        assert code == 64
        assert out == ""
        assert "argument --poly: expected one argument" in err

    @pytest.mark.parametrize("text", [("--poly=-x0-x1",),
                                      ("--poly", "-x0 - x1")])
    def test_joined_or_spaced_text_is_read(self, capsys, text):
        code, out, _ = run(capsys, "classify", *text, "--n", "1", "--d", "1")
        assert code == 0
        assert json.loads(out)["poly"] == "-x0 - x1"

    def test_joined_stratum_texts_are_read(self, capsys):
        code, out, _ = run(capsys, "stratum", "--f=-x1^3+x0^2*x2+x2^3",
                           "--g=-x1^3+x0^2*x2", "--n", "2", "--d", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["f"] == "x0^2*x2 - x1^3 + x2^3"
        assert payload["g"] == "x0^2*x2 - x1^3"


# each command's usage after "usage: toricdegen <command> [-h]", in the
# order the top-level help lists the commands
USAGE = {
    "verify-lemma": "--n N --d D [--seed SEED] [--format {json,table}] "
                    "[--samples SAMPLES] [--bound BOUND]",
    "witness": "--n N --d D [--seed SEED] [--format {json,table}] "
               "[--bound BOUND]",
    "sweep": "--n-max N_MAX --d-max D_MAX [--seed SEED] "
             "[--format {json,table}]",
    "classify": "--poly POLY --n N --d D [--seed SEED] [--format {json,table}]",
    "stratum": "--f F --g G --n N --d D [--seed SEED] [--format {json,table}]",
    "enumerate-binomials": "--n N --d D [--seed SEED] [--format {json,table}]",
    "nonexist": "--n N --d D [--seed SEED] [--format {json,table}] "
                "[--samples SAMPLES] [--bound BOUND]",
}


def _commands():
    parser = build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    return parser, subs.choices


class TestParser:
    @pytest.mark.parametrize("name", USAGE)
    def test_usage_line(self, name):
        # argparse wraps usage to the terminal width, so compare words
        usage = _commands()[1][name].format_usage()
        assert " ".join(usage.split()) == (
            f"usage: toricdegen {name} [-h] {USAGE[name]}")

    def test_help_lists_the_commands_in_order(self):
        parser, commands = _commands()
        assert list(commands) == list(USAGE)
        assert "{" + ",".join(USAGE) + "}" in parser.format_help()

    def test_every_handler_is_registered_once(self):
        handlers = [sub.get_default("func") for sub in _commands()[1].values()]
        defined = [value for name, value in vars(cli).items()
                   if name.startswith("cmd_")]
        assert sorted(h.__name__ for h in handlers) == sorted(
            h.__name__ for h in defined)
        assert len(set(handlers)) == len(handlers)

    def test_each_flag_is_declared_once(self, monkeypatch):
        # commands share a flag through a parent parser, never a second
        # add_argument call; only -h is added to every parser
        calls = Counter()
        add = argparse.ArgumentParser.add_argument

        def counted(parser, *names, **kwargs):
            calls[names] += 1
            return add(parser, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        build_parser()
        assert calls.pop(("-h", "--help")) == 1 + len(USAGE)
        assert "--seed" in {name for names in calls for name in names}
        assert set(calls.values()) == {1}, calls


class TestParserErrors:
    """argparse reports a bad command line with its usage and exit 2, which
    main maps to 64; --help exits 0."""

    @pytest.mark.parametrize("name", USAGE)
    def test_missing_required_flag(self, capsys, name):
        code, out, err = run(capsys, name)
        required = USAGE[name].split(" [")[0].split()[::2]
        assert code == 64
        assert out == ""
        assert err == (_commands()[1][name].format_usage()
                       + f"toricdegen {name}: error: the following arguments "
                       f"are required: {', '.join(required)}\n")

    @pytest.mark.parametrize("name", USAGE)
    def test_unknown_flag(self, capsys, name):
        # the subcommand leaves --bogus over, and the top-level parser,
        # which parses the rest, reports it
        required = [word if word.startswith("--") else "1"
                    for word in USAGE[name].split(" [")[0].split()]
        code, out, err = run(capsys, name, *required, "--bogus")
        assert code == 64
        assert out == ""
        assert err == (_commands()[0].format_usage() + "toricdegen: error: "
                       "unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [("--help",),
                                      *[(name, "--help") for name in USAGE]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: toricdegen")
        assert err == ""

    @pytest.mark.parametrize("argv", [("--help",),
                                      *[(name, "--help") for name in USAGE]])
    def test_help_to_a_closed_stdout(self, argv):
        # buffered, the help text fails at main's flush, which exits 74;
        # unbuffered, argparse drops the failed write itself and exits 0
        for unbuffered, status in ((False, 74), (True, 0)):
            assert run_closed(unbuffered, *argv) == (status, ""), unbuffered


class TestHarness:
    def test_unknown_command_usage(self, capsys):
        code, _out, _err = run(capsys, "frobnicate")
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _out, _err = run(capsys, "witness", "--n", "2")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("witness", "--n", "2", "--d", "3", "--seed", "7"),
        ("verify-lemma", "--n", "2", "--d", "5", "--seed", "7"),
        ("sweep", "--n-max", "2", "--d-max", "4", "--seed", "7"),
        ("nonexist", "--n", "2", "--d", "5", "--seed", "7"),
        ("enumerate-binomials", "--n", "2", "--d", "3"),
        ("stratum", "--f", "x1^3+x0^2*x2+x2^3", "--g", "x1^3 + x0^2*x2",
         "--n", "2", "--d", "3"),
        ("witness", "--n", "2", "--d", "3", "--seed", "7",
         "--format", "table"),
    ])
    def test_byte_determinism(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
