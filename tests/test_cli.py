import json

import pytest

from toricdegen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        import toricdegen.family
        monkeypatch.setattr(toricdegen.family, "basis", None)  # never reached
        code, _out, err = run(capsys, "verify-lemma", "--n", "40", "--d", "40")
        assert code == 64
        assert "ambient dimension" in err


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
        import toricdegen.family
        monkeypatch.setattr(toricdegen.family, "basis", None)  # never reached
        code, out, err = run(capsys, "sweep", "--n-max", "40", "--d-max", "40")
        assert code == 64
        assert out == ""
        assert "ambient dimension" in err


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

    def test_support_mismatch_usage(self, capsys):
        code, _out, _err = run(capsys, "stratum",
                               "--f", "x1^3 + x2^3",
                               "--g", "x1^3 + x0^2*x2",
                               "--n", "2", "--d", "3")
        assert code == 64


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


def _forbid_enumeration_and_sampling(monkeypatch):
    import toricdegen.binomials
    import toricdegen.family
    import toricdegen.theorem
    # None makes any call fail the test; theorem holds its own copy of the name
    monkeypatch.setattr(toricdegen.binomials, "iter_exponents", None)
    monkeypatch.setattr(toricdegen.family, "sample_family", None)
    monkeypatch.setattr(toricdegen.theorem, "sample_family", None)


class TestPairBudget:
    @pytest.mark.parametrize("argv", [
        ("enumerate-binomials", "--n", "40", "--d", "40"),
        ("nonexist", "--n", "5", "--d", "11"),
    ])
    def test_oversized_rejected_before_work(self, capsys, monkeypatch, argv):
        _forbid_enumeration_and_sampling(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "monomial pairs" in err


class TestNonexist:
    def test_2_4(self, capsys):
        code, out, _ = run(capsys, "nonexist", "--n", "2", "--d", "4",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["codim_bound"] == 1
        assert payload["strata_full"] is True

    def test_below_threshold_usage(self, capsys):
        code, _out, _err = run(capsys, "nonexist", "--n", "2", "--d", "3",
                               "--seed", "1")
        assert code == 64


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
