"""The benchmark's verdict checks: they accept real toricdegen output and
reject tampered output; the brute-force pattern sets match the library."""

import copy
import json
from math import comb

import pytest

import checks
from toricdegen import enumerate_patterns, strata_survey
from toricdegen.cli import main

SEED = 7


def cli_output(capsys, *argv):
    code = main([*argv, "--seed", str(SEED)])
    return code, json.loads(capsys.readouterr().out)


# (command as checks names it, n, d, toricdegen argv)
CASES = [
    ("sweep", 3, 6, ("sweep", "--n-max", "3", "--d-max", "6")),
    ("nonexist", 2, 4, ("nonexist", "--n", "2", "--d", "4")),
    ("enumerate-binomials", 2, 5, ("enumerate-binomials", "--n", "2", "--d", "5")),
    ("verify-lemma", 3, 7, ("verify-lemma", "--n", "3", "--d", "7")),
    ("witness", 3, 5, ("witness", "--n", "3", "--d", "5")),
]


def flip_degenerable(out):
    out["rows"][-1]["degenerable"] = not out["rows"][-1]["degenerable"]


def wrong_strata_count(out):
    out["strata_checked"] += 1


def drop_pattern(out):
    out["patterns"].pop()
    out["count"] -= 1


def wrong_count(out):
    out["count"] += 1


def wrong_codim(out):
    out["codim"] += 1


def wrong_verdict(out):
    out["verdict"] = {"tag": "ProperPower", "power": 2}


TAMPERS = {
    "sweep": [flip_degenerable],
    "nonexist": [wrong_strata_count],
    "enumerate-binomials": [drop_pattern, wrong_count],
    "verify-lemma": [wrong_codim],
    "witness": [wrong_verdict],
}


@pytest.mark.parametrize("command,n,d,argv", CASES, ids=[c[0] for c in CASES])
def test_real_output_passes_and_tampering_is_caught(capsys, command, n, d, argv):
    code, out = cli_output(capsys, *argv)
    expected = checks.Expected(SEED)
    assert expected.check(command, n, d, code, json.dumps(out)) == []
    assert expected.check(command, n, d, 1, json.dumps(out)) == ["exit code 1"]
    for tamper in TAMPERS[command]:
        bad = copy.deepcopy(out)
        tamper(bad)
        assert expected.check(command, n, d, 0, json.dumps(bad)), tamper.__name__


def test_strata_survey_summary():
    s = strata_survey(2, 5, full=True)
    out = {"n": s.n, "d": s.d, "checked": s.checked, "full": s.full,
           "passed": s.passed, "failures": len(s.failures)}
    expected = checks.Expected(SEED)
    assert expected.check("strata-survey", 2, 5, 0, json.dumps(out)) == []
    out["passed"] = False
    assert expected.check("strata-survey", 2, 5, 0, json.dumps(out))


def test_wrong_seed_and_garbage_rejected():
    expected = checks.Expected(SEED)
    assert expected.check("witness", 3, 5, 0, "not json")
    assert expected.check("verify-lemma", 3, 7, 0, json.dumps({"seed": 8}))


def test_exponents_are_all_degree_d_tuples():
    for n in range(0, 4):
        for d in range(0, 6):
            exps = checks.exponents(n, d)
            assert len(exps) == len(set(exps)) == comb(n + d, d)
            assert all(len(u) == n + 1 and sum(u) == d for u in exps)


@pytest.mark.parametrize("n,d", [(1, 2), (1, 5), (2, 2), (2, 6), (3, 4), (4, 3)])
def test_brute_force_matches_enumerate_patterns(n, d):
    got = {frozenset((g.u, g.v)) for g in enumerate_patterns(n, d)}
    assert got == checks.prime_pairs(n, d)


@pytest.mark.parametrize("n,d,count", [(3, 6, 120), (3, 7, 240), (3, 8, 240),
                                       (4, 8, 2630)])
def test_brute_force_counts(n, d, count):
    assert len(checks.prime_pairs(n, d)) == count
