"""The CLI contract across commits: each command's output, byte for byte.

Each file under tests/snapshots/ holds the line 'exit <code>' and then the
stream one invocation printed, stdout for a command in one --format, or
stderr for a rejection.  A change to any of them is a change to the CLI
contract, so a snapshot is rewritten only on purpose.
"""

from pathlib import Path

import pytest

from toricdegen.cli import main

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"

FEASIBLE_F = "x1^3+x0^2*x2+x2^3"
INFEASIBLE_F = "x1^3 + x0^2*x2 + x0*x1*x2 + x0*x1^2"
BINOMIAL = "x1^3 + x0^2*x2"

COMMANDS = {
    "sweep": ("sweep", "--n-max", "3", "--d-max", "5"),
    "witness": ("witness", "--n", "2", "--d", "3"),
    "verify-lemma": ("verify-lemma", "--n", "3", "--d", "5"),
    "nonexist": ("nonexist", "--n", "2", "--d", "4"),
    "classify": ("classify", "--poly", BINOMIAL, "--n", "2", "--d", "3"),
    "stratum-feasible": ("stratum", "--f", FEASIBLE_F, "--g", BINOMIAL,
                         "--n", "2", "--d", "3"),
    "stratum-infeasible": ("stratum", "--f", INFEASIBLE_F, "--g", BINOMIAL,
                           "--n", "2", "--d", "3"),
    "enumerate-binomials": ("enumerate-binomials", "--n", "2", "--d", "3"),
}

REJECTIONS = {
    "sweep-over-budget": ("sweep", "--n-max", "71", "--d-max", "2"),
    "nonexist-below-threshold": ("nonexist", "--n", "2", "--d", "3"),
}

# snapshot file name -> (argv, the stream it holds)
CASES = {
    **{f"{name}.{fmt}.txt": ((*argv, "--format", fmt), "out")
       for name, argv in COMMANDS.items() for fmt in ("json", "table")},
    **{f"{name}.stderr.txt": (argv, "err")
       for name, argv in REJECTIONS.items()},
}


def snapshot_text(capsys, argv, stream) -> str:
    code = main(list(argv))
    return f"exit {code}\n" + getattr(capsys.readouterr(), stream)


def test_every_snapshot_file_is_a_case():
    assert sorted(p.name for p in SNAPSHOTS.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_snapshot(capsys, name):
    argv, stream = CASES[name]
    expected = (SNAPSHOTS / name).read_text()
    if snapshot_text(capsys, argv, stream) != expected:
        pytest.fail(f"output differs from tests/snapshots/{name}")
