"""One benchmark invocation in a fresh interpreter.

    child.py [--trace-out PATH --run-id ID] cli ARGS...
    child.py [--trace-out PATH --run-id ID] strata-survey N D

`cli` runs toricdegen.cli.main(ARGS) exactly as the `toricdegen` console
script does.  `strata-survey` calls strata_survey(N, D, full=True) through
the public API, so the amount of work does not depend on where
nonexistence_certificate draws its full-survey cutoff, and prints a JSON
summary of the survey.  With --trace-out, the public functions are wrapped
(see tracing.py) and the spans are written to PATH when the call ends.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("target", choices=("cli", "strata-survey"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)

    import toricdegen.cli  # loads every toricdegen module

    recorder = None
    if ns.trace_out:
        import tracing

        recorder = tracing.Recorder(ns.run_id)
        tracing.install(recorder)
    try:
        if ns.target == "cli":
            return toricdegen.cli.main(ns.args)
        n, d = (int(a) for a in ns.args)
        survey = toricdegen.theorem.strata_survey(n, d, full=True)
        print(json.dumps({"n": survey.n, "d": survey.d,
                          "checked": survey.checked, "full": survey.full,
                          "passed": survey.passed,
                          "failures": len(survey.failures)}))
        return 0
    finally:
        if recorder is not None:
            recorder.dump(ns.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
