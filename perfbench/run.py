"""Time to verdict for toricdegen, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,strata,big-point} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout; toricdegen is imported from its
`src/` directory, so nothing needs installing.  A workload is a fixed list
of invocations, each in its own child process, run one at a time.  Passes
over the list repeat for about S seconds (spawn.py times them), then every
output is checked against answers derived in checks.py without toricdegen,
and each metric is printed by name and unit.  End-to-end times are
rescaled to a fixed machine speed, gauged by reference.py between passes
(README.md says how).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are end to end; with --trace 1 traced and
untraced passes alternate, and the metrics are the per-layer split from
tracing.py plus the tracing overhead.  Raw timings, the environment and any
failed check go to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Invocations per workload: (command, n, d); for sweep, n and d are
# --n-max and --d-max.  README.md records why each workload was chosen.
WORKLOADS = {
    "sweep": (("sweep", 4, 10),),
    "strata": (("nonexist", 3, 6), ("enumerate-binomials", 4, 8),
               ("strata-survey", 3, 7), ("strata-survey", 3, 8)),
    "big-point": (("verify-lemma", 5, 12), ("witness", 5, 9)),
}

SETUP_PER_BLOCK = 3
HARD_LIMIT_S = 165.0  # whole run, so a hung child cannot outlive 180 s
# Timings are rescaled to the machine speed at which reference.py takes
# REFERENCE_S seconds (about its time on a 2-vCPU Xeon VM in a fast spell).
REFERENCE_S = 0.4

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_args(command: str, n: int, d: int, seed: int) -> list[str]:
    script = str(BENCH / "child.py")
    if command == "strata-survey":
        return [script, "strata-survey", str(n), str(d)]
    if command == "sweep":
        nd = ["--n-max", str(n), "--d-max", str(d)]
    else:
        nd = ["--n", str(n), "--d", str(d)]
    return [script, "cli", command, *nd, "--seed", str(seed)]


def check_passes(passes, calls, seed: int, out_dir: Path):
    """(attempted, failed, problems by output stem) over every pass."""
    expected = checks.Expected(seed)
    attempted = failed = 0
    problems = {}
    for p in passes:
        for k, (command, n, d) in enumerate(calls):
            stem = f"{p['kind']}{p['index']}-{k}"
            attempted += 1
            if k >= len(p["children"]):
                found = ["not run: an earlier call timed out"]
            elif p["children"][k]["timed_out"]:
                found = ["timed out"]
            else:
                found = expected.check(command, n, d,
                                       p["children"][k]["returncode"],
                                       (out_dir / f"{stem}.out").read_text())
            if found:
                failed += 1
                problems[stem] = found
    return attempted, failed, problems


def around(blocks, start: float, end: float) -> float:
    """Mean seconds of the reference blocks just before start and just
    after end: the machine's speed over that stretch."""
    near = [b["seconds"] for b in blocks if b["end"] <= start][-1:] + \
        [b["seconds"] for b in blocks if b["start"] >= end][:1]
    return statistics.fmean(near)


def end_to_end(timings) -> tuple[dict[str, float], dict[str, float]]:
    """(as measured, rescaled) end-to-end metrics: medians over the
    untraced passes.  Rescaled, each timed stretch is multiplied by
    REFERENCE_S over the reference blocks on either side of it (a set-up
    timing, over the block just before it), so a run in a slow spell of
    the machine reads as one in a fast spell; peak RSS is left as it is."""
    blocks = timings["reference"]
    plain = [p for p in timings["passes"] if p["kind"] == "plain"]
    scales = [REFERENCE_S / around(blocks, p["start"], p["end"])
              for p in plain]
    walls = [p["wall_s"] for p in plain]
    cpus = [sum(c["cpu_s"] for c in p["children"]) for p in plain]
    rss = statistics.median(max(c["peak_rss_mb"] for c in p["children"])
                            for p in plain)
    setup = statistics.median(s["seconds"] for s in timings["setup"])
    raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
           "peak_rss_mb": rss, "setup_s": setup}
    scaled = {
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(
            s["seconds"] * REFERENCE_S / blocks[s["block"]]["seconds"]
            for s in timings["setup"]),
    }
    return raw, scaled


def per_layer(timings, calls, out_dir: Path, wall_s: float) -> dict[str, float]:
    traced = [p for p in timings["passes"] if p["kind"] == "traced"
              and len(p["children"]) == len(calls)]
    per_pass = []
    for p in traced:
        runs = [json.loads((out_dir / f"traced{p['index']}-{k}.trace")
                           .read_text())["spans"] for k in range(len(calls))]
        per_pass.append(tracing.layer_metrics(runs))
    values = tracing.median_metrics(per_pass)
    blocks = timings["reference"]
    values["trace.overhead_s"] = statistics.median(
        p["wall_s"] * REFERENCE_S / around(blocks, p["start"], p["end"])
        for p in traced) - wall_s
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (SRC / "toricdegen" / "cli.py").is_file():
        sys.exit(f"no toricdegen sources under {SRC}; run from a checkout")
    out_dir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    calls = WORKLOADS[args.workload]

    plan = {
        "out_dir": str(out_dir),
        "setup_per_block": SETUP_PER_BLOCK,
        "calls": [child_args(c, n, d, args.seed) for c, n, d in calls],
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "deadline_s": HARD_LIMIT_S - (perf_counter() - started),
        "reference": ["-S", str(BENCH / "reference.py")],
    }
    (out_dir / "plan.json").write_text(json.dumps(plan))
    subprocess.run([sys.executable, "-S", str(BENCH / "spawn.py"),
                    str(out_dir / "plan.json")], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC),
                            PYTHONNOUSERSITE="1"))
    timings = json.loads((out_dir / "timings.json").read_text())
    probe = (out_dir / "setup-probe.out").read_text().strip()
    if timings["probe"]["returncode"] != 0 or \
            SRC.resolve() not in Path(probe or ".").resolve().parents:
        sys.exit(f"toricdegen was not imported from {SRC}: "
                 f"{(out_dir / 'setup-probe.err').read_text()}")
    if not timings["passes"]:
        sys.exit("the reference block failed: "
                 f"{(out_dir / 'reference0.err').read_text()}")

    attempted, failed, problems = check_passes(timings["passes"], calls,
                                               args.seed, out_dir)
    raw, e2e = end_to_end(timings)
    if args.trace:
        values = per_layer(timings, calls, out_dir, e2e["wall_s"])
        units = dict(tracing.METRICS, **{"trace.overhead_s": "s"})
    else:
        values, units = e2e, END_TO_END

    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "platform": platform.platform(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace}
    record = {"env": env, "timings": timings, "problems": problems,
              "measured": raw, "end_to_end": e2e, "metrics": values,
              "attempted": attempted, "failed": failed}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    kinds = [p["kind"] for p in timings["passes"]]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {kinds.count('plain')} plain, {kinds.count('traced')} "
          f"traced; spawner peak RSS {timings['spawner_peak_rss_mb']:.1f} MB "
          "(floor of peak_rss_mb)")
    for stem, found in problems.items():
        print(f"FAILED {stem}: {'; '.join(found[:5])}")
    blocks = [b["seconds"] for b in timings["reference"]]
    print(f"reference blocks: {len(blocks)}, median {statistics.median(blocks)}"
          f" s; times below are rescaled to blocks of {REFERENCE_S} s, "
          "as measured in brackets")
    for name, value in e2e.items():
        print(f"{name} = {value} {END_TO_END[name]} ({raw[name]})")
    print(f"fail_ratio = {failed / attempted} ratio ({failed}/{attempted})")
    if args.trace:
        for name, value in values.items():
            print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
