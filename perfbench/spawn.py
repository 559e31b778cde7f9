"""The timed part of a benchmark run, in a process kept small.

    python3 -S perfbench/spawn.py PLAN.json

At exec, Linux records the peak RSS of the spawning process's memory as
the child's starting peak, so a child's ru_maxrss never reads below its
parent's.  run.py therefore hands the spawning to this process, which
imports only a few stdlib modules (and no site-packages, with -S); its own
peak (VmHWM), recorded in the output, is the floor of every per-child peak
RSS.

Children inherit this process's environment.  The plan (JSON) gives:
out_dir, setup_per_block, calls (child.py argument lists), seconds, traced,
deadline_s, reference (reference.py argument list).  Timings go to
out_dir/timings.json; child stdout and stderr to out_dir/<stem>.out/.err.
A gauge runs before the first pass and after every pass: a reference block
(reference.py, which times a fixed amount of work), then the set-up
timings.  So every pass has a gauge of the machine's speed on each side,
every set-up timing has one just before it, and set-up is sampled through
the whole run.  Times of day in the output (start, end) are this
process's perf_counter.
"""

import json
import os
import signal
import sys
from time import perf_counter


def spawn(plan, args, stem, deadline):
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    base = os.path.join(plan["out_dir"], stem)
    actions = [(os.POSIX_SPAWN_OPEN, 1, base + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, base + ".err", flags, 0o644)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        return {"returncode": -1, "wall_s": 0.0, "cpu_s": 0.0,
                "peak_rss_mb": 0.0, "timed_out": True}
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ,
                         file_actions=actions)
    timed_out = False

    def on_alarm(_signum, _frame):
        nonlocal timed_out
        timed_out = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {"returncode": os.waitstatus_to_exitcode(status),
            "wall_s": perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "timed_out": timed_out}


def run_pass(plan, kind, index, deadline):
    children = []
    start = perf_counter()
    for k, args in enumerate(plan["calls"]):
        stem = f"{kind}{index}-{k}"
        if kind == "traced":
            trace = os.path.join(plan["out_dir"], stem + ".trace")
            args = [args[0], "--trace-out", trace, "--run-id", stem, *args[1:]]
        children.append(spawn(plan, args, stem, deadline))
        if children[-1]["timed_out"]:
            break
    end = perf_counter()
    return {"kind": kind, "index": index, "wall_s": end - start,
            "start": start, "end": end,
            "children": children}


def gauge(plan, result, deadline):
    """Run a reference block, then setup_per_block set-up timings, each a
    fresh interpreter that imports toricdegen.cli; False if the block
    failed."""
    blocks = result["reference"]
    stem = f"reference{len(blocks)}"
    start = perf_counter()
    if spawn(plan, plan["reference"], stem, deadline)["returncode"] != 0:
        return False
    with open(os.path.join(plan["out_dir"], stem + ".out")) as fh:
        blocks.append({"start": start, "end": perf_counter(),
                       "seconds": json.load(fh)["seconds"]})
    for _ in range(plan["setup_per_block"]):
        child = spawn(plan, ["-c", "import toricdegen.cli"],
                      f"setup{len(result['setup'])}", deadline)
        result["setup"].append({"block": len(blocks) - 1,
                                "seconds": child["wall_s"]})
    return True


def measure(plan, result, deadline):
    """Alternate pass kinds, each followed by a gauge, until the next pass
    and its gauge would end past the plan's seconds, judged by the median
    of earlier passes of its kind and the last gauge; at least one pass of
    each kind runs."""
    kinds = ("plain", "traced") if plan["traced"] else ("plain",)
    start = perf_counter()
    passes = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        same = sorted(p["wall_s"] for p in passes if p["kind"] == kind)
        now = perf_counter()
        if len(passes) >= len(kinds) and now - start + same[len(same) // 2] \
                + now - passes[-1]["end"] > plan["seconds"]:
            break
        passes.append(run_pass(plan, kind, len(same), deadline))
        gauge(plan, result, deadline)
        if passes[-1]["children"][-1]["timed_out"]:
            break
    return passes


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    deadline = perf_counter() + plan["deadline_s"]
    # One untimed import compiles bytecode and shows where toricdegen lives.
    probe = spawn(plan, ["-c", "import toricdegen; print(toricdegen.__file__)"],
                  "setup-probe", deadline)
    result = {"probe": probe, "reference": [], "setup": [], "passes": []}
    if probe["returncode"] == 0 and gauge(plan, result, deadline):
        result["passes"] = measure(plan, result, deadline)
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    result["spawner_peak_rss_mb"] = int(hwm.split()[1]) / 1024
    with open(os.path.join(plan["out_dir"], "timings.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
