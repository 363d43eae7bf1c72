"""One benchmark iteration in a fresh interpreter.

Imports tmcf from the checkout's ``src``, runs the workload's set-up, then
calls ``tmcf.cli.main(argv)`` once (inside a cli.main span when traced) and
writes its measurements to the job's result file as JSON.

    python3 perfbench/worker.py JOB_JSON SPAWN_NS

SPAWN_NS is CLOCK_MONOTONIC in nanoseconds just before the parent started
this process, so set-up time includes interpreter start.  After the call
the worker times a fixed pure-Python reference loop; the runner times the
same loop just before starting the worker and scales times by the two, to
cancel changes in the host's speed.  Neither runs inside the worker before
the call, because allocations there change the program's peak RSS.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


REFERENCE_LOOPS = 600_000


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast this machine runs right now."""
    start = time.perf_counter_ns()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i % 7
    return (time.perf_counter_ns() - start) / 1e9


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    spawn_ns = int(sys.argv[2])

    src = job["src"]
    sys.path.insert(0, src)
    from tmcf import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"imported tmcf from {cli.__file__}, expected it under {src}")
    if job["warm_argv"] and cli.main(job["warm_argv"]) != 0:
        raise SystemExit("workload set-up failed")
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    rec = None
    if job["traced"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter_ns()
    if rec is None:
        rc = cli.main(job["argv"])
    else:
        rc = rec.call("cli.main", cli.main, job["argv"])
    wall_ns = time.perf_counter_ns() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    reference = reference_s()

    result = {
        "rc": rc,
        "setup_s": (ready_ns - spawn_ns) / 1e9,
        "wall_s": wall_ns / 1e9,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "maxrss_kb": after.ru_maxrss,
        "reference_s": reference,
        "trace": rec.dump() if rec is not None else None,
    }
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
