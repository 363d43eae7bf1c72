"""Benchmark of the tmcf command-line program.

    python3 perfbench/run.py --workload verify_m2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload in turn

Each iteration calls ``tmcf.cli.main(argv)`` once, in a fresh single-threaded
worker process (``worker.py``); workers run one at a time.  The seed picks
the quotient map ``--map`` as a permutation of {1..m}; the program receives
only the generated argv.  Iterations repeat for --seconds seconds and every
iteration's output is checked against the oracles in ``oracles.py``.

--trace 0 reports the end-to-end metrics, as medians over the iterations;
times are scaled to the reference speed (see REFERENCE_S).
--trace 1 alternates untraced and traced iterations (``spans.py``) and
reports the per-layer metrics of the traced iteration with the median
wall time; it fails itself when a count differs between traced iterations.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Temporary files live under ``.perfbench_tmp`` in the checkout and are
removed before exit.  See NOTES.md for the workloads and what each metric
is expected to move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import spans
from worker import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

# No iteration starts after RUN_LIMIT_S and every worker is killed by
# HARD_LIMIT_S, so a run ends well inside three minutes.
RUN_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0

OUT = "<out>"
WARM_OUT = "<warm-out>"

VERIFY_LEN = 1_000_000
CF_DIGITS = 4000  # cf.evaluate hits CPython's 4300-digit int->str limit above this
CF_CONVERGENTS = 1000
GEN_LEN = 200_000

COUNT_METRICS = (*spans.CALLS.values(), *spans.COUNTED, "cli.bytes_written")

# The worker's reference loop takes this long at the reference speed (an
# idle 2-vCPU Xeon VM).  Times are scaled by REFERENCE_S / (the loop's time
# measured around each call), so that swings in the speed of a shared host
# cancel out; see NOTES.md.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class Plan:
    argv: list[str]                    # OUT stands for the iteration's output file
    check: Callable[[bytes], str | None]
    cache: bool = False                # fresh, empty TMCF_CACHE_DIR per worker
    warm_argv: list[str] | None = None  # run in set-up, before the timed call


def quotient_map(m: int, seed: int) -> list[int]:
    image = list(range(1, m + 1))
    random.Random(seed).shuffle(image)
    return image


def map_spec(image: list[int]) -> str:
    return ",".join(f"{j}:{v}" for j, v in enumerate(image))


def verify_plan(m: int, seed: int, warm: bool) -> Plan:
    argv = ["verify-all", "--m", str(m), "--len", str(VERIFY_LEN),
            "--map", map_spec(quotient_map(m, seed)), "--format", "json-lines", "--out", OUT]
    # a one-period search reads the prefix through the CLI, which stores it
    warm_argv = ["period", "--m", str(m), "--len", str(VERIFY_LEN),
                 "--a-max", "0", "--b-max", "1", "--out", WARM_OUT]
    return Plan(argv, oracles.check_verify, cache=True, warm_argv=warm_argv if warm else None)


def cf_plan(seed: int) -> Plan:
    image = quotient_map(2, seed)
    argv = ["cf", "--m", "2", "--map", map_spec(image), "--digits", str(CF_DIGITS),
            "--convergents", str(CF_CONVERGENTS), "--format", "json-lines", "--out", OUT]
    return Plan(argv, oracles.check_cf(image, 2, CF_DIGITS, CF_CONVERGENTS))


def gen_plan(seed: int) -> Plan:
    image = quotient_map(3, seed)
    argv = ["gen", "--m", "3", "--len", str(GEN_LEN), "--map", map_spec(image),
            "--format", "json-lines", "--out", OUT]
    return Plan(argv, oracles.check_gen(image, 3, GEN_LEN))


WORKLOADS = {
    "verify_m2": lambda seed: verify_plan(2, seed, warm=False),
    "verify_m5": lambda seed: verify_plan(5, seed, warm=True),
    "cf_m2": cf_plan,
    "gen_m3": gen_plan,
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if "bytes" in metric:
        return "bytes"
    return "count"


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tmcf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpus": os.cpu_count()}


def checked_once(check: Callable[[bytes], str | None]) -> Callable[[bytes], str | None]:
    """check, skipped for output byte-identical to output it already passed."""
    passed: set[bytes] = set()

    def run(data: bytes) -> str | None:
        digest = hashlib.sha256(data).digest()
        if digest in passed:
            return None
        error = check(data)
        if error is None:
            passed.add(digest)
        return error

    return run


def run_iteration(plan: Plan, check, workdir: Path, traced: bool, started: float) -> tuple[dict | None, str | None]:
    """One worker; returns (measurements, None) or (None, reason it failed)."""
    workdir.mkdir()
    try:
        out, result_path = workdir / "out.txt", workdir / "result.json"
        paths = {OUT: str(out), WARM_OUT: str(workdir / "warm.txt")}
        job = {
            "src": str(SRC),
            "argv": [paths.get(a, a) for a in plan.argv],
            "warm_argv": [paths.get(a, a) for a in plan.warm_argv] if plan.warm_argv else None,
            "traced": traced,
            "result": str(result_path),
        }
        (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("TMCF_CACHE_DIR", None)
        if plan.cache:
            (workdir / "cache").mkdir()
            env["TMCF_CACHE_DIR"] = str(workdir / "cache")
        command = [sys.executable, str(HERE / "worker.py"), str(workdir / "job.json")]
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - started))
        reference_before = reference_s()
        try:
            spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            done = subprocess.run([*command, str(spawn_ns)], cwd=workdir, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker killed after {timeout:.0f} s"
        if done.returncode != 0 or not result_path.is_file():
            return None, f"worker exited {done.returncode}: {done.stderr.strip()[-400:]}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["reference_s"] = (reference_before + result["reference_s"]) / 2
        if result["rc"] != 0:
            return None, f"tmcf exited {result['rc']}: {done.stderr.strip()[-400:]}"
        if not out.is_file():
            return None, "tmcf wrote no output"
        error = check(out.read_bytes())
        if error is not None:
            return None, f"wrong output: {error}"
        if traced:
            try:
                result["layers"] = spans.summarize(result.pop("trace"))
            except ValueError as exc:
                return None, f"trace: {exc}"
            result["layers"]["cli.bytes_written"] = out.stat().st_size
        return result, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def scaled(result: dict, seconds: float) -> float:
    """A time measured in one iteration, scaled to the reference speed."""
    return seconds * REFERENCE_S / result["reference_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[bool, int, int, dict]:
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    plan = WORKLOADS[name](seed)
    check = checked_once(plan.check)
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    min_iterations = 4 if trace else 1
    started = time.monotonic()
    attempted = 0
    while True:
        is_traced = trace and attempted % 2 == 1
        begun = time.monotonic()
        result, error = run_iteration(plan, check, tmp / f"{name}-{attempted}", is_traced, started)
        attempted += 1
        if error is not None:
            failures.append(error)
            print(f"{name}: iteration {attempted} failed: {error}", file=sys.stderr)
        elif is_traced:
            traced.append(result)
        else:
            plain.append(result)
        # stop before an iteration as long as the last one would overrun --seconds
        now = time.monotonic()
        if now - started >= RUN_LIMIT_S or (
            now + (now - begun) - started > seconds and attempted >= min_iterations
        ):
            break

    if not plain or (trace and not traced):
        raise SystemExit(f"{name}: no iteration succeeded; last error: {failures[-1]}")
    correct = not failures
    if trace:
        for metric in COUNT_METRICS:
            seen = sorted({r["layers"][metric] for r in traced})
            if len(seen) > 1:
                correct = False
                print(f"{name}: count {metric} differs between runs: {seen}", file=sys.stderr)
        traced.sort(key=lambda r: r["layers"]["trace.wall_s"])
        metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
        metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        metrics["trace.overhead_s"] = (statistics.median(scaled(r, r["layers"]["trace.wall_s"]) for r in traced)
                                       - statistics.median(scaled(r, r["wall_s"]) for r in plain))
    else:
        metrics = {
            "wall_s": statistics.median(scaled(r, r["wall_s"]) for r in plain),
            "setup_s": statistics.median(scaled(r, r["setup_s"]) for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
        }

    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                      "argv": plan.argv, "untraced": len(plain), "traced": len(traced)}))
    samples = f"traced iteration with the median wall time, of {len(traced)}" if trace else f"median of {len(plain)}"
    print(f"{name} (seed {seed}): {samples}")
    for key in ("wall_s", "setup_s", "reference_s"):
        print(f"  measured {key}: " + " ".join(f"{r[key]:.4f}" for r in plain))
    for metric, value in sorted(metrics.items()):
        print(f"  {metric:<28} {value:>16.6g} {unit(metric)}")
    print(f"  {'failed_ratio':<28} {len(failures) / attempted:>16.6g} ({len(failures)}/{attempted})")
    return correct, attempted, len(failures), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tmcf" / "cli.py").is_file():
        print(f"tmcf sources not found under {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance()}))
    # compile bytecode up front so no iteration's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)], capture_output=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        runs = {name: measure(name, args.seed, args.seconds, bool(args.trace), tmp) for name in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    def entry(name: str, metric: str, value: float) -> tuple[str, dict]:
        key = metric if len(names) == 1 else f"{name}.{metric}"
        return key, {"value": value, "unit": unit(metric)}

    print(json.dumps({
        "correct": all(r[0] for r in runs.values()),
        "attempted": sum(r[1] for r in runs.values()),
        "failed": sum(r[2] for r in runs.values()),
        "metrics": dict(entry(n, k, v) for n, r in runs.items() for k, v in sorted(r[3].items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
