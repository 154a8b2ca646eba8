#!/usr/bin/env python3
"""Build and run the ddtr benchmark; the last stdout line is its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (the library from
src/ plus the benchmark runner) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the runner in a fresh scratch directory under
the build directory, checks the runner's result line and prints it last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). --units U caps the unit count (the self-check
uses it). Exits non-zero without a result when the build or the run fails.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configures once and builds incrementally; a lock serializes builds."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(out), "-j", "2"],
                       stdout=sys.stderr, check=True)
    return out / "ddtr_perfbench"


def check_result(line):
    """Returns a problem with the runner's result line, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "no unit attempted"
    if not result["metrics"]:
        return "no metrics"
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (not isinstance(value, (int, float)) or not math.isfinite(value)
                or set(metric) != {"value", "unit"}):
            return "metric %s is malformed" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--units", type=int, default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "api" / "ddtr.h").is_file():
        sys.exit("perfbench: no ddtr sources under %s/src" % ROOT)
    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)

    work = out / ("work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--units", str(args.units)]
    if args.trace:
        command += ["--trace-file", str(out / ("trace-%s.json" % args.workload))]
    try:
        proc = subprocess.run(command, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: runner exited with %d" % proc.returncode)
    problem = check_result(lines[-1])
    if problem:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: " + problem)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
