#!/usr/bin/env python3
"""Self-check of the ddtr benchmark: one unit per workload, both modes.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Run it from the repository root. For every workload BENCHMARK.json lists
(or the ones named), it runs perfbench/run.py once untraced with one unit
and once traced with a traced/untraced pair, and asserts that the run is
correct with no failed unit (fail_frac = 0), that it emits exactly the
metrics BENCHMARK.json names with their units, and that the traced run's
trace passed obs::check_trace. Exits 1 on the first failed assertion.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, units):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace), "--units", str(units)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited with %d" % proc.returncode)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check(workload, trace, expected):
    lines, result = run(workload, trace, 2 if trace else 1)
    label = "%s --trace %d" % (workload, trace)
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s: correct=%s failed=%d" % (
            label, result["correct"], result["failed"]))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(n for n in set(expected) & set(emitted)
                       if expected[n] != emitted[n])
        raise AssertionError("%s: missing %s, unexpected %s, unit differs %s"
                             % (label, missing, extra, wrong))
    if trace and not any(line.endswith("check_trace OK") for line in lines):
        raise AssertionError("%s: trace did not pass check_trace" % label)
    print("ok  %s: %d metrics, %d units, fail_frac 0" % (
        label, len(emitted), result["attempted"]))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        for workload in workloads:
            check(workload, 0, end_to_end)
            check(workload, 1, per_layer)
    except AssertionError as error:
        sys.exit("FAIL " + str(error))
    print("selfcheck passed: %d workloads" % len(workloads))


if __name__ == "__main__":
    main()
