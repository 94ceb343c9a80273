#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at smoke size,
untraced and traced, and checks that the final JSON line carries exactly
the end-to-end (resp. per-layer) metric names of BENCHMARK.json with their
units, and that the run's outputs were correct. It then runs the binary's
corruption self-test, which proves that each correctness check rejects a
deliberately corrupted input. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def fail(message):
    print(f"selftest: FAILED: {message}")
    sys.exit(1)


def run(args):
    result = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        fail(f"{' '.join(args)} exited {result.returncode}:\n{result.stderr[-3000:]}")
    return result.stdout.strip().splitlines()[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
                    "--smoke"]
            result = json.loads(run(args))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: unexpected result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: run not clean: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in got if n in expected[trace] and
                               got[n] != expected[trace][n])
                fail(f"{workload} trace={trace}: missing {missing}, extra {extra}, "
                     f"wrong units {units}")
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics with their units")
    subprocess.run(RUN + ["--selftest"], cwd=ROOT, check=True, timeout=900)
    print("selftest: ok")


if __name__ == "__main__":
    main()
