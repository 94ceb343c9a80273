#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the repository benchmark.

Runs `perfbench/run.py` in a BASE checkout and a HEAD checkout for N pairs,
alternating which side runs first (BASE then HEAD on even pairs, HEAD then
BASE on odd ones), all with the same workload, seed, run length and
tracing. Then, per metric, it prints each side's median and quartiles, the
relative change of the medians, and how many pairs HEAD won, and it flags:

  gain        HEAD won at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than BASE's interquartile
              range, in HEAD's favour;
  WORSE       HEAD's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json (end-to-end metrics only);
  unresolved  BASE's own interquartile range is wider than the bound, and
              not every HEAD run beats every BASE run.

Each run's correctness verdict and failed/attempted counts are printed too.
The exit code is 1 when a run failed or was incorrect, or a metric is WORSE,
and 0 otherwise.

Usage (from anywhere; each checkout needs `perfbench/` and `src/`):

    python3 tools/perf_pairs.py BASE_DIR HEAD_DIR --workload paper_binary \\
        --seed 23 --pairs 10 [--seconds 30] [--trace 0] [--log runs.jsonl]

`--seconds` defaults to `run_seconds` of HEAD's BENCHMARK.json. With
`--log`, every run's result is appended as one JSON line as soon as it
finishes, so an interrupted comparison keeps what it measured. Standard
library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(checkout, args):
    """Runs the benchmark once in `checkout`; returns the result dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        return {"ok": False, "exit": proc.returncode, "wall_s": wall_s,
                "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"ok": True, "exit": proc.returncode, "wall_s": wall_s,
            "correct": bool(result.get("correct")),
            "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0), "metrics": metrics}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def summarize(runs, spec, pairs):
    """Prints the per-metric table; returns True when a metric is WORSE."""
    end_to_end = {m["name"]: m for m in spec.get("end_to_end", [])}
    per_layer = {m["name"]: m for m in spec.get("per_layer", [])}
    names = [n for n in list(end_to_end) + list(per_layer)
             if all(n in r["base"]["metrics"] and n in r["head"]["metrics"] for r in runs)]
    any_worse = False
    header = (f"{'metric':<38} {'base p50':>12} {'[q1, q3]':>25} {'head p50':>12} "
              f"{'[q1, q3]':>25} {'change':>8} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    for name in names:
        meta = end_to_end.get(name) or per_layer[name]
        direction = meta.get("better", "lower")
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        wins = sum(better(h, b, direction) for b, h in zip(base, head))
        change = (hmed - bmed) / bmed if bmed != 0 else 0.0
        verdicts = []
        if (wins >= 0.9 * pairs and better(hmed, bmed, direction)
                and abs(hmed - bmed) > (bq3 - bq1)):
            verdicts.append("gain")
        bound = end_to_end.get(name, {}).get("bound")
        if bound is not None:
            worse_by = change if direction == "lower" else -change
            if worse_by > bound:
                verdicts.append("WORSE")
                any_worse = True
            all_beat = all(better(h, b, direction) for h in head for b in base)
            if bmed != 0 and (bq3 - bq1) / abs(bmed) > bound and not all_beat:
                verdicts.append("unresolved")
        print(f"{name:<38} {bmed:>12.5g} [{bq1:>10.5g}, {bq3:>10.5g}] {hmed:>12.5g} "
              f"[{hq1:>10.5g}, {hq3:>10.5g}] {change:>+7.1%} {wins:>3}/{len(runs):<2}  "
              f"{' '.join(verdicts)}")
    return any_worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the parent commit")
    parser.add_argument("head", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--benchmark", default=None,
                        help="BENCHMARK.json to read bounds from (default: HEAD's)")
    parser.add_argument("--log", default=None, help="append each run as a JSON line")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base_dir = os.path.abspath(args.base)
    head_dir = os.path.abspath(args.head)
    spec = load_benchmark(args.benchmark or os.path.join(head_dir, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = spec.get("run_seconds", 30)
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)

    runs = []
    bad_run = False
    for i in range(args.pairs):
        order = [("base", base_dir), ("head", head_dir)]
        if i % 2 == 1:
            order.reverse()
        pair = {}
        for side, checkout in order:
            result = run_once(checkout, args)
            pair[side] = result
            status = "ok" if result["ok"] and result["correct"] else "INCORRECT"
            if not result["ok"]:
                status = f"NO RESULT (exit {result['exit']})"
            print(f"pair {i + 1}/{args.pairs} {side:<4} {status:<10} "
                  f"failed {result['failed']}/{result['attempted']}  "
                  f"{result['wall_s']:.0f} s", flush=True)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"pair": i, "side": side, "workload": args.workload,
                                        "seed": args.seed, "trace": args.trace,
                                        **result}) + "\n")
            if not (result["ok"] and result["correct"]):
                bad_run = True
        if pair["base"]["ok"] and pair["head"]["ok"]:
            runs.append(pair)

    print()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s runs, "
          f"trace {args.trace}, {len(runs)} complete pairs")
    for side in ("base", "head"):
        correct = sum(r[side]["correct"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        share = failed / attempted if attempted else 0.0
        print(f"  {side}: {correct}/{len(runs)} runs correct, "
              f"failed {failed}/{attempted} operations ({share:.3%})")
    print()
    if not runs:
        return 1
    any_worse = summarize(runs, spec, len(runs))
    return 1 if (bad_run or any_worse) else 0


if __name__ == "__main__":
    sys.exit(main())
