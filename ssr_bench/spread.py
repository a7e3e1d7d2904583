#!/usr/bin/env python3
"""Measures the run-to-run spread of one workload's metrics.

    python3 ssr_bench/spread.py --workload <name> [--runs 10] [--seeds 1,2]
                                [--seconds S] [--trace 0|1]

Runs ssr_bench/run.py --runs times, from the repository root. By default
run i gets seed i + 1; --seeds cycles through a list instead (--seeds 1,2
alternates two seeds). For each metric it prints the median and the spread
(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4) gives them,
over all runs and over each half of them.

An end-to-end metric is steady when every spread is below a third of its
bound in BENCHMARK.json (setup_s only needs its medians to agree). One that
is not needs a longer run (--seconds) or, failing that, a move to the
per-layer list, rather than a looser bound. The "worse by" column compares
the medians of the two halves, which must agree within the bound, as two
sets of runs of one commit must. Exits 1 when a metric is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "ssr_bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    """(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", help="comma-separated seeds to cycle")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    defs = spec["per_layer" if args.trace else "end_to_end"]

    values = {m["name"]: [] for m in defs}
    for i in range(args.runs):
        seed = seeds[i % len(seeds)]
        result = run(args.workload, seed, seconds, args.trace)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed {seed}: "
              f"{result['attempted']} ops, {result['failed']} failed, "
              f"correct={result['correct']}", file=sys.stderr, flush=True)

    half = args.runs // 2
    print(f"{args.workload}, {args.runs} runs of {seconds:g} s, "
          f"trace {args.trace}")
    print("| metric | median | spread | bound | half 1 | spread 1 | "
          "half 2 | spread 2 | worse by |")
    print("|---|---|---|---|---|---|---|---|---|")
    unsteady = []
    for m in defs:
        v = values[m["name"]]
        bound = m.get("bound")
        m1, m2 = statistics.median(v[:half]), statistics.median(v[half:])
        worse = worsening(m1, m2, m["better"])
        row = [m["name"], f"{statistics.median(v):.6g}", f"{spread(v):.4f}",
               "" if bound is None else f"{bound:g}",
               f"{m1:.6g}", f"{spread(v[:half]):.4f}",
               f"{m2:.6g}", f"{spread(v[half:]):.4f}", f"{worse:+.4f}"]
        print("| " + " | ".join(row) + " |")
        if bound is not None:
            worst = max(spread(v), spread(v[:half]), spread(v[half:]))
            if m["name"] != "setup_s" and worst > bound / 3:
                unsteady.append(f"{m['name']}: spread {worst:.4f} > "
                                f"bound/3 {bound / 3:.4f}")
            if worse > bound:
                unsteady.append(f"{m['name']}: half 2 worse by {worse:.4f}"
                                f" > bound {bound:g}")
    print()
    print("| run | seed | " + " | ".join(m["name"] for m in defs) + " |")
    print("|---|---|" + "---|" * len(defs))
    for i in range(args.runs):
        row = [str(i + 1), str(seeds[i % len(seeds)])]
        row += [f"{values[m['name']][i]:.6g}" for m in defs]
        print("| " + " | ".join(row) + " |")
    for line in unsteady:
        print("UNSTEADY " + line)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
