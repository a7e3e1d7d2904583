#!/usr/bin/env python3
"""Builds ssr_bench, runs one workload, and prints its result as JSON.

    python3 ssr_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds ssr_bench/ (with the library sources in
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset, both
relative to the repository root; later runs rebuild only what changed. The
benchmark's own "name value unit" lines go to standard error. The last line
of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A traced run also writes its spans as a Chrome
trace to <build dir>/trace-<workload>.json. The exit code is 0 only when
every operation succeeded and every answer checked out; when the build or
the run fails, nothing is printed to standard output.

    python3 ssr_bench/run.py --smoke [--binary <path>]

runs every workload at smoke size, untraced and traced, and checks the
output against BENCHMARK.json (the bench_smoke test).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# The layer sum must explain the plain call within this share on the
# workloads without concurrent writers (churn_wal's readers also wait on
# the writer, which no layer call shows).
UNATTRIBUTED_LIMIT = 0.15
UNATTRIBUTED_CHECKED = ("range_serial", "neardup_routed")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds ssr_bench; returns the binary's path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ssr_bench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "ssr_bench"


def run_binary(binary, workload, seed, seconds, traced, smoke=False):
    """Runs one workload; returns (exit code, the binary's JSON or None)."""
    work = Path(binary).resolve().parent
    result_path = work / f"result-{os.getpid()}-{workload}-{int(traced)}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--json={result_path}", f"--scratch_dir={work}"]
    if seconds is not None:
        cmd.append(f"--seconds={seconds}")
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append(f"--trace={work / f'trace-{workload}.json'}")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
        if not result_path.exists():
            return rc, None
        with open(result_path) as f:
            return rc, json.load(f)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, None
    finally:
        result_path.unlink(missing_ok=True)


def select_metrics(spec, raw, traced):
    """The metrics BENCHMARK.json lists for this mode, checked and in order."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        value = None if got is None else got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is missing or not finite")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def run_one(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload!r}; "
                           f"one of {', '.join(names)}")
    binary = args.binary or build()
    traced = args.trace == 1
    rc, raw = run_binary(binary, args.workload, args.seed,
                         args.seconds or spec["run_seconds"], traced)
    if raw is None or rc not in (0, 3):
        raise RuntimeError(f"{args.workload} exited with {rc} and no result")
    result = {
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": select_metrics(spec, raw, traced),
    }
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 else 1


def smoke_check(binary, spec, workload, traced):
    """One smoke run; returns the problem found, or None."""
    label = f"{workload} ({'traced' if traced else 'end to end'})"
    rc, raw = run_binary(binary, workload, 1, None, traced, smoke=True)
    if raw is None or rc != 0:
        return f"{label}: exit {rc}"
    try:
        metrics = select_metrics(spec, raw, traced)
    except RuntimeError as e:
        return f"{label}: {e}"
    share = metrics.get("trace.unattributed_frac", {}).get("value")
    if (share is not None and workload in UNATTRIBUTED_CHECKED
            and abs(share) > UNATTRIBUTED_LIMIT):
        return (f"{label}: trace.unattributed_frac {share:.3f} outside "
                f"+-{UNATTRIBUTED_LIMIT}")
    log(f"{label}: ok, {raw['attempted']} operations")
    return None


def smoke(args, spec):
    binary = args.binary or build()
    jobs = [(w["name"], traced) for w in spec["workloads"]
            for traced in (False, True)]
    # Two runs at a time keep the whole check within ~5 s.
    with ThreadPoolExecutor(max_workers=2) as pool:
        problems = [p for p in pool.map(
            lambda job: smoke_check(binary, spec, *job), jobs) if p]
    for p in problems:
        log("FAIL " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this ssr_bench, do not build")
    args = parser.parse_args()
    try:
        spec = load_spec()
        return smoke(args, spec) if args.smoke else run_one(args, spec)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
