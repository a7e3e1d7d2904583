#!/usr/bin/env python3
"""Diff two benchmark-trajectory points (BENCH_<n>.json) and flag regressions.

Usage:
    bench_compare.py BASELINE.json NEW.json [--threshold=0.30] [--advisory]
                     [--keys=substr1,substr2]

Compares the numeric "scalars" shared by both reports. The direction of
"worse" is inferred from the key name: keys containing time/latency/byte-ish
substrings are lower-is-better, recall/precision are higher-is-better, and
anything unrecognized is reported but never flagged (neutral). A metric is a
regression when it moves in the bad direction by more than --threshold
(relative; default 0.30 to ride out machine noise on shared runners).

Exit status: 0 when no regressions (or --advisory), 1 on regression, 2 on
usage/input errors. Tolerates schema drift: missing "schema_version", "env",
or scalar keys in either file are reported, not fatal.
"""

import json
import sys

LOWER_IS_BETTER = (
    "second",
    "_ns",
    "_us",
    "_micros",
    "_millis",
    "latency",
    "time",
    "_io",
    "bytes",
    "pages",
    "faults",
    "_merge_overhead",
)
HIGHER_IS_BETTER = ("recall", "precision", "throughput", "_qps", "ops_per",
                    "speedup")


def direction(key):
    """-1 = lower is better, +1 = higher is better, 0 = neutral."""
    k = key.lower()
    # Quality-metric suffixes win outright: a name like
    # `replay_observed_recall` is a recall however many timing-flavoured
    # substrings it contains, while `recall_estimator_seconds` is a timing.
    # Suffix (not substring) matching keeps the two distinguishable.
    if k.endswith(("_recall", "_precision")) or k in ("recall", "precision"):
        return +1
    # Recovery time is a timing whatever else the name says: the durability
    # suite charts *_recovery_seconds and a crash-recovery slowdown must be
    # flagged even if a future name picks up a higher-is-better substring.
    if k.endswith("_recovery_seconds"):
        return -1
    # The introspection plane's SLO scalars are lower-is-better by explicit
    # suffix: windowed latency quantiles and the error-budget burn rate.
    # Suffix precedence mirrors the recall rule — `*_p99_micros` stays a
    # latency even when the name also picks up a higher-is-better substring
    # (qps_p99_micros), and `*_burn_rate` has no direction substring at all
    # without this rule.
    if k.endswith(("_p50_micros", "_p99_micros", "_burn_rate")):
        return -1
    # Signing-cost scalars from the signature-engine ablation are ns/set by
    # construction. Explicit suffix precedence so the family name can never
    # flip the direction — `signing_<family>_sign_ns` stays a timing even
    # for a hypothetical family named after a higher-is-better substring
    # (e.g. `signing_qps_weighted_sign_ns`), where substring scanning would
    # depend on list order.
    if k.endswith("_sign_ns"):
        return -1
    # The churn suite's rebalance migration rate is a throughput: fewer
    # moves per second means a live reshard holds the index in its tagged
    # mid-rebalance state for longer. Explicit suffix so the rate can never
    # be mistaken for a neutral scalar (no generic substring matches it).
    if k.endswith("_moves_per_sec"):
        return +1
    if any(s in k for s in LOWER_IS_BETTER):
        return -1
    if any(s in k for s in HIGHER_IS_BETTER):
        return +1
    return 0


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(report, dict):
        print(f"bench_compare: {path}: not a JSON object", file=sys.stderr)
        sys.exit(2)
    return report


def numeric_scalars(report):
    out = {}
    for key, value in report.get("scalars", {}).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def env_summary(report):
    env = report.get("env", {})
    if not isinstance(env, dict):
        return "?"
    return "{} / {} / {} / simd={}".format(
        env.get("git_sha", "?"), env.get("compiler", "?"),
        env.get("cpu_model", "?"), env.get("simd", "?"))


def main(argv):
    threshold = 0.30
    advisory = False
    key_filters = []
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            try:
                threshold = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"bench_compare: bad threshold {arg!r}", file=sys.stderr)
                return 2
        elif arg == "--advisory":
            advisory = True
        elif arg.startswith("--keys="):
            key_filters = [s for s in arg.split("=", 1)[1].split(",") if s]
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            positional.append(arg)
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    base = load_report(positional[0])
    new = load_report(positional[1])

    for label, report, path in (("baseline", base, positional[0]),
                                ("new", new, positional[1])):
        version = report.get("schema_version")
        if version is None:
            print(f"note: {label} {path} has no schema_version (pre-v2)")
        print(f"{label}: bench={report.get('bench', '?')} "
              f"schema=v{version if version is not None else '?'} "
              f"env=[{env_summary(report)}]")
    base_env, new_env = env_summary(base), env_summary(new)
    if base_env != new_env and "?" not in (base_env, new_env):
        print("note: env fingerprints differ; deltas may reflect the machine, "
              "not the code")

    base_scalars = numeric_scalars(base)
    new_scalars = numeric_scalars(new)
    if key_filters:
        keep = lambda k: any(s in k for s in key_filters)  # noqa: E731
        base_scalars = {k: v for k, v in base_scalars.items() if keep(k)}
        new_scalars = {k: v for k, v in new_scalars.items() if keep(k)}

    only_base = sorted(set(base_scalars) - set(new_scalars))
    only_new = sorted(set(new_scalars) - set(base_scalars))
    if only_base:
        print(f"note: {len(only_base)} scalar(s) only in baseline: "
              f"{', '.join(only_base)}")
    if only_new:
        print(f"note: {len(only_new)} scalar(s) only in new: "
              f"{', '.join(only_new)}")

    shared = sorted(set(base_scalars) & set(new_scalars))
    if not shared:
        print("bench_compare: no shared numeric scalars to compare",
              file=sys.stderr)
        return 0 if advisory else 2

    regressions = []
    improvements = []
    print(f"\n{'metric':<34} {'baseline':>14} {'new':>14} {'delta':>9}")
    for key in shared:
        b, n = base_scalars[key], new_scalars[key]
        if b == 0.0:
            rel = 0.0 if n == 0.0 else float("inf")
        else:
            rel = (n - b) / abs(b)
        sense = direction(key)
        bad = sense != 0 and (-sense) * rel > threshold
        good = sense != 0 and sense * rel > threshold
        marker = " <-- REGRESSION" if bad else (" (improved)" if good else "")
        rel_text = f"{rel:+9.1%}" if rel != float("inf") else "     +inf"
        print(f"{key:<34} {b:>14.6g} {n:>14.6g} {rel_text}{marker}")
        if bad:
            regressions.append(key)
        elif good:
            improvements.append(key)

    print(f"\n{len(shared)} compared, {len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s), threshold {threshold:.0%}")
    if regressions:
        verb = "ADVISORY" if advisory else "FAIL"
        print(f"{verb}: regressions in {', '.join(regressions)}")
        return 0 if advisory else 1
    print("OK: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
