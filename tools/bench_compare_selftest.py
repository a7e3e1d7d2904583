#!/usr/bin/env python3
"""Self-test for bench_compare.py, run under ctest.

Exercises the exit-code contract on synthetic trajectory points:
  * identical inputs            -> exit 0
  * 2x slowdown on timing keys  -> exit 1 (regression)
  * same, with --advisory       -> exit 0
  * recall halved               -> exit 1 (higher-is-better direction)
  * batch QPS / speedup halved  -> exit 1 (higher-is-better direction)
  * merge overhead doubled      -> exit 1 (lower-is-better direction)
  * *_recall / *_precision suffixed names halved -> exit 1 (suffix wins
    over timing substrings)
  * recall-flavoured *_seconds name doubled -> exit 1 (still a timing)
  * *_recovery_seconds doubled -> exit 1 (explicit lower-is-better suffix)
  * durability ops/sec halved -> exit 1 (higher-is-better direction)
  * *_p50_micros / *_p99_micros doubled -> exit 1 (SLO latency suffixes,
    lower-is-better even when the name contains a throughput substring)
  * *_burn_rate tripled -> exit 1 (error-budget burn, lower-is-better)
  * churn suite directions: mutation ops/sec and rebalance *_moves_per_sec
    halved -> exit 1 (throughputs), reader *_p99_micros doubled -> exit 1
  * signing ns drop under another SIMD kernel level -> exit 0, and the
    env summaries name both levels
  * legacy point (no schema_version/env, missing scalar) -> exit 0
"""

import json
import os
import subprocess
import sys
import tempfile

BASE = {
    "schema_version": 2,
    "bench": "selftest",
    "env": {"git_sha": "abc", "compiler": "gcc", "cpu_model": "cpu",
            "num_cores": 1, "governor": "performance", "os": "linux",
            "simd": "avx2"},
    "params": {"quick": True},
    "scalars": {
        "micro_jaccard_ns": 100.0,
        "fig7_avg_index_total_seconds": 0.5,
        "fig7_overall_recall": 0.9,
        "qc_avg_candidates": 8.0,
        "query_throughput_t4_modeled_qps": 2000.0,
        "build_scaling_t4_speedup": 3.0,
        "shard_scaling_p4_merge_overhead": 0.05,
        "replay_observed_recall": 0.95,
        "replay_candidate_precision": 0.8,
        "replay_recall_estimator_seconds": 0.2,
        "durability_full_log_recovery_seconds": 0.1,
        "durability_sync_every_record_ops_per_sec": 5000.0,
        "introspection_query_p50_micros": 50.0,
        "introspection_query_p99_micros": 200.0,
        "introspection_availability_burn_rate": 0.1,
        "qps_p99_micros": 120.0,
        "signing_classic_sign_ns": 25000.0,
        "signing_superminhash_sign_large_ns": 30000.0,
        "qps_weighted_sign_ns": 40.0,
        "signing_classic_recall": 0.75,
        "churn_mutation_ops_per_sec": 8000.0,
        "churn_reader_p99_micros": 900.0,
        "churn_rebalance_moves_per_sec": 1200.0,
    },
}


def run(compare, *argv):
    proc = subprocess.run([sys.executable, compare, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write(directory, name, report):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return path


def main():
    if len(sys.argv) != 2:
        print("usage: bench_compare_selftest.py <bench_compare.py>")
        return 2
    compare = sys.argv[1]
    failures = []

    def check(label, want_rc, got_rc, output):
        if got_rc != want_rc:
            failures.append(f"{label}: want exit {want_rc}, got {got_rc}\n"
                            f"{output}")

    with tempfile.TemporaryDirectory() as tmp:
        base = write(tmp, "base.json", BASE)

        rc, out = run(compare, base, base)
        check("identical", 0, rc, out)

        slow = json.loads(json.dumps(BASE))
        slow["scalars"]["micro_jaccard_ns"] *= 2
        slow["scalars"]["fig7_avg_index_total_seconds"] *= 2
        slow_path = write(tmp, "slow.json", slow)
        rc, out = run(compare, base, slow_path)
        check("2x slowdown", 1, rc, out)
        if "REGRESSION" not in out:
            failures.append(f"2x slowdown: no REGRESSION marker\n{out}")

        rc, out = run(compare, "--advisory", base, slow_path)
        check("advisory", 0, rc, out)

        worse_recall = json.loads(json.dumps(BASE))
        worse_recall["scalars"]["fig7_overall_recall"] = 0.4
        rc, out = run(compare, base,
                      write(tmp, "recall.json", worse_recall))
        check("recall drop", 1, rc, out)

        worse_qps = json.loads(json.dumps(BASE))
        worse_qps["scalars"]["query_throughput_t4_modeled_qps"] = 900.0
        worse_qps["scalars"]["build_scaling_t4_speedup"] = 1.2
        rc, out = run(compare, base, write(tmp, "qps.json", worse_qps))
        check("qps/speedup drop", 1, rc, out)

        worse_merge = json.loads(json.dumps(BASE))
        worse_merge["scalars"]["shard_scaling_p4_merge_overhead"] = 0.15
        rc, out = run(compare, base,
                      write(tmp, "merge.json", worse_merge))
        check("merge overhead growth", 1, rc, out)

        # Suffix precedence: a *_recall / *_precision name is
        # higher-is-better even though "recall" alone would also match as a
        # substring elsewhere in a timing-flavoured name.
        worse_observed = json.loads(json.dumps(BASE))
        worse_observed["scalars"]["replay_observed_recall"] = 0.45
        worse_observed["scalars"]["replay_candidate_precision"] = 0.4
        rc, out = run(compare, base,
                      write(tmp, "observed.json", worse_observed))
        check("observed recall/precision drop", 1, rc, out)

        # ...and a recall-flavoured timing is still lower-is-better: the
        # "seconds" substring must win when the quality suffix is absent.
        slower_oracle = json.loads(json.dumps(BASE))
        slower_oracle["scalars"]["replay_recall_estimator_seconds"] = 0.5
        rc, out = run(compare, base,
                      write(tmp, "oracle.json", slower_oracle))
        check("recall-named timing growth", 1, rc, out)

        # The durability suite's direction contract: recovery time is
        # lower-is-better by explicit suffix rule, churned ops/sec is
        # higher-is-better.
        slow_recovery = json.loads(json.dumps(BASE))
        slow_recovery["scalars"]["durability_full_log_recovery_seconds"] = 0.3
        rc, out = run(compare, base,
                      write(tmp, "recovery.json", slow_recovery))
        check("recovery time growth", 1, rc, out)

        slow_churn = json.loads(json.dumps(BASE))
        slow_churn["scalars"]["durability_sync_every_record_ops_per_sec"] = \
            2000.0
        rc, out = run(compare, base,
                      write(tmp, "churn.json", slow_churn))
        check("durable churn throughput drop", 1, rc, out)

        # The SLO suffix family: latency quantiles are lower-is-better even
        # when the key also contains a higher-is-better substring ("_qps"
        # inside qps_p99_micros), and burn rate growth is a regression.
        slow_p99 = json.loads(json.dumps(BASE))
        slow_p99["scalars"]["introspection_query_p50_micros"] = 100.0
        slow_p99["scalars"]["introspection_query_p99_micros"] = 400.0
        rc, out = run(compare, base, write(tmp, "p99.json", slow_p99))
        check("SLO latency quantile growth", 1, rc, out)

        slow_qps_p99 = json.loads(json.dumps(BASE))
        slow_qps_p99["scalars"]["qps_p99_micros"] = 240.0
        rc, out = run(compare, base,
                      write(tmp, "qps_p99.json", slow_qps_p99))
        check("p99 suffix wins over qps substring", 1, rc, out)

        burn = json.loads(json.dumps(BASE))
        burn["scalars"]["introspection_availability_burn_rate"] = 0.3
        rc, out = run(compare, base, write(tmp, "burn.json", burn))
        check("burn rate growth", 1, rc, out)

        better_burn = json.loads(json.dumps(BASE))
        better_burn["scalars"]["introspection_availability_burn_rate"] = 0.01
        rc, out = run(compare, base,
                      write(tmp, "burn_down.json", better_burn))
        check("burn rate drop is an improvement", 0, rc, out)

        # Signature-engine suffix rule: *_sign_ns is lower-is-better even
        # when the key also carries a higher-is-better substring ("_qps"
        # inside qps_weighted_sign_ns), and the per-family ablation recall
        # keeps the quality direction despite the "signing_" timing prefix.
        slow_sign = json.loads(json.dumps(BASE))
        slow_sign["scalars"]["signing_classic_sign_ns"] = 60000.0
        slow_sign["scalars"]["signing_superminhash_sign_large_ns"] = 90000.0
        rc, out = run(compare, base, write(tmp, "sign.json", slow_sign))
        check("sign ns growth", 1, rc, out)

        slow_qps_sign = json.loads(json.dumps(BASE))
        slow_qps_sign["scalars"]["qps_weighted_sign_ns"] = 100.0
        rc, out = run(compare, base,
                      write(tmp, "qps_sign.json", slow_qps_sign))
        check("sign_ns suffix wins over qps substring", 1, rc, out)

        worse_fam_recall = json.loads(json.dumps(BASE))
        worse_fam_recall["scalars"]["signing_classic_recall"] = 0.3
        rc, out = run(compare, base,
                      write(tmp, "fam_recall.json", worse_fam_recall))
        check("family ablation recall drop", 1, rc, out)

        # Churn suite direction contract: both rates are throughputs
        # (higher-is-better — _moves_per_sec by explicit suffix, since no
        # generic substring matches it), the reader quantile rides the
        # existing *_p99_micros latency suffix.
        slow_mutate = json.loads(json.dumps(BASE))
        slow_mutate["scalars"]["churn_mutation_ops_per_sec"] = 3000.0
        slow_mutate["scalars"]["churn_rebalance_moves_per_sec"] = 400.0
        rc, out = run(compare, base,
                      write(tmp, "mutate.json", slow_mutate))
        check("churn throughput drop", 1, rc, out)

        slow_reader = json.loads(json.dumps(BASE))
        slow_reader["scalars"]["churn_reader_p99_micros"] = 2500.0
        rc, out = run(compare, base,
                      write(tmp, "reader.json", slow_reader))
        check("churn reader p99 growth", 1, rc, out)

        faster_moves = json.loads(json.dumps(BASE))
        faster_moves["scalars"]["churn_rebalance_moves_per_sec"] = 3000.0
        rc, out = run(compare, base,
                      write(tmp, "moves_up.json", faster_moves))
        check("rebalance rate gain is an improvement", 0, rc, out)

        # A sign_ns drop from a wider kernel: the env summary names both
        # kernel levels, so the delta reads as a machine difference.
        faster_sign = json.loads(json.dumps(BASE))
        faster_sign["scalars"]["signing_classic_sign_ns"] = 6000.0
        faster_sign["env"]["simd"] = "avx512"
        rc, out = run(compare, base,
                      write(tmp, "sign_down.json", faster_sign))
        check("sign ns drop is an improvement", 0, rc, out)
        if ("simd=avx2" not in out or "simd=avx512" not in out
                or "env fingerprints differ" not in out):
            failures.append(f"kernel level: not in the env summary\n{out}")

        legacy = {"bench": "selftest",
                  "scalars": {"micro_jaccard_ns": 101.0}}
        rc, out = run(compare, write(tmp, "legacy.json", legacy), base)
        check("legacy point", 0, rc, out)
        if "no schema_version" not in out:
            failures.append(f"legacy point: missing pre-v2 note\n{out}")

    if failures:
        print("bench_compare_selftest FAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("bench_compare_selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
