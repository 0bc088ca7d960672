#!/usr/bin/env python3
"""Compare bench throughput between two builds or modes; fail on regression.

The overhead gates, all held to the same discipline (CI runs one
matrix job per gate):

  * obs: span macros compiled in (tracing not enabled at runtime) must
    stay within --threshold of a build with them compiled out
    (MEMFRONT_OBS=OFF); key single_run_events_per_sec (bench_perf).
  * faults: fault-injection sites compiled in (no plan armed) must stay
    within --threshold of a build with them compiled out
    (MEMFRONT_FAULTS=OFF); key single_run_events_per_sec (bench_perf).
  * sched: dynamic, policy-consulted dispatch (stealing on) must stay
    within --threshold of determinism mode (steal=off) in the same
    build; key sched_factor_entries_per_sec (bench_numeric
    --sched-probe dynamic vs static).

Both sides take one or more BENCH_*.json files (repeat runs); the best
rate per side is compared, which filters scheduler noise the way
best-of-N timing always has.

usage: check_overhead.py --baseline off1.json [off2.json ...]
                         --candidate on1.json [on2.json ...]
                         [--key single_run_events_per_sec]
                         [--threshold 0.02]
                         [--label obs]
"""
import argparse
import json
import sys


def best_rate(paths, key):
    rates = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if key not in doc:
            raise SystemExit(f"{path}: no {key!r} field")
        rates.append(float(doc[key]))
    return max(rates)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", nargs="+", required=True,
                    help="JSON files from the feature-free build or mode")
    ap.add_argument("--candidate", nargs="+", required=True,
                    help="JSON files from the default build or mode")
    ap.add_argument("--key", default="single_run_events_per_sec")
    ap.add_argument("--threshold", type=float, default=0.02,
                    help="maximum fractional slowdown (default 2%%)")
    ap.add_argument("--label", default="instrumentation",
                    help="which gate this is (obs, faults, ooc, sched) "
                         "-- used in messages only")
    args = ap.parse_args()

    baseline = best_rate(args.baseline, args.key)
    candidate = best_rate(args.candidate, args.key)
    overhead = (baseline - candidate) / baseline
    print(f"[{args.label}] {args.key}: baseline {baseline:,.0f}/s, "
          f"candidate {candidate:,.0f}/s, overhead {overhead:+.2%} "
          f"(threshold {args.threshold:.0%})")
    if overhead > args.threshold:
        print(f"FAIL: {args.label} overhead above threshold",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
