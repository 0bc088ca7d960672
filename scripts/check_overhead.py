#!/usr/bin/env python3
"""Compare bench throughput between two modes; fail on regression.

CI's sched overhead gate: dynamic, policy-consulted dispatch (stealing
on) must stay within --threshold of determinism mode (steal=off) in the
same build; key sched_factor_entries_per_sec (bench_numeric
--sched-probe dynamic vs static).

Both sides take one or more BENCH_*.json files (repeat runs); the best
rate per side is compared, which filters scheduler noise the way
best-of-N timing always has.

usage: check_overhead.py --baseline static1.json [static2.json ...]
                         --candidate dynamic1.json [dynamic2.json ...]
                         [--key sched_factor_entries_per_sec]
                         [--threshold 0.02]
                         [--label sched]
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
                    help="JSON files from the baseline mode")
    ap.add_argument("--candidate", nargs="+", required=True,
                    help="JSON files from the candidate mode")
    ap.add_argument("--key", default="sched_factor_entries_per_sec")
    ap.add_argument("--threshold", type=float, default=0.02,
                    help="maximum fractional slowdown (default 2%%)")
    ap.add_argument("--label", default="sched",
                    help="which gate this is -- used in messages only")
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
