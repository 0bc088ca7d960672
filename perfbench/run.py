#!/usr/bin/env python3
"""Build memfront and the perfbench binary from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lu-incore --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); build output goes to stderr. Spill files
of the budgeted workload go to a per-process directory under the build root,
removed on exit. With --trace 1 the spans and the layer table are written to
<build root>/spans/<workload>-seed<N>.json. The last line of stdout is the
binary's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lu-incore", "ldlt-ooc", "paper-sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    spill_dir = os.path.join(build_root, "spill", str(os.getpid()))
    os.makedirs(spill_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
