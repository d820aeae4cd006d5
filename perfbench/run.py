#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the result JSON.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_tables", "campaigns_journaled", "grid_scale")
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "Makefile").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as error:
            fail(f"build failed: {error}")
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plan", action="store_true",
                        help="print the inputs derived from the seed and exit")
    parser.add_argument("--wrong-digest", action="store_true",
                        help="self-test: corrupt the expected grid digest")
    args = parser.parse_args()
    if args.seconds is None and not args.plan:
        parser.error("--seconds is required")

    out = build_root()
    driver = build(out / "perfbench")
    command = [str(driver), "--workload", args.workload, "--seed",
               str(args.seed), "--trace", str(args.trace), "--out-dir",
               str(out / "perfbench-out")]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.plan:
        command.append("--plan")
    if args.wrong_digest:
        command.append("--wrong-digest")
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
