#!/usr/bin/env python3
"""End-to-end check that bench and example binaries reject negative counts.

Usage: test_bench_cli.py <bench_diversity binary> <quickstart binary>

Counts and seeds are registered as unsigned flags, so a negative value must
stop the binary before any work with "--<name> must be >= 0" instead of
wrapping to a huge count (bench_diversity --replications=-1 used to die
allocating 2^64 - 1 result slots).
"""

import subprocess
import sys


def main():
    bench_diversity, quickstart = sys.argv[1], sys.argv[2]
    failures = []
    for binary, flag in ((bench_diversity, "--replications"),
                         (quickstart, "--seed")):
        done = subprocess.run([binary, f"{flag}=-1"], capture_output=True,
                              text=True, timeout=60)
        expected = f"{flag} must be >= 0"
        if done.returncode == 0 or expected not in done.stderr:
            failures.append(f"{binary} {flag}=-1: exit {done.returncode}, "
                            f"stderr {done.stderr!r}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print("bench CLI checks passed")


if __name__ == "__main__":
    main()
