#!/usr/bin/env python3
"""End-to-end checks of gridtrust_lab's count flags and seed recording.

Usage: test_lab_cli.py <path to the gridtrust_lab binary>

- A seed above 2^53 is recorded digit for digit, so a rerun from the seed
  read back out of the manifest reproduces the manifest byte for byte, and
  `compare` accepts it.
- Negative --seed, --jobs and --replications are rejected before any work.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(lab, *args):
    return subprocess.run([lab, *args], capture_output=True, text=True,
                          timeout=120)


def main():
    lab = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first.json"
        second = Path(tmp) / "second.json"
        seed = 2**53 + 1
        done = run(lab, "run", "table4", "--seed", str(seed),
                   "--replications", "2", "--jobs", "1", "--out", str(first))
        if done.returncode != 0:
            failures.append(f"run --seed {seed} exited {done.returncode}: "
                            f"{done.stderr}")
        else:
            text = first.read_text()
            recorded = json.loads(text)["seed"]
            if f'"seed":{seed},' not in text or recorded != seed:
                failures.append(f"manifest records seed {recorded}, "
                                f"not {seed}")
            rerun = run(lab, "run", "table4", "--seed", str(recorded),
                        "--replications", "2", "--jobs", "1", "--out",
                        str(second))
            if rerun.returncode != 0 or second.read_text() != text:
                failures.append("a rerun from the recorded seed gave a "
                                "different manifest")
            compared = run(lab, "compare", str(second), str(first))
            if compared.returncode != 0:
                failures.append("compare rejected the rerun: " +
                                (compared.stdout + compared.stderr)
                                .splitlines()[0])

        for flag in ("--seed", "--jobs", "--replications"):
            out = Path(tmp) / f"negative{flag}.json"
            done = run(lab, "run", "table4", flag, "-1", "--out", str(out))
            expected = f"{flag} must be >= 0"
            if done.returncode == 0 or expected not in done.stderr:
                failures.append(f"{flag} -1: exit {done.returncode}, "
                                f"stderr {done.stderr!r}")
            if out.exists():
                failures.append(f"{flag} -1 still wrote a manifest")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print("lab CLI checks passed")


if __name__ == "__main__":
    main()
