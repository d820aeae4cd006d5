#!/usr/bin/env python3
"""End-to-end checks of gridtrust_lab's count flags and seed recording.

Usage: test_lab_cli.py <path to the gridtrust_lab binary>

- Seeds above 2^53, up to 2^64 - 1, are recorded digit for digit, so a
  rerun from the seed read back out of the manifest reproduces the manifest
  byte for byte, and `compare` accepts it.
- Negative --seed, --jobs and --replications are rejected before any work,
  as are a --seed of 2^64 or with non-digits, and a negative or non-finite
  --unit-deadline.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(lab, *args):
    return subprocess.run([lab, *args], capture_output=True, text=True,
                          timeout=120)


def check_seed_round_trip(lab, tmp, seed):
    """Runs table4 at `seed`, then reruns from the seed the manifest
    records; returns the failures."""
    first = tmp / f"first_{seed}.json"
    second = tmp / f"second_{seed}.json"
    done = run(lab, "run", "table4", "--seed", str(seed),
               "--replications", "2", "--jobs", "1", "--out", str(first))
    if done.returncode != 0:
        return [f"run --seed {seed} exited {done.returncode}: {done.stderr}"]
    failures = []
    text = first.read_text()
    recorded = json.loads(text)["seed"]
    if f'"seed":{seed},' not in text or recorded != seed:
        failures.append(f"manifest records seed {recorded}, not {seed}")
    rerun = run(lab, "run", "table4", "--seed", str(recorded),
                "--replications", "2", "--jobs", "1", "--out", str(second))
    if rerun.returncode != 0 or second.read_text() != text:
        failures.append(f"a rerun from the recorded seed {recorded} gave a "
                        "different manifest")
    compared = run(lab, "compare", str(second), str(first))
    if compared.returncode != 0:
        failures.append("compare rejected the rerun: " +
                        (compared.stdout + compared.stderr).splitlines()[0])
    return failures


def main():
    lab = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (2**53 + 1, 2**63, 2**64 - 1):
            failures += check_seed_round_trip(lab, Path(tmp), seed)

        for flag in ("--seed", "--jobs", "--replications"):
            out = Path(tmp) / f"negative{flag}.json"
            done = run(lab, "run", "table4", flag, "-1", "--out", str(out))
            expected = f"{flag} must be >= 0"
            if done.returncode == 0 or expected not in done.stderr:
                failures.append(f"{flag} -1: exit {done.returncode}, "
                                f"stderr {done.stderr!r}")
            if out.exists():
                failures.append(f"{flag} -1 still wrote a manifest")

        for flag, value in (("--seed", str(2**64)), ("--seed", "12a"),
                            ("--unit-deadline", "-1"),
                            ("--unit-deadline", "nan")):
            out = Path(tmp) / "rejected.json"
            done = run(lab, "run", "table4", flag, value, "--out", str(out))
            if done.returncode == 0:
                failures.append(f"{flag} {value} was accepted")
            if out.exists():
                failures.append(f"{flag} {value} still wrote a manifest")
                out.unlink()

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print("lab CLI checks passed")


if __name__ == "__main__":
    main()
