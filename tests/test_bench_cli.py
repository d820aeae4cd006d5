#!/usr/bin/env python3
"""End-to-end checks of bench and example command lines.

Usage: test_bench_cli.py <bench_ablation_replication binary> <quickstart binary>
                         <replay_tool binary>

Counts and seeds are registered as unsigned flags, so a negative value must
stop the binary before any work with "--<name> must be >= 0" instead of
wrapping to a huge count (a negative replication count once died
allocating 2^64 - 1 result slots).

replay_tool must run the replay commands of docs/experiments-guide.md, and
on bad input (a missing file, an unknown heuristic) print
"replay_tool: <reason>" and exit 2 rather than abort.
"""

import os
import shlex
import subprocess
import sys
import tempfile

GUIDE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "docs", "experiments-guide.md")


def guide_replay_commands():
    """The argument lists of the guide's `./build/examples/replay_tool`
    commands, with backslash continuations joined and comments dropped."""
    commands = []
    pending = None
    with open(GUIDE, encoding="utf-8") as guide:
        for line in guide:
            line = line.split("#", 1)[0].rstrip()
            if pending is None and line.startswith(
                    "./build/examples/replay_tool"):
                pending = ""
            if pending is None:
                continue
            pending += " " + line.rstrip("\\")
            if not line.endswith("\\"):
                commands.append(shlex.split(pending)[1:])
                pending = None
    return commands


def check_replay_tool(replay_tool, failures):
    """Runs the guide's replay commands and two bad inputs in a temporary
    working directory (the demo pair is written there)."""
    replay_tool = os.path.abspath(replay_tool)
    commands = guide_replay_commands()
    if len(commands) != 2:
        failures.append(f"{GUIDE}: expected 2 replay_tool commands, found "
                        f"{len(commands)}")
    with tempfile.TemporaryDirectory() as workdir:
        def run(*args):
            return subprocess.run([replay_tool, *args], capture_output=True,
                                  text=True, timeout=60, cwd=workdir)

        for args in commands:
            done = run(*args)
            if done.returncode != 0:
                failures.append(f"replay_tool {' '.join(args)}: exit "
                                f"{done.returncode}, stderr {done.stderr!r}")

        for args, expected in (
                (("--trace", "missing.trace"),
                 "cannot open file: missing.trace"),
                (("--heuristic", "genetic", "--mode", "batch"),
                 "unknown batch heuristic: genetic")):
            done = run(*args)
            if (done.returncode != 2
                    or not done.stderr.startswith("replay_tool: ")
                    or expected not in done.stderr
                    or "terminate called" in done.stderr):
                failures.append(f"replay_tool {' '.join(args)}: exit "
                                f"{done.returncode}, stderr {done.stderr!r}")


def main():
    bench_replication, quickstart, replay_tool = sys.argv[1:4]
    failures = []
    for binary, flag in ((bench_replication, "--seeds"),
                         (quickstart, "--seed")):
        done = subprocess.run([binary, f"{flag}=-1"], capture_output=True,
                              text=True, timeout=60)
        expected = f"{flag} must be >= 0"
        if done.returncode == 0 or expected not in done.stderr:
            failures.append(f"{binary} {flag}=-1: exit {done.returncode}, "
                            f"stderr {done.stderr!r}")
    check_replay_tool(replay_tool, failures)

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print("bench CLI checks passed")


if __name__ == "__main__":
    main()
