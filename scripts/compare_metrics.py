#!/usr/bin/env python3
"""Compare the deterministic part of two `--metrics-out` JSON dumps.

A dump holds counters, gauges and histograms.  Counters, gauges and each
histogram's sample count follow from the work a run does, so two runs of
the same specs and seeds must agree on them at any worker count, and a
change that claims to leave the work alone must leave them alone.  A
histogram's sum, minimum, maximum, mean and buckets measure time, so they
are ignored.

Usage:
  scripts/compare_metrics.py A.json B.json
  scripts/compare_metrics.py --self-test

Prints one line per difference and a summary.  Exit codes: 0 = every
counter, gauge and histogram count agrees; 1 = one differs or is missing on
one side; 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path


def deterministic_values(doc: dict) -> dict[str, float]:
    """Maps 'counter NAME', 'gauge NAME' and 'histogram NAME count' to
    their values."""
    out: dict[str, float] = {}
    for name, value in doc.get("counters", {}).items():
        out[f"counter {name}"] = value
    for name, value in doc.get("gauges", {}).items():
        out[f"gauge {name}"] = value
    for name, histogram in doc.get("histograms", {}).items():
        out[f"histogram {name} count"] = histogram["count"]
    return out


def differences(a: dict, b: dict) -> list[str]:
    """One line per key whose value differs or that one side lacks."""
    va = deterministic_values(a)
    vb = deterministic_values(b)
    lines = []
    for key in sorted(va.keys() | vb.keys()):
        left = va.get(key, "missing")
        right = vb.get(key, "missing")
        if left != right:
            lines.append(f"{key}: {left} != {right}")
    return lines


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"error: {path} is not a metrics dump", file=sys.stderr)
        sys.exit(2)
    return doc


def compare(path_a: Path, path_b: Path) -> int:
    a = load(path_a)
    b = load(path_b)
    try:
        lines = differences(a, b)
    except (AttributeError, KeyError, TypeError) as err:
        print(f"error: malformed metrics dump: {err!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    counts = deterministic_values(a)
    kinds = {kind: sum(1 for k in counts if k.startswith(kind))
             for kind in ("counter", "gauge", "histogram")}
    if lines:
        print(f"FAILED: {len(lines)} difference(s) between {path_a} and "
              f"{path_b}", file=sys.stderr)
        return 1
    print(f"OK: {kinds['counter']} counters, {kinds['gauge']} gauges and "
          f"{kinds['histogram']} histogram counts agree")
    return 0


def self_test() -> int:
    base = {
        "counters": {"des.events_executed": 15000, "lab.units_run": 100},
        "gauges": {"des.heap_depth_max": 1},
        "histograms": {"lab.unit_ns": {"count": 100, "sum": 9000,
                                       "min": 10, "max": 900,
                                       "mean": 90.0,
                                       "buckets": [0, 100, 0]}},
    }

    def variant(edit) -> dict:
        doc = json.loads(json.dumps(base))
        edit(doc)
        return doc

    def retime(doc):
        doc["histograms"]["lab.unit_ns"].update(
            sum=1, min=1, max=1, mean=0.01, buckets=[100, 0, 0])

    cases = [
        ("identical", base, 0),
        ("timings only", variant(retime), 0),
        ("counter", variant(
            lambda d: d["counters"].update({"lab.units_run": 99})), 1),
        ("gauge", variant(
            lambda d: d["gauges"].update({"des.heap_depth_max": 12})), 1),
        ("histogram count", variant(
            lambda d: d["histograms"]["lab.unit_ns"].update(count=99)), 1),
        ("missing counter", variant(
            lambda d: d["counters"].pop("lab.units_run")), 1),
        ("extra histogram", variant(
            lambda d: d["histograms"].update(
                {"sim.trms_run_ns": {"count": 1}})), 1),
        ("histogram without a count", variant(
            lambda d: d["histograms"]["lab.unit_ns"].pop("count")), 2),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path_a = Path(tmp) / "a.json"
        path_a.write_text(json.dumps(base))
        for name, doc, want in cases:
            path_b = Path(tmp) / "b.json"
            path_b.write_text(json.dumps(doc))
            got = compare(path_a, path_b)
            verdict = "PASS" if got == want else "FAIL"
            failures += got != want
            print(f"self-test: {verdict} {name} (exit {got}, want {want})")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, nargs="?", help="first metrics dump")
    parser.add_argument("b", type=Path, nargs="?", help="second metrics dump")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on built-in dumps")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.a is None or args.b is None:
        parser.print_usage(sys.stderr)
        return 2
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
