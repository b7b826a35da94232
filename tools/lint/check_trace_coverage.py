#!/usr/bin/env python3
"""Trace-coverage gate for Perfetto/Chrome traces written by
`srsr_cli ... --trace-out` and the serve-protocol `tracefile` request
(src/obs/expfmt.cpp: complete "X" events, microsecond ts/dur, ids in
args).

For every span named `--root`, sums the wall time of its direct
children (events whose args.parent_id is the root's span_id), merging
overlapping child intervals and clipping them to the root, and divides
by the root's duration. A trace whose root is not accounted for down
to its first layer of stages fails: the uncovered share is time no
trace can place.

Exit code 0 when every root instance reaches `--min`, 1 with a
per-child listing otherwise (or when the root span is missing).
Used by scripts/ci.sh on a traced `srsr_cli rank`.

  check_trace_coverage.py trace.json --root cli.rank --min 0.95
"""

from __future__ import annotations

import argparse
import json
import sys


def merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def coverage(root: dict, events: list[dict]) -> tuple[float, list[dict]]:
    """(covered share of `root`, its direct children by start time)."""
    root_id = root["args"]["span_id"]
    start = root["ts"]
    end = start + root["dur"]
    children = sorted((e for e in events
                       if e.get("args", {}).get("parent_id") == root_id),
                      key=lambda e: e["ts"])
    clipped = [(max(c["ts"], start), min(c["ts"] + c["dur"], end))
               for c in children]
    covered = merged_length([(s, e) for s, e in clipped if e > s])
    share = covered / root["dur"] if root["dur"] > 0 else 1.0
    return share, children


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", help="Perfetto/Chrome trace JSON")
    ap.add_argument("--root", required=True,
                    help="name of the root span to account for")
    ap.add_argument("--min", type=float, default=0.95,
                    help="minimum share of the root covered by its direct "
                         "children (default 0.95)")
    args = ap.parse_args()

    with open(args.path, encoding="utf-8") as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    roots = [e for e in events if e["name"] == args.root]
    if not roots:
        print(f"check_trace_coverage: no span named '{args.root}' "
              f"in {args.path} ({len(events)} spans)")
        return 1

    failed = False
    for root in roots:
        share, children = coverage(root, events)
        ok = share >= args.min
        failed |= not ok
        print(f"check_trace_coverage: {args.root} {root['dur'] / 1e3:.3f} ms, "
              f"direct children cover {100 * share:.2f} % "
              f"(min {100 * args.min:.2f} %) {'ok' if ok else 'FAIL'}")
        if not ok:
            for c in children:
                print(f"  {c['name']:<32} {c['dur'] / 1e3:10.3f} ms "
                      f"{100 * c['dur'] / root['dur']:6.2f} %")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
