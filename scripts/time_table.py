#!/usr/bin/env python3
"""Turns traced performance-ledger runs into a "where the time goes" table.

Usage (from anywhere):
  scripts/time_table.py --column LABEL SPANS.jsonl [SPANS.jsonl ...] \\
      [--column LABEL SPANS.jsonl ...]

Each SPANS.jsonl is the span dump of one `ledger --trace 1` run
(`ledger_<workload>.spans.jsonl`). A run's shuffles are its root spans (the
ones with no parent). For every span name the script counts calls per
shuffle and self milliseconds per shuffle, self time being a span's
duration minus the durations of its direct children. A column averages
these over its runs, so `--column parent p1 p2 --column change c1 c2` puts
two builds side by side, two runs each.

Prints a Markdown table, one row per span name, ordered by the first
column's self time, with a total row. The calls column comes from the first
column; a name whose calls per shuffle differ by more than 1% in another
column is reported on stderr, since then the builds did not run the same
operations.
"""
import argparse
import collections
import json
import sys


def load(path):
    """Calls and self microseconds per span name, and the number of roots."""
    spans = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                s = json.loads(line)
                spans[s["span"]] = s
    child_us = collections.Counter()
    roots = 0
    for s in spans.values():
        if s["parent"] in spans:
            child_us[s["parent"]] += s["end_us"] - s["start_us"]
        else:
            roots += 1
    calls = collections.Counter()
    self_us = collections.Counter()
    for sid, s in spans.items():
        calls[s["name"]] += 1
        self_us[s["name"]] += s["end_us"] - s["start_us"] - child_us[sid]
    if roots == 0:
        sys.exit(f"time_table.py: {path} holds no spans")
    return calls, self_us, roots


def column(paths):
    """Mean calls and self ms per shuffle, per span name, over the runs."""
    calls = collections.defaultdict(float)
    self_ms = collections.defaultdict(float)
    for path in paths:
        c, us, roots = load(path)
        for name in c:
            calls[name] += c[name] / roots / len(paths)
            self_ms[name] += us[name] / 1000.0 / roots / len(paths)
    return calls, self_ms


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--column", nargs="+", action="append", required=True,
                        metavar=("LABEL", "SPANS"),
                        help="a column label followed by one or more span dumps")
    args = parser.parse_args()
    if any(len(c) < 2 for c in args.column):
        parser.error("each --column needs a label and at least one span dump")

    labels = [c[0] for c in args.column]
    columns = [column(c[1:]) for c in args.column]
    first_calls, first_ms = columns[0]
    names = sorted({n for _, ms in columns for n in ms},
                   key=lambda n: (-first_ms.get(n, 0.0), n))

    for label, (calls, _) in zip(labels[1:], columns[1:]):
        for n in names:
            a, b = first_calls.get(n, 0.0), calls.get(n, 0.0)
            if abs(a - b) > 0.01 * max(a, b):
                print(f"time_table.py: {n}: {a:.2f} calls per shuffle in {labels[0]}, "
                      f"{b:.2f} in {label}", file=sys.stderr)

    print("| layer | span | calls per shuffle | "
          + " | ".join(f"self ms per shuffle, {label}" for label in labels) + " |")
    print("|---|---|---|" + "---|" * len(labels))
    for n in names:
        cells = [f"{ms.get(n, 0.0):.2f}" for _, ms in columns]
        print(f"| {n.split('.')[0]} | `{n}` | {first_calls.get(n, 0.0):.2f} | "
              + " | ".join(cells) + " |")
    totals = [f"**{sum(ms.values()):.2f}**" for _, ms in columns]
    print("| **total** | | | " + " | ".join(totals) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
