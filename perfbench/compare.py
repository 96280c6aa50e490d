#!/usr/bin/env python3
"""Compare two sets of benchmark results metric by metric.

Usage (from the repository root):

    python3 perfbench/compare.py before.txt after.txt

Each file holds the standard output of one or more runs of perfbench/run.py
(for example ``run.py ... --trace 1 >> after.txt`` repeated over seeds); every
line that parses as a result object counts as one run.  For each metric the
table lists the median and the first and third quartiles on each side, and the
ratio of the medians, so a change can show in which layer its saving sits.
"""

import argparse
import json
import statistics
import sys


def load(path: str) -> dict:
    """metric name -> (unit, list of values), over every result line."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if not isinstance(result, dict) or "metrics" not in result:
                continue
            for name, metric in result["metrics"].items():
                out.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    return out


def summary(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("no result lines found", file=sys.stderr)
        return 2
    print(f"{'metric':<52} {'unit':<6} {'before median [q1, q3]':>36} "
          f"{'after median [q1, q3]':>36} {'after/before':>12}")
    for name in list(before) + [n for n in after if n not in before]:
        cells = []
        medians = []
        for side in (before, after):
            if name in side:
                q1, med, q3 = summary(side[name][1])
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(side[name][1])})")
                medians.append(med)
            else:
                cells.append("-")
        ratio = f"{medians[1] / medians[0]:.4f}" if len(medians) == 2 and medians[0] else "-"
        unit = (before.get(name) or after.get(name))[0]
        print(f"{name:<52} {unit:<6} {cells[0]:>36} {cells[1]:>36} {ratio:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
