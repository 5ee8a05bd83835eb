#!/usr/bin/env python3
"""Sweep every strict saddle ordering of every small instance.

Reports, per saddle signature and in total: orderings tried, how many tame,
how many of those are simple, and whether any sublevel component ever shows
a source surplus other than one.  This is the survey behind the frozen
counts in the acceptance suite.

    python3 scripts/survey_tightness.py --max-saddles 3
"""

import argparse
import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from charfol.invariants import surplus
from charfol.model import HYPERBOLIC
from charfol.taming import levels, normalized_assignment, simplicity_check
from charfol.tightness import universe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-saddles", type=int, default=3)
    args = ap.parse_args()

    start = time.monotonic()
    header = f"{'signature':>10}  {'orderings':>9}  {'taming':>6}  {'simple':>6}  {'bad d+':>6}"
    print(header)
    totals = [0, 0, 0, 0]
    for sig, graphs in sorted(universe(args.max_saddles).items()):
        row = [0, 0, 0, 0]
        for g in graphs:
            saddles = sorted(p.id for p in g.points.values() if p.kind == HYPERBOLIC)
            for perm in itertools.permutations(saddles):
                row[0] += 1
                a = normalized_assignment(g, list(perm))
                report = simplicity_check(g, a)
                if not report.taming:
                    continue
                row[1] += 1
                row[2] += report.circle_simple
                # the region below each level but the lowest is the sublevel
                # set at one regular threshold
                for _, region, _ in itertools.islice(levels(g, a), 1, None):
                    members = {}
                    for pid, root in region.components().items():
                        members.setdefault(root, []).append(g.points[pid])
                    row[3] += sum(surplus(ps)[0] != 1 for ps in members.values())
        print(f"{str(sig):>10}  {row[0]:>9}  {row[1]:>6}  {row[2]:>6}  {row[3]:>6}")
        totals = [x + y for x, y in zip(totals, row)]
    print(f"{'total':>10}  {totals[0]:>9}  {totals[1]:>6}  {totals[2]:>6}  {totals[3]:>6}")
    print(f"swept in {time.monotonic() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
