#!/usr/bin/env python3
"""Tabulate the instance universe by saddle signature.

For each (positive, negative) saddle count up to the bound, print how many
isomorphism classes exist, how many decide tight, and on how many the
decision procedure and the exhaustive oracle agree.  With ``--dump DIR``
every instance is also written as a document, named by signature and index.

    python3 scripts/enumerate_universe.py --max-saddles 3
    python3 scripts/enumerate_universe.py --max-saddles 2 --dump /tmp/universe
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from charfol.cli import emit
from charfol.tightness import decide_tightness, oracle_tightness, universe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-saddles", type=int, default=3)
    ap.add_argument("--dump", metavar="DIR", help="write every instance as a document")
    args = ap.parse_args()

    start = time.monotonic()
    by_sig = universe(args.max_saddles)
    built = time.monotonic() - start

    dump_dir = None
    if args.dump:
        dump_dir = pathlib.Path(args.dump)
        dump_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'signature':>10}  {'classes':>7}  {'tight':>5}  {'agree':>5}")
    total = total_tight = total_agree = 0
    for sig, graphs in sorted(by_sig.items()):
        tight = agree = 0
        for i, g in enumerate(graphs):
            cert = decide_tightness(g)
            tight += cert.tight
            agree += cert.tight == oracle_tightness(g)["tight"]
            if dump_dir is not None:
                name = f"h{sig[0]}p{sig[1]}n_{i:03d}_{cert.verdict}.fol"
                (dump_dir / name).write_text(emit(g))
        print(f"{str(sig):>10}  {len(graphs):>7}  {tight:>5}  {agree:>5}")
        total += len(graphs)
        total_tight += tight
        total_agree += agree
    print(f"{'total':>10}  {total:>7}  {total_tight:>5}  {total_agree:>5}")
    print(f"built in {built:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
