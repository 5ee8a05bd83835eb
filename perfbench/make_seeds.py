#!/usr/bin/env python3
"""Write the universe classes the growth workloads start from.

Enumerating the three-saddle universe takes several seconds, too long for the
benchmark's set-up, so the classes it needs are kept as documents:

* ``seeds/tight.fol``: the 23 tight classes;
* ``seeds/untameable.fol``: the 13 classes with point surplus (1, 1) that no
  saddle order tames.

Run from the repository root to regenerate them::

    python3 perfbench/make_seeds.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from charfol.cli import emit  # noqa: E402
from charfol.invariants import point_surplus  # noqa: E402
from charfol.tightness import decide_tightness, universe  # noqa: E402


def main() -> int:
    tight, untameable = [], []
    for sig, graphs in sorted(universe(3).items()):
        for g in graphs:
            if decide_tightness(g).tight:
                tight.append((sig, g))
            elif point_surplus(g) == (1, 1):
                untameable.append((sig, g))
    if (len(tight), len(untameable)) != (23, 13):
        raise SystemExit(f"unexpected universe: {len(tight)} tight, {len(untameable)} untameable")
    out = pathlib.Path(__file__).resolve().parent / "seeds"
    for name, rows in (("tight", tight), ("untameable", untameable)):
        text = "".join(
            f"# {name} class {i}, saddle signature {sig}\n{emit(g)}"
            for i, (sig, g) in enumerate(rows)
        )
        (out / f"{name}.fol").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
