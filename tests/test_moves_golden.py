"""Golden transcripts of every move at every site on the zoo and its reversal.

Each move runs at every site of its kind on every zoo fixture and on the
fixture's time reversal.  A run contributes the emitted text of the result
plus its record kind and details, or else the :class:`MoveError` message.
The transcripts are pinned by one sha256 per move kind, so any change in
what a move produces, reports or refuses shows up here.
"""

import hashlib
import json

import pytest

from charfol import ELLIPTIC, EMBRYO, HYPERBOLIC, zoo
from charfol.cli import emit
from charfol.moves import (
    MoveError,
    create_pair,
    eliminate_embryo,
    eliminate_pair,
    resolve_connection,
    resolve_embryo,
)


def _graphs():
    for name in sorted(zoo.ZOO):
        g = zoo.example(name)
        yield name, g
        yield name + "~", g.reverse()


def _ids(g, kind):
    return sorted(p.id for p in g.points.values() if p.kind == kind)


def _sites(move_kind, g):
    """(label, thunk) for every site of one move kind on one graph."""
    if move_kind == "eliminate_pair":
        for e in _ids(g, ELLIPTIC):
            for h in _ids(g, HYPERBOLIC):
                yield f"{e} {h}", lambda e=e, h=h: eliminate_pair(g, e, h)
    elif move_kind in ("eliminate_embryo", "resolve_embryo"):
        move = eliminate_embryo if move_kind == "eliminate_embryo" else resolve_embryo
        for b in _ids(g, EMBRYO):
            yield b, lambda b=b: move(g, b)
    elif move_kind == "create_pair":
        for f in g.faces():
            for sign in (1, -1):
                yield f"{f.index} {sign:+d}", lambda i=f.index, s=sign: create_pair(g, i, s)
    else:
        for eid in sorted(g.edges):
            for side in ("left", "right"):
                yield f"{eid} {side}", lambda eid=eid, side=side: resolve_connection(
                    g, eid, side
                )


def transcript(move_kind: str) -> str:
    lines = []
    for name, g in _graphs():
        for label, run in _sites(move_kind, g):
            lines.append(f"## {name} {label}")
            try:
                res = run()
            except MoveError as exc:
                lines.append(f"MoveError: {exc}")
                continue
            lines.append(res.record.kind + " " + json.dumps(res.record.details, sort_keys=True))
            lines.append(emit(res.graph))
    return "\n".join(lines)


GOLDEN = {
    "eliminate_pair": "4579928614eee622da16a867f2a1c5442fcfd0b0045a428b9ca146ca40a413da",
    "eliminate_embryo": "17724974d1a797663db3772aa26e92d6a63ec09a6a16c837bdcdea936d4184d7",
    "resolve_embryo": "3ab530875d78ffbf0c505347b164df926d99fa39a6d8f5970d4113c59b1c6213",
    "create_pair": "86c519c656e8e37dfc1dfb5f84658c6818ce6e09e564e61f6423efde26708b04",
    "resolve_connection": "65e29bde72a3e9f4f8df7768adbfd4bab5efb3c0817e1f6cabe21dd9260bc27f",
}


@pytest.mark.parametrize("move_kind", sorted(GOLDEN))
def test_move_transcript_is_pinned(move_kind):
    digest = hashlib.sha256(transcript(move_kind).encode()).hexdigest()
    assert digest == GOLDEN[move_kind]
