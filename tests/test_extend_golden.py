"""Golden transcripts of ``tame --json`` and ``extend --json``.

Every zoo fixture and a few ``create_pair``-grown tight spheres of 10 to 16
saddles go through both commands with four value sets: none (so the command
synthesizes), the values of the synthesized order (of the sorted saddle ids
when there is none), every saddle tied at one level, and that order
reversed.  The overtwisted fixtures and the last two value sets reach the
refusals of the taming, simplicity and extension checks; ``extend --json``
refuses with one ``{"extendable": false, "reason": ...}`` object.  A run
contributes its exit code, stdout and stderr; the transcript of each sphere
is pinned by one sha256, so any change in the circles, components or
verdicts these commands read off the sublevel sets shows up here.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from charfol import zoo
from charfol.cli import FoliationDocument, emit, main
from charfol.moves import create_pair
from charfol.taming import normalized_assignment
from charfol.tightness import decide_tightness, synthesize_taming

# (fixture, saddles) of the grown spheres; moves preserve the verdict
GROWN = [
    ("tight_one_saddle", 10),
    ("three_basin_chain", 11),
    ("tight_one_saddle_negative", 12),
    ("embryo_positive", 13),
    ("tight_one_saddle", 14),
    ("tight_saddle_connection", 14),
    ("three_basin_chain", 16),
    ("tight_one_saddle_negative", 16),
]


def _grown(name: str, saddles: int, rng: random.Random):
    g = zoo.example(name)
    while len(g.saddle_points()) < saddles:
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    return g


def _spheres() -> dict:
    out = {name: zoo.example(name) for name in sorted(zoo.ZOO)}
    rng = random.Random(4242)
    for name, saddles in GROWN:
        out[f"{name}+{saddles}"] = _grown(name, saddles, rng)
    return out


SPHERES = _spheres()


def _value_sets(g) -> dict:
    saddles = sorted(p.id for p in g.saddle_points())
    order = synthesize_taming(g) or saddles
    tied = normalized_assignment(g, order)
    for pid in saddles:
        tied[pid] = Fraction(1, 2)
    return {
        "bare": None,
        "ordered": normalized_assignment(g, order),
        "tied": tied,
        "reversed": normalized_assignment(g, list(reversed(order))),
    }


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}--\n{err.getvalue()}"


def transcript(g, tmp_path) -> str:
    lines = []
    for label, values in _value_sets(g).items():
        path = tmp_path / f"{label}.fol"
        path.write_text(emit(FoliationDocument(g, values)))
        for command in ("tame", "extend"):
            lines.append(f"## {label} {command}")
            lines.append(_run([command, "-i", str(path), "--json"]))
    return "\n".join(lines)


GOLDEN = {
    "chained_saddles": "44b57f62eb7bf66b4d7d2bb83ed1541b9535eb644525381d0e0e4c21a0f0ef80",
    "double_join_cycle": "8e33b38a6814c9db7e12dce0c422d2f85b87bc68f6e8e9afe0ccf47e4de3047b",
    "embryo_negative": "091a0f5433ece5e293bf184a3c1c6ac2ca55aff26e25cf2787cea86fb39b62b7",
    "embryo_positive": "8bbd53554da712cfda22787c01862d6999c6f40268295b67899e5fa583a9e438",
    "embryo_positive+13": "30ff5a1d53f04f99761d842a30d6e8d577fcf49a84fe89b2bc5ff8804b8893a7",
    "overtwisted_loop_negative": "7de1867cec629b3a07fa74d572d15ba17f12ff06a99adea918ab3e6d0f5ed545",
    "overtwisted_loop_positive": "7de1867cec629b3a07fa74d572d15ba17f12ff06a99adea918ab3e6d0f5ed545",
    "three_basin_chain": "3001b77ad256a33b74d37b8f5b33bc417cb8f72c1d3eb931ed1a737d642e2045",
    "three_basin_chain+11": "4a25489e34d4a8f240226bebfe616cc2c0fc6fff0ba947e137c46e46ad2b2bc8",
    "three_basin_chain+16": "dd99bfd205ab4bc714a7617899a89f38b766a21165e8eb4fe56b930477031c69",
    "tight_one_saddle": "9735ece62642645cdfae7e2c852b9acfa27aae01f12984d6e5b5c85e08b0b724",
    "tight_one_saddle+10": "744e99668205f39b7c11fe5bc7acc12594ea64ac3949961b0eacd0fcfdd1664a",
    "tight_one_saddle+14": "04fd9956b1819968f25dd02ce82bf6c9ecec42b723d7d40e0bdd5b8b4d761a20",
    "tight_one_saddle_negative": "169a544b60a0b5265188e7558a074306d81279841dc522244da9206472734da5",
    "tight_one_saddle_negative+12": "74e5dcda41095f8c0b877925b0e6e75df4ebbf04a8dd56acb72705c6226084b8",
    "tight_one_saddle_negative+16": "43469a55dc6489b0347bc36208151014428dc84cac56f80080e80baa03ce5f61",
    "tight_saddle_connection": "fce4d6a87f86d19cb31e59583d23cf4f3500d1fe99ebc89760674de7e9d1cabc",
    "tight_saddle_connection+14": "d0b58e3d4b12a570968b3f77f1e54d2f8ecd57aac26f275a7d7fa06496615907",
    "trivial": "7788a65a95ddcdd5a1736dbc9e1b7cd9bacacf188e740f1aa7c896b4b4eb8d17",
}


def test_grown_spheres_are_tight_and_sized():
    for name, saddles in GROWN:
        g = SPHERES[f"{name}+{saddles}"]
        assert len(g.saddle_points()) == saddles
        assert decide_tightness(g).tight


@pytest.mark.parametrize("name", sorted(SPHERES))
def test_tame_and_extend_transcripts_are_pinned(name, tmp_path):
    digest = hashlib.sha256(transcript(SPHERES[name], tmp_path).encode()).hexdigest()
    assert digest == GOLDEN[name]
