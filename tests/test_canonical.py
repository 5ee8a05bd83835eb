"""The canonical form against the exhaustive-start reference encoder.

``canonical_form`` tries only the darts of the least local class as starts
and abandons a walk once it loses.  The reference below tries every dart and
builds a full string for each; the two must induce the same partition into
isomorphism classes, though their strings differ.
"""

import random

import pytest

from charfol import FoliationGraph, zoo
from charfol.moves import create_pair
from references import relabel

SLOT_LETTERS = {
    None: "f", "s0": "s", "s1": "s", "u0": "u", "u1": "u",
    "b0": "b", "b1": "b", "zone": "z", "in": "i", "out": "o",
}


def _encode_from(g: FoliationGraph, sigma: dict, start) -> str:
    index: dict = {}
    order: list = []

    def visit(d) -> None:
        if d not in index:
            index[d] = len(order)
            order.append(d)

    visit(start)
    i = 0
    while i < len(order):
        d = order[i]
        visit(g.theta(d))
        visit(sigma[d])
        i += 1

    point_index: dict[str, int] = {}
    for d in order:
        point_index.setdefault(g.end_ref(d).point, len(point_index))
    point_bits = [
        f"{g.points[pid].kind[0]}{g.points[pid].sign:+d}"
        for pid in sorted(point_index, key=point_index.get)
    ]
    dart_bits = []
    for d in order:
        eid, end = d
        ref = g.end_ref(d)
        dart_bits.append(
            ",".join(
                (
                    str(point_index[ref.point]),
                    SLOT_LETTERS.get(ref.slot, "?"),
                    "S" if end == "src" else "T",
                    str(index[g.theta(d)]),
                    str(index[sigma[d]]),
                    "m" if g.edges[eid].marker else "-",
                )
            )
        )
    return "|".join(point_bits) + "||" + "|".join(dart_bits)


def reference_canonical_form(g: FoliationGraph) -> str:
    """The least breadth-first encoding over every start dart."""
    darts = sorted(g.darts())
    if not darts:
        return "empty"
    # the rotation successor, read from the rotation tuples
    sigma = {d: seq[(i + 1) % len(seq)] for seq in g.rotation.values() for i, d in enumerate(seq)}
    return min(_encode_from(g, sigma, d) for d in darts)


def relabelled(g: FoliationGraph, rng: random.Random) -> FoliationGraph:
    pids, eids = sorted(g.points), sorted(g.edges)
    new_p = [f"P{i}" for i in range(len(pids))]
    new_e = [f"E{i}" for i in range(len(eids))]
    rng.shuffle(new_p)
    rng.shuffle(new_e)
    return relabel(g, dict(zip(pids, new_p)), dict(zip(eids, new_e)))


def grown(name: str, saddles: int, rng: random.Random) -> FoliationGraph:
    """A ``create_pair`` walk from a zoo fixture up to a saddle count."""
    g = zoo.example(name)
    while len(g.saddle_points()) < saddles:
        g = create_pair(g, rng.randrange(len(g.face_table().orbits)), rng.choice((1, -1))).graph
    return g


def assert_same_partition(graphs: list[FoliationGraph]) -> None:
    old = [reference_canonical_form(g) for g in graphs]
    new = [g.canonical_form() for g in graphs]
    assert len(set(zip(old, new))) == len(set(old)) == len(set(new))


# (fixture, saddles) of the grown spheres; moves preserve the verdict, so
# the first three are tight and the last two overtwisted
GROWN = [
    ("tight_one_saddle", 10),
    ("three_basin_chain", 14),
    ("tight_one_saddle_negative", 20),
    ("overtwisted_loop_positive", 12),
    ("overtwisted_loop_positive", 18),
]


@pytest.fixture(scope="module")
def grown_spheres():
    rng = random.Random(20211)
    return [grown(name, saddles, rng) for name, saddles in GROWN]


def test_partition_matches_reference_on_the_universe(universe_list):
    # reversal maps the universe onto itself, so the reversed copies are
    # isomorphic to other classes without sharing their labels
    rng = random.Random(3)
    base = universe_list + [zoo.example(name) for name in sorted(zoo.ZOO)]
    graphs = base + [g.reverse() for g in base] + [relabelled(g, rng) for g in base]
    assert_same_partition(graphs)
    assert len({g.canonical_form() for g in universe_list}) == len(universe_list)


def test_partition_matches_reference_on_grown_spheres(grown_spheres):
    # one more pair planted in every face of a grown sphere: same size,
    # isomorphic wherever the faces are symmetric, distinct elsewhere
    rng = random.Random(5)
    g = grown_spheres[0]
    planted = [
        create_pair(g, i, sign).graph for i in range(len(g.face_table().orbits)) for sign in (1, -1)
    ]
    graphs = grown_spheres + [relabelled(h, rng) for h in grown_spheres] + planted
    assert_same_partition(graphs)
    assert len({h.canonical_form() for h in planted}) > 1


def test_canonical_form_invariance_on_grown_spheres(grown_spheres):
    rng = random.Random(7)
    forms = [g.canonical_form() for g in grown_spheres]
    assert len(set(forms)) == len(forms)
    for g, form in zip(grown_spheres, forms):
        assert relabelled(g, rng).canonical_form() == form
        assert g.reverse().reverse().canonical_form() == form
