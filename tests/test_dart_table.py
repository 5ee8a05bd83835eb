"""The integer dart table and face table against the tuple walk they replaced.

``references.TupleReference`` rebuilds what ``FoliationGraph`` computed
before the tables: each dart's rotation successor from its position in its
rotation tuple, its flow direction from its slot, faces traced by ``phi``
over tuple darts in sorted order with each corner classified by the
directions of its two darts, and the canonical code numbered from a dart
index and successor array of its own.  The dart table (successor, direction
and point of every dart), the face table (the face of every dart, the walk
of every face, and its source and sink corners) and ``canonical_form`` must
match it exactly.
"""

import pytest

from charfol import FoliationGraph, GraphError, build, zoo
from references import TupleReference


@pytest.fixture(scope="module")
def graphs(universe_list, walked_spheres):
    base = universe_list + [zoo.example(name) for name in sorted(zoo.ZOO)]
    return base + [g.reverse() for g in universe_list] + [g for _, g in walked_spheres]


def test_the_table_matches_the_tuple_walk(graphs):
    for g in graphs:
        ref = TupleReference(g)
        darts, index, sigma, out, point = g.dart_table()
        assert darts == g.darts()
        for d in darts:
            i = index[d]
            assert darts[sigma[i]] == ref.sigma(d)
            assert darts[sigma[i ^ 1]] == ref.phi(d)
            assert out[i] == (ref.direction(d) == "out")
            assert point[i] == g.end_ref(d).point
        assert g.canonical_form() == ref.canonical_form()


def test_the_face_table_matches_the_tuple_walk(graphs):
    for g in graphs:
        darts, index, _, _, point = g.dart_table()
        table = g.face_table()
        faces = TupleReference(g).faces()
        assert len(table.orbits) == len(table.source) == len(table.sink) == len(faces)
        for f in faces:
            assert [table.face[index[d]] for d in f.darts] == [f.index] * len(f.darts)
            assert [darts[d] for d in table.orbits[f.index]] == list(f.darts)
            for enter, flavor in ((table.source[f.index], "source"), (table.sink[f.index], "sink")):
                (corner,) = f.corners_of(flavor)
                assert (point[enter], darts[enter]) == (corner.point, corner.enter)


def _one_saddle(rotation_z):
    rotation = {
        "a": [("ea", "src")],
        "b": [("eb", "src")],
        "h": [("ea", "tgt"), ("f0", "src"), ("eb", "tgt"), ("f1", "src")],
        "z": rotation_z,
    }
    return build(
        points=[
            ("a", "elliptic", 1),
            ("b", "elliptic", 1),
            ("h", "hyperbolic", 1),
            ("z", "elliptic", -1),
        ],
        edges=[
            ("ea", "a", None, "h", "s0"),
            ("eb", "b", None, "h", "s1"),
            ("f0", "h", "u0", "z", None),
            ("f1", "h", "u1", "z", None),
        ],
        rotation=rotation,
    )


@pytest.mark.parametrize(
    "rotation_z, problem",
    [
        ([("f0", "tgt")], "point z: rotation does not list its incident ends"),
        (
            [("f0", "tgt"), ("f1", "tgt"), ("f0", "tgt")],
            "point z: repeated dart in rotation",
        ),
        (
            [("f0", "tgt"), ("f1", "tgt"), ("ghost", "tgt")],
            "point z: rotation does not list its incident ends",
        ),
        (
            [("f0", "tgt"), ("ea", "tgt")],
            "point z: rotation does not list its incident ends",
        ),
    ],
)
def test_a_rotation_that_is_no_permutation_raises(rotation_z, problem):
    assert _one_saddle([("f0", "tgt"), ("f1", "tgt")]).validate() == []
    g = _one_saddle(rotation_z)
    assert g.validate() == [problem]
    for query in (g.dart_table, g.face_table, g.faces, g.canonical_form):
        with pytest.raises(GraphError, match="^rotation system is not a permutation of darts$"):
            query()


def test_a_permutation_that_puts_a_dart_at_another_point_raises():
    # h and z swap ea.tgt and f1.tgt: the rotation system is a permutation of
    # the darts, but neither point lists its own incident ends
    g = _one_saddle([("f0", "tgt"), ("ea", "tgt")])
    h = [("f1", "tgt"), ("f0", "src"), ("eb", "tgt"), ("f1", "src")]
    g = FoliationGraph(g.points, g.edges, {**g.rotation, "h": h})
    assert sorted(d for seq in g.rotation.values() for d in seq) == sorted(g.darts())
    assert g.validate() == [
        "point h: rotation does not list its incident ends",
        "point z: rotation does not list its incident ends",
    ]
    with pytest.raises(GraphError, match="^rotation system is not a permutation of darts$"):
        g.dart_table()
