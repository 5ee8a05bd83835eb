"""The integer dart table against the tuple walk it replaced.

``TupleReference`` rebuilds what ``FoliationGraph`` computed before the
table: each dart's rotation successor from its position in its rotation
tuple, its flow direction from its slot, faces traced by ``phi`` over tuple
darts in sorted order with each corner classified by the directions of its
two darts, and the canonical code numbered from a dart index and successor
array of its own.  The dart table (successor, direction and point of every
dart), the face table, ``faces()`` and ``canonical_form`` must match it
exactly.
"""

import pytest

from charfol import FoliationGraph, GraphError, build, zoo
from charfol.model import _KIND_CODE, _SLOT_CLASS, Corner, end_direction


class TupleReference:
    def __init__(self, g: FoliationGraph) -> None:
        self.g = g
        self.pos = {}
        for seq in g.rotation.values():
            for i, d in enumerate(seq):
                self.pos.setdefault(d, (seq, i))

    def sigma(self, d):
        seq, i = self.pos[d]
        return seq[(i + 1) % len(seq)]

    def phi(self, d):
        return self.sigma(FoliationGraph.theta(d))

    def direction(self, d):
        ref = self.g.end_ref(d)
        return end_direction(self.g.points[ref.point], ref.slot)

    def faces(self) -> tuple[tuple, ...]:
        """(index, darts, corners) of each face."""
        g = self.g
        seen, faces = set(), []
        for start in sorted(g.darts()):
            if start in seen:
                continue
            orbit, d = [], start
            while True:
                orbit.append(d)
                seen.add(d)
                d = self.phi(d)
                if d == start:
                    break
            corners = []
            for d in orbit:
                enter, leave = FoliationGraph.theta(d), self.phi(d)
                dirs = {self.direction(enter), self.direction(leave)}
                flavor = (
                    "source" if dirs == {"out"} else "sink" if dirs == {"in"} else "through"
                )
                corners.append(Corner(g.end_ref(enter).point, enter, leave, flavor))
            faces.append((len(faces), tuple(orbit), tuple(corners)))
        return tuple(faces)

    def canonical_form(self) -> str:
        g = self.g
        darts = g.darts()
        if not darts:
            return "empty"
        n = len(darts)
        index = {d: i for i, d in enumerate(darts)}
        label = [0] * n
        for k, e in enumerate(g.edges.values()):
            for end, ref in ((0, e.src), (1, e.dst)):
                p = g.points[ref.point]
                label[2 * k + end] = (
                    ((_KIND_CODE[p.kind] * 3 + p.sign + 1) * 8 + _SLOT_CLASS[ref.slot]) * 2 + end
                ) * 2 + e.marker
        sigma, degree = [0] * n, [0] * n
        for seq in g.rotation.values():
            for j, d in enumerate(seq):
                sigma[index[d]] = index[seq[(j + 1) % len(seq)]]
                degree[index[d]] = len(seq)
        local = [(label[d], degree[d], label[d ^ 1], label[sigma[d]]) for d in range(n)]
        codes = []
        for start in range(n):
            if local[start] != min(local):
                continue
            pos, order = [-1] * n, [start]
            pos[start] = 0
            for d in order:
                for s in (d ^ 1, sigma[d]):
                    if pos[s] < 0:
                        pos[s] = len(order)
                        order.append(s)
            codes.append([(label[d], pos[d ^ 1], pos[sigma[d]]) for d in order])
        return ";".join(f"{a},{b},{c}" for a, b, c in min(codes))


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
        faces = ref.faces()
        assert [(f.index, f.darts, f.corners) for f in g.faces()] == list(faces)
        for f, (_, _, corners) in zip(g.faces(), faces):
            assert f.source_corners == tuple(c for c in corners if c.flavor == "source")
            assert f.sink_corners == tuple(c for c in corners if c.flavor == "sink")
        assert g.canonical_form() == ref.canonical_form()


def test_the_face_table_matches_the_tuple_walk(graphs):
    for g in graphs:
        darts, index, _, _, point = g.dart_table()
        table = g.face_table()
        faces = TupleReference(g).faces()
        assert len(table.orbits) == len(table.source) == len(table.sink) == len(faces)
        for i, orbit, corners in faces:
            assert [table.face[index[d]] for d in orbit] == [i] * len(orbit)
            assert [darts[d] for d in table.orbits[i]] == list(orbit)
            for enter, flavor in ((table.source[i], "source"), (table.sink[i], "sink")):
                (corner,) = (c for c in corners if c.flavor == flavor)
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
