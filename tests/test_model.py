"""Graph structure: rotation systems, faces, validation, canonical forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charfol import ELLIPTIC, EMBRYO, HYPERBOLIC, FoliationGraph, GraphError, build
from charfol import zoo
from charfol.tightness import decide_tightness
from test_moves_golden import GOLDEN, transcript

ZOO_NAMES = sorted(zoo.ZOO)

FROZEN_FACE_COUNTS = {
    "chained_saddles": 2,
    "double_join_cycle": 4,
    "embryo_negative": 2,
    "embryo_positive": 2,
    "overtwisted_loop_negative": 2,
    "overtwisted_loop_positive": 2,
    "three_basin_chain": 4,
    "tight_one_saddle": 2,
    "tight_one_saddle_negative": 2,
    "tight_saddle_connection": 3,
    "trivial": 1,
}


def test_zoo_covers_frozen_table():
    assert set(FROZEN_FACE_COUNTS) == set(ZOO_NAMES)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_zoo_fixture_is_valid(name):
    g = zoo.example(name)
    assert g.validate() == []
    assert len(g.faces()) == FROZEN_FACE_COUNTS[name]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_euler_formula_on_fixtures(name):
    g = zoo.example(name)
    assert len(g.points) - len(g.edges) + len(g.faces()) == 2


def test_face_corners_one_source_one_sink():
    g = zoo.example("tight_one_saddle")
    for f in g.faces():
        assert f.source_point in g.points
        (sink,) = f.sink_corners
        assert sink.point in g.points
    # both faces of the one-saddle sphere run source -> saddle -> sink
    assert {f.source_point for f in g.faces()} == {"a", "b"}
    assert {c.point for f in g.faces() for c in f.sink_corners} == {"z"}


def test_points_of_kind_and_slots():
    g = zoo.example("tight_one_saddle")
    assert [p.id for p in g.points_of_kind(ELLIPTIC)] == ["a", "b", "z"]
    assert [p.id for p in g.points_of_kind(HYPERBOLIC)] == ["h"]
    assert g.points_of_kind(EMBRYO) == []
    assert g.edge_at_slot("h", "s0").id == "ea"
    assert g.edge_at_slot("h", "u1").id == "f1"
    with pytest.raises(GraphError):
        g.edge_at_slot("h", "b0")


def test_homoclinic_detection():
    conn = zoo.example("tight_saddle_connection")
    assert conn.homoclinic_edges() == ["conn"]
    assert conn.is_homoclinic("conn")
    assert not conn.is_homoclinic("ea")
    assert zoo.example("tight_one_saddle").homoclinic_edges() == []


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_to_data_round_trip(name):
    g = zoo.example(name)
    h = FoliationGraph.from_data(g.to_data())
    assert h.validate() == []
    assert h.canonical_form() == g.canonical_form()
    assert h.is_isomorphic(g)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ZOO_NAMES), seed=st.integers(0, 2**30))
def test_canonical_form_is_relabel_invariant(name, seed):
    g = zoo.example(name)
    rng = random.Random(seed)
    pids, eids = sorted(g.points), sorted(g.edges)
    new_p = [f"P{i}" for i in range(len(pids))]
    new_e = [f"E{i}" for i in range(len(eids))]
    rng.shuffle(new_p)
    rng.shuffle(new_e)
    h = g.relabel(dict(zip(pids, new_p)), dict(zip(eids, new_e)))
    assert h.validate() == []
    assert h.canonical_form() == g.canonical_form()
    assert h.is_isomorphic(g)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_reverse_is_an_involution(name):
    g = zoo.example(name)
    r = g.reverse()
    assert r.validate() == []
    assert r.reverse().canonical_form() == g.canonical_form()


def test_reverse_swaps_roles():
    g = zoo.example("tight_one_saddle")
    r = g.reverse()
    assert r.points["a"].sign == -1  # the source became a sink
    assert r.points["h"].sign == -1
    assert r.edge_at_slot("h", "s0").src.point == "z"


def test_marker_reduce_keeps_the_cellularity_leaf():
    # the trivial sphere needs its marker leaf: without it there is no face
    g = zoo.example("trivial")
    assert sorted(g.marker_reduce().edges) == ["m0"]


def test_validate_reports_missing_rotation():
    g = build(
        points=[("p", "elliptic", 1), ("q", "elliptic", -1)],
        edges=[("m0", "p", None, "q", None, True)],
        rotation={"p": [("m0", "src")]},
    )
    assert any("q" in msg and "missing rotation" in msg for msg in g.validate())


def test_validate_reports_bad_face_corners():
    # two sources joined head-on: the single face has two source corners
    g = build(
        points=[("p", "elliptic", 1), ("q", "elliptic", 1)],
        edges=[("m0", "p", None, "q", None, True)],
        rotation={"p": [("m0", "src")], "q": [("m0", "tgt")]},
    )
    problems = g.validate()
    assert problems, "a source-to-source leaf must not validate"


def test_validate_reports_wrong_euler_count():
    # two disjoint spheres' worth of points on one atlas cannot close up
    g = build(
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
        rotation={
            "a": [("ea", "src")],
            "b": [("eb", "src")],
            # swapped stable corners: faces no longer alternate
            "h": [("ea", "tgt"), ("eb", "tgt"), ("f0", "src"), ("f1", "src")],
            "z": [("f0", "tgt"), ("f1", "tgt")],
        },
    )
    assert g.validate() != []


def test_validate_reports_unknown_endpoint():
    g = build(
        points=[("p", "elliptic", 1)],
        edges=[("e", "p", None, "ghost", None)],
        rotation={"p": [("e", "src")]},
    )
    assert "edge e: unknown point ghost" in g.validate()
    with pytest.raises(GraphError):
        g.require_valid()


def test_validate_runs_once_and_returns_a_fresh_list(monkeypatch):
    valid = zoo.example("three_basin_chain")
    invalid = build(
        points=[("p", "elliptic", 1)],
        edges=[("e", "p", None, "ghost", None)],
        rotation={"p": [("e", "src")]},
    )
    runs = []
    check = FoliationGraph._check
    monkeypatch.setattr(FoliationGraph, "_check", lambda g: runs.append(g) or check(g))
    for g in (valid, invalid):
        first = g.validate()
        first.append("caller's own note")
        second = g.validate()
        assert second is not first and "caller's own note" not in second
        assert second == g.validate()
    assert valid.require_valid() is valid
    with pytest.raises(GraphError, match="unknown point ghost"):
        invalid.require_valid()
    assert runs == [valid, invalid]


def test_build_rejects_bad_kind():
    with pytest.raises(GraphError):
        build(points=[("p", "parabolic", 1)], edges=[], rotation={"p": []})


def test_without_edge_and_relabel_validate():
    g = zoo.example("tight_one_saddle")
    h = g.without_edge("f1")
    # dropping one unstable separatrix leaves a dangling saddle slot
    assert h.validate() != []


# ------------------------------------------------- marker normalisation


def reference_marker_reduce(g: FoliationGraph) -> FoliationGraph:
    """Delete the first marker leaf, in id order, whose removal leaves a
    valid graph, and start over: the rule checked by full validation."""
    changed = True
    while changed:
        changed = False
        for eid in sorted(e for e, s in g.edges.items() if s.marker):
            candidate = g.without_edge(eid)
            if candidate.is_valid:
                g = candidate
                changed = True
                break
    return g


@pytest.fixture(scope="module")
def marker_reduce_inputs(walked_spheres):
    """Every graph handed to marker_reduce by the golden move sweep and by
    deciding the walked spheres."""
    seen = []
    real = FoliationGraph.marker_reduce

    def record(self):
        seen.append(self)
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FoliationGraph, "marker_reduce", record)
        for kind in sorted(GOLDEN):
            transcript(kind)
        for _, g in walked_spheres:
            decide_tightness(g)
    return seen


def test_marker_reduce_matches_the_validating_reference(marker_reduce_inputs):
    dropped = kept = 0
    for g in marker_reduce_inputs:
        reduced = g.marker_reduce()
        assert sorted(reduced.edges) == sorted(reference_marker_reduce(g).edges)
        dropped += len(reduced.edges) < len(g.edges)
        kept += any(e.marker for e in reduced.edges.values())
    # both outcomes of the rule occur in the sample
    assert dropped >= 50 and kept >= 20


def _one_saddle_with_marker():
    # the tight one-saddle sphere with an extra marker leaf a -> z that
    # splits the face between f0 and f1
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
            ("m0", "a", None, "z", None, True),
        ],
        rotation={
            "a": [("ea", "src"), ("m0", "src")],
            "b": [("eb", "src")],
            "h": [("ea", "tgt"), ("f0", "src"), ("eb", "tgt"), ("f1", "src")],
            "z": [("f0", "tgt"), ("m0", "tgt"), ("f1", "tgt")],
        },
    )


def test_marker_reduce_drops_a_leaf_between_two_faces():
    g = _one_saddle_with_marker()
    assert g.validate() == []
    faces = g.dart_faces()
    assert faces[("m0", "src")] != faces[("m0", "tgt")]
    reduced = g.marker_reduce()
    assert sorted(reduced.edges) == ["ea", "eb", "f0", "f1"]
    assert reduced.validate() == []
    assert reduced.canonical_form() == zoo.example("tight_one_saddle").canonical_form()


def test_marker_reduce_keeps_a_leaf_with_one_face_on_both_sides():
    trivial = build(
        points=[("p", "elliptic", 1), ("q", "elliptic", -1)],
        edges=[("m0", "p", None, "q", None, True)],
        rotation={"p": [("m0", "src")], "q": [("m0", "tgt")]},
    )
    assert trivial.validate() == []
    faces = trivial.dart_faces()
    assert faces[("m0", "src")] == faces[("m0", "tgt")]
    assert sorted(trivial.marker_reduce().edges) == ["m0"]
    # two leaves bound two faces: the first in id order goes, and the second
    # is then the only leaf, with one face on both sides
    bigon = build(
        points=[("p", "elliptic", 1), ("q", "elliptic", -1)],
        edges=[("m0", "p", None, "q", None, True), ("m1", "p", None, "q", None, True)],
        rotation={"p": [("m0", "src"), ("m1", "src")], "q": [("m0", "tgt"), ("m1", "tgt")]},
    )
    assert bigon.validate() == []
    assert sorted(bigon.marker_reduce().edges) == ["m1"]
