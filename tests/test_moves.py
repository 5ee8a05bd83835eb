"""Rewrite moves: each result validates, and local round trips close up."""

import pytest

from charfol import zoo
from charfol.moves import (
    MoveError,
    create_pair,
    eliminate_embryo,
    eliminate_pair,
    resolve_connection,
    resolve_embryo,
)
from charfol.tightness import decide_tightness


# ------------------------------------------------------------ eliminate_pair


def test_eliminate_pair_collapses_to_trivial():
    g = zoo.example("tight_one_saddle")
    res = eliminate_pair(g, "a", "h")
    assert res.graph.validate() == []
    assert res.record.kind == "eliminate_pair"
    assert res.record.details["eliminated"] == ["a", "h"]
    assert res.graph.is_isomorphic(zoo.trivial())


def test_eliminate_pair_sink_side():
    g = zoo.example("tight_one_saddle_negative")
    res = eliminate_pair(g, "y", "h")
    assert res.graph.validate() == []
    assert res.graph.is_isomorphic(zoo.trivial())


def test_eliminate_pair_preconditions():
    g = zoo.example("tight_one_saddle")
    with pytest.raises(MoveError, match="elliptic and a hyperbolic"):
        eliminate_pair(g, "a", "z")
    with pytest.raises(MoveError, match="matching signs"):
        eliminate_pair(g, "z", "h")
    with pytest.raises(MoveError, match="unknown point"):
        eliminate_pair(g, "nope", "h")


def test_eliminate_pair_refuses_the_same_sign_bigon():
    g = zoo.example("overtwisted_loop_positive")
    with pytest.raises(MoveError, match="same-sign bigon"):
        eliminate_pair(g, "p", "h")


# --------------------------------------------------------------- create_pair


def test_create_pair_positive_then_eliminate_round_trip():
    t = zoo.trivial()
    created = create_pair(t, 0, 1)
    assert created.graph.validate() == []
    assert created.graph.is_isomorphic(zoo.example("tight_one_saddle"))
    kinds = {p.id: p.kind for p in created.graph.points.values()}
    ell = next(k for k in created.record.details["created"] if kinds[k] == "elliptic")
    sad = next(k for k in created.record.details["created"] if kinds[k] == "hyperbolic")
    back = eliminate_pair(created.graph, ell, sad)
    assert back.graph.is_isomorphic(t)


def test_create_pair_negative():
    t = zoo.trivial()
    created = create_pair(t, 0, -1)
    assert created.graph.validate() == []
    assert created.graph.is_isomorphic(zoo.example("tight_one_saddle_negative"))


def test_create_pair_needs_a_real_face():
    with pytest.raises(MoveError, match="no face with index"):
        create_pair(zoo.trivial(), 5)


def test_create_pair_preserves_tightness_verdict():
    for name in ("trivial", "tight_one_saddle", "overtwisted_loop_positive"):
        g = zoo.example(name)
        before = decide_tightness(g).tight
        for f in g.faces():
            for sign in (1, -1):
                res = create_pair(g, f.index, sign)
                assert res.graph.validate() == []
                assert decide_tightness(res.graph).tight == before


# ------------------------------------------------------------------- embryos


def test_resolve_embryo_births_a_saddle_and_a_source():
    res = resolve_embryo(zoo.example("embryo_positive"), "B")
    g = res.graph
    assert g.validate() == []
    kinds = {p.id: (p.kind, p.sign) for p in g.points.values()}
    assert kinds["B"] == ("hyperbolic", 1)
    assert kinds[res.record.details["new_elliptic"]] == ("elliptic", 1)
    assert decide_tightness(g).tight


def test_eliminate_embryo_is_a_death_moment():
    res = eliminate_embryo(zoo.example("embryo_positive"), "B")
    assert res.graph.validate() == []
    assert res.record.details["eliminated"] == ["B"]
    assert res.graph.is_isomorphic(zoo.trivial())


def test_embryo_moves_reject_non_embryos():
    g = zoo.example("tight_one_saddle")
    with pytest.raises(MoveError, match="not an embryo"):
        resolve_embryo(g, "h")
    with pytest.raises(MoveError, match="not an embryo"):
        eliminate_embryo(g, "h")


def test_negative_embryo_moves_mirror_the_positive_ones():
    res = resolve_embryo(zoo.example("embryo_negative"), "B")
    assert res.graph.validate() == []
    assert res.graph.points["B"].sign == -1
    assert decide_tightness(res.graph).tight
    gone = eliminate_embryo(zoo.example("embryo_negative"), "B")
    assert gone.graph.is_isomorphic(zoo.trivial())


# -------------------------------------------------------- saddle connections


def test_resolve_connection_both_sides():
    g = zoo.example("tight_saddle_connection")
    for side in ("left", "right"):
        res = resolve_connection(g, "conn", side)
        assert res.graph.validate() == []
        assert res.graph.homoclinic_edges() == []
        assert decide_tightness(res.graph).tight
        assert res.record.details["side"] == side


def test_resolve_connection_requires_a_connection():
    with pytest.raises(MoveError, match="not a saddle connection"):
        resolve_connection(zoo.example("tight_one_saddle"), "ea")


def test_resolutions_of_chained_saddles_stay_overtwisted():
    g = zoo.example("chained_saddles")
    for side in ("left", "right"):
        once = resolve_connection(g, "c0", side).graph
        assert once.validate() == []
        for side2 in ("left", "right"):
            twice = resolve_connection(once, "c1", side2).graph
            assert twice.validate() == []
            assert not decide_tightness(twice).tight
