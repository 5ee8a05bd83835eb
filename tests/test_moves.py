"""Rewrite moves: each result validates, and local round trips close up."""

import pathlib
import random
from dataclasses import replace

import pytest
from references import create_pair_by_conjugation, reference_eliminate_embryo

from charfol import HYPERBOLIC, FoliationGraph, zoo
from charfol.cli import emit, parse
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


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("face_index", [-1, -2, 2, 5])
def test_create_pair_rejects_a_face_index_out_of_range(face_index, sign):
    g = zoo.example("tight_one_saddle")  # faces 0 and 1
    with pytest.raises(MoveError, match=f"^no face with index {face_index}$"):
        create_pair(g, face_index, sign)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_create_pair_rejects_a_sign_other_than_one(sign):
    with pytest.raises(MoveError, match=f"^pair sign must be \\+1 or -1, got {sign}$"):
        create_pair(zoo.trivial(), 0, sign)


def test_create_pair_records_the_callers_face_for_both_signs(zoo_graph):
    for f in range(len(zoo_graph.face_table().orbits)):
        for sign in (1, -1):
            details = create_pair(zoo_graph, f, sign).record.details
            assert (details["face"], details["sign"]) == (f, sign)


def _with_slots_renamed(g, pid, names):
    """``g`` with the slot labels at point ``pid`` renamed by ``names``."""

    def ref(r):
        return replace(r, slot=names[r.slot]) if r.point == pid else r

    edges = {eid: replace(e, src=ref(e.src), dst=ref(e.dst)) for eid, e in g.edges.items()}
    return FoliationGraph(g.points, edges, g.rotation)


def _is_normal(g):
    """At every saddle the first stable dart in rotation order sits in slot s0."""
    return all(
        next(g.dart_slot(d) for d in g.rotation[p.id] if g.dart_slot(d) in ("s0", "s1")) == "s0"
        for p in g.points.values()
        if p.kind == HYPERBOLIC
    )


def test_a_negative_birth_is_the_conjugated_positive_one(universe_list, walked_spheres):
    graphs = universe_list + [zoo.example(n) for n in sorted(zoo.ZOO)]
    graphs += [g for _, g in walked_spheres]
    for g in graphs + [g.reverse() for g in graphs]:
        for f in range(len(g.face_table().orbits)):
            planted, reference = create_pair(g, f, -1), create_pair_by_conjugation(g, f)
            assert emit(planted.graph) == emit(reference.graph), (emit(g), f)
            assert planted.record == reference.record


SEEDS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "seeds"


def test_every_zoo_fixture_and_seed_class_is_normal():
    graphs = [zoo.example(n) for n in sorted(zoo.ZOO)]
    for path in sorted(SEEDS.glob("*.fol")):
        docs = path.read_text(encoding="utf-8").split("foliation v1\n")[1:]
        graphs += [parse("foliation v1\n" + doc).graph for doc in docs]
    assert len(graphs) == len(zoo.ZOO) + 36
    assert all(_is_normal(g) for g in graphs)


def test_a_negative_birth_keeps_the_labels_of_a_saddle_that_is_not_normal():
    # swapping both pairs keeps the rotation pattern but puts s1 first at h0
    g = _with_slots_renamed(
        zoo.example("three_basin_chain"), "h0", {"s0": "s1", "s1": "s0", "u0": "u1", "u1": "u0"}
    )
    assert g.validate() == [] and not _is_normal(g)
    for f in range(len(g.face_table().orbits)):
        planted, reference = create_pair(g, f, -1), create_pair_by_conjugation(g, f)
        assert {eid: planted.graph.edges[eid] for eid in g.edges} == g.edges
        assert planted.graph.canonical_form() == reference.graph.canonical_form()
        # two reversals relabel the saddle the birth never touched
        assert reference.graph.edges != planted.graph.edges


def test_a_walk_of_both_signs_never_reverses_the_sphere_and_stays_normal(monkeypatch):
    calls = []
    reverse = FoliationGraph.reverse
    monkeypatch.setattr(FoliationGraph, "reverse", lambda g: calls.append(g) or reverse(g))
    rng = random.Random(2727)
    g, signs = zoo.example("three_basin_chain"), set()
    for _ in range(20):
        sign = rng.choice((1, -1))
        g = create_pair(g, rng.randrange(len(g.face_table().orbits)), sign).graph
        signs.add(sign)
        assert _is_normal(g)
    assert signs == {1, -1} and calls == []


def test_a_walk_of_both_signs_reads_each_rotation_system_once(monkeypatch):
    # validation and the dart table share one reader of the rotation system,
    # and a table built while validating is kept, so no graph, neither the
    # parsed sphere, validated as the CLI validates it, nor a step's, is read
    # twice
    calls = []
    read = FoliationGraph._read_rotation
    monkeypatch.setattr(
        FoliationGraph, "_read_rotation", lambda g, *args: calls.append(g) or read(g, *args)
    )
    rng = random.Random(2828)
    g, signs = parse(emit(zoo.example("three_basin_chain"))).graph.require_valid(), set()
    for _ in range(20):
        sign = rng.choice((1, -1))
        g = create_pair(g, rng.randrange(len(g.face_table().orbits)), sign).graph
        signs.add(sign)
    assert signs == {1, -1} and calls
    assert len({id(h) for h in calls}) == len(calls)


def test_create_pair_walks_validate_from_their_text():
    # each step's graph may carry a verdict handed on by reversal or marker
    # reduction; read back from its document, it is checked from scratch
    rng = random.Random(2222)
    for name in sorted(zoo.ZOO):
        g = zoo.example(name)
        for _ in range(12):
            face, sign = rng.randrange(len(g.face_table().orbits)), rng.choice((1, -1))
            g = create_pair(g, face, sign).graph
            text = emit(g)
            assert parse(text).graph.validate() == [], (name, text)


def test_create_pair_preserves_tightness_verdict():
    for name in ("trivial", "tight_one_saddle", "overtwisted_loop_positive"):
        g = zoo.example(name)
        before = decide_tightness(g).tight
        for f in range(len(g.face_table().orbits)):
            for sign in (1, -1):
                res = create_pair(g, f, sign)
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


# a leaf source feeds an embryo whose b0 leaf is a connection into a saddle
EMBRYO_INTO_SADDLE = """foliation v1
point B embryo +
point h hyperbolic {sign}
point q elliptic +
point w elliptic +
point z elliptic -
sep a w B:in
sep c0 B:b0 h:s0
sep c1 B:b1 z
sep d q h:s1
sep u0 h:u0 z
sep u1 h:u1 z
rot B: a.tgt c0.src c1.src
rot h: c0.tgt u0.src d.tgt u1.src
rot q: d.src
rot w: a.src
rot z: c1.tgt u1.tgt u0.tgt
"""


# a saddle feeds an embryo whose boundary leaves end at a sink the saddle
# feeds too: the embryo's death keeps the saddle's u0 slot filled
EMBRYO_FED_BY_SADDLE = """foliation v1
point a elliptic +
point b elliptic +
point h hyperbolic +
point B embryo +
point z elliptic -
sep ea a h:s0
sep eb b h:s1
sep k h:u0 B:in
sep f h:u1 z
sep c0 B:b0 z
sep c1 B:b1 z
rot a: ea.src
rot b: eb.src
rot h: ea.tgt k.src eb.tgt f.src
rot B: k.tgt c0.src c1.src
rot z: f.tgt c1.tgt c0.tgt
"""

# a zone leaf returns to the embryo's in slot: expanded, both stable
# separatrices come from the fresh source
EMBRYO_ZONE_LOOP = """foliation v1
point B embryo +
point x elliptic -
point y elliptic -
sep l B:zone B:in
sep b0 B:b0 x
sep b1 B:b1 y
rot B: l.tgt b0.src l.src b1.src
rot x: b0.tgt
rot y: b1.tgt
"""


def _embryo_walks(seed, walks, births):
    """The embryo spheres above and in the zoo, each also grown by
    ``walks`` seeded create_pair walks of a length drawn from ``births``."""
    rng = random.Random(seed)
    starts = [zoo.example(n) for n in sorted(zoo.ZOO)]
    starts += [parse(EMBRYO_INTO_SADDLE.format(sign=sign)).graph for sign in "+-"]
    starts += [parse(EMBRYO_FED_BY_SADDLE).graph, parse(EMBRYO_ZONE_LOOP).graph]
    spheres = list(starts)
    for start in starts:
        if not start.points_of_kind("embryo"):
            continue
        for _ in range(walks):
            g = start
            for _ in range(rng.choice(births)):
                g = create_pair(g, rng.randrange(len(g.face_table().orbits)), rng.choice((1, -1))).graph
            spheres.append(g)
    return spheres + [g.reverse() for g in spheres]


def test_an_embryo_death_is_the_cancellation_of_its_expansion():
    # the move reads the pair on the sphere where the embryo has not
    # expanded; the reference expands it and cancels the pair
    done, refused = 0, set()
    for g in _embryo_walks(99, 40, range(10)):
        for p in g.points_of_kind("embryo"):
            try:
                want = reference_eliminate_embryo(g, p.id)
            except MoveError as err:
                with pytest.raises(MoveError) as got:
                    eliminate_embryo(g, p.id)
                assert str(got.value) == str(err), (emit(g), p.id)
                refused.add(str(err))
                continue
            got = eliminate_embryo(g, p.id)
            assert emit(got.graph) == emit(want.graph), (emit(g), p.id)
            assert got.record == want.record
            done += 1
    assert done > 300 and refused == {
        "re-attachment needed but the surviving separatrix comes from a saddle",
        "both stable separatrices return to the cancelled point (same-sign bigon)",
    }


def test_an_embryo_death_re_attaches_both_kinds_of_far_end():
    # where the zone is empty and the inbound leaf's source emits nothing
    # else, a boundary leaf's far end needs a new leaf: markers into a sink
    # that holds nothing else, or a replacement into a saddle's slot
    sites, seen = 0, set()
    for g in _embryo_walks(4747, 60, range(1, 6)):
        for p in g.points_of_kind("embryo"):
            if p.sign < 0:
                continue
            e_in = g.edge_at_slot(p.id, "in")
            zone = [d for d in g.rotation[p.id] if g.dart_slot(d) == "zone"]
            if zone or any(eid != e_in.id for eid, _ in g.rotation[e_in.src.point]):
                continue
            sites += 1
            res = eliminate_embryo(g, p.id)
            assert res.graph.validate() == []
            kinds = {k for k in ("markers", "replacements") if res.record.details[k]}
            assert kinds, (emit(g), p.id)
            seen |= kinds
    assert sites > 20 and seen == {"markers", "replacements"}


def _outcome(move, g, embryo_id):
    try:
        return move(g, embryo_id).graph.canonical_form()
    except MoveError as err:
        return str(err)


def test_embryo_moves_read_the_zone_from_the_in_slot_wherever_the_tuple_starts():
    # rotation tuples are cyclic: a tuple that starts inside the zone run
    # lists the same sphere, so both moves give the same result on it
    rotated = 0
    for g in _embryo_walks(4848, 30, range(1, 8)):
        for p in g.points_of_kind("embryo"):
            seq = g.rotation[p.id]
            zone = [i for i, d in enumerate(seq) if g.dart_slot(d) == "zone"]
            if len(zone) < 2:
                continue
            i = zone[-1]
            turned = FoliationGraph(g.points, g.edges, {**g.rotation, p.id: seq[i:] + seq[:i]})
            assert turned.validate() == [] and turned.is_isomorphic(g)
            for move in (resolve_embryo, eliminate_embryo):
                assert _outcome(move, turned, p.id) == _outcome(move, g, p.id), (emit(g), p.id)
            rotated += 1
    assert rotated > 20


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
