"""Decision procedure, allowable vertices, enumeration, the oracle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from charfol import ELLIPTIC, FoliationGraph, GraphError
from charfol import handles, taming, tightness, zoo
from charfol.cli import emit, main, parse
from charfol.invariants import point_surplus
from charfol.model import EMBRYO
from charfol.moves import MoveError, create_pair, eliminate_embryo, eliminate_pair
from charfol.tightness import (
    DecisionError,
    InternalCheckError,
    allowable_candidates,
    classify_allowable,
    decide_tightness,
    enumerate_foliations,
    enumerate_signature,
    oracle_tightness,
    synthesize_taming,
    verify_taming_order,
)
from references import enumerate_reference, from_data, without_edge

F = Fraction

FROZEN_VERDICTS = {
    "chained_saddles": "overtwisted",
    "double_join_cycle": "overtwisted",
    "embryo_negative": "tight",
    "embryo_positive": "tight",
    "overtwisted_loop_negative": "overtwisted",
    "overtwisted_loop_positive": "overtwisted",
    "three_basin_chain": "tight",
    "tight_one_saddle": "tight",
    "tight_one_saddle_negative": "tight",
    "tight_saddle_connection": "tight",
    "trivial": "tight",
}

# (class count, tight count) per (positive, negative) saddle signature
FROZEN_UNIVERSE = {
    (0, 0): (1, 1),
    (1, 0): (2, 1),
    (0, 1): (2, 1),
    (2, 0): (4, 1),
    (1, 1): (5, 2),
    (0, 2): (4, 1),
    (3, 0): (14, 2),
    (2, 1): (30, 6),
    (1, 2): (30, 6),
    (0, 3): (14, 2),
}


@pytest.mark.parametrize("name", sorted(FROZEN_VERDICTS))
def test_fixture_verdicts_frozen(name):
    cert = decide_tightness(zoo.example(name))
    assert cert.verdict == FROZEN_VERDICTS[name]
    assert cert.tight == (cert.verdict == "tight")


def test_certificates_carry_their_evidence():
    tight = decide_tightness(zoo.example("tight_one_saddle"))
    assert tight.saddle_order == ("h",)
    assert tight.assignment == {"a": F(0), "b": F(0), "h": F(1, 2), "z": F(1)}

    ot = decide_tightness(zoo.example("overtwisted_loop_positive"))
    assert ot.reason == "point surplus (0, 2) != (1, 1)"
    assert ot.polygon is not None and ot.polygon.signs == {1}
    data = ot.to_data()
    assert data["polygon"]["embedded"] and data["polygon"]["faces"] == [0]


def test_a_mismatch_past_the_polygon_limit_builds_no_faces(monkeypatch):
    # the surplus decides it; the face count that rules out the subset search
    # and the cycle polygon that replaces it, from Γ+ on a surplus of (0, 2)
    # and from Γ- on (2, 0), both come from the face table
    cases = []
    for name, sign, surplus in (
        ("overtwisted_loop_positive", 1, (0, 2)),
        ("overtwisted_loop_negative", -1, (2, 0)),
    ):
        g = _walk(
            zoo.example(name),
            random.Random(7),
            lambda h: len(h.faces()) > tightness.MAX_POLYGON_FACES,
        )
        expected = decide_tightness(g).to_data()
        polygon = expected["polygon"]
        assert polygon["embedded"] and polygon["same_sign"]
        assert {c["sign"] for c in polygon["corners"]} == {sign}
        assert {k: v for k, v in expected.items() if k != "polygon"} == {
            "verdict": "overtwisted",
            "reason": f"point surplus {surplus} != (1, 1)",
        }
        cases.append((g, expected))

    def refuse(self):
        raise AssertionError("faces built for a sphere past the polygon limit")

    monkeypatch.setattr(FoliationGraph, "faces", refuse)
    for g, expected in cases:
        assert decide_tightness(from_data(g.to_data())).to_data() == expected


def test_chain_certificate_assignment():
    cert = decide_tightness(zoo.example("three_basin_chain"))
    assert cert.saddle_order == ("h0", "h1")
    assert cert.assignment == {
        "p0": F(0), "p1": F(0), "p2": F(0),
        "h0": F(1, 3), "h1": F(2, 3), "z": F(1),
    }


def test_saddle_connection_decision_branches():
    cert = decide_tightness(zoo.example("tight_saddle_connection"))
    assert cert.tight
    assert cert.resolved_connection == "conn"
    assert len(cert.branches) == 2
    assert all(b.tight for b in cert.branches)
    assert "both resolutions" in cert.reason


def test_decision_rejects_invalid_input():
    bad = without_edge(zoo.example("tight_one_saddle"), "f1")
    with pytest.raises(GraphError):
        decide_tightness(bad)


def test_internal_check_error_is_a_decision_error():
    assert issubclass(InternalCheckError, DecisionError)
    assert issubclass(DecisionError, GraphError)


def _no_synthesis_and_no_polygon(monkeypatch):
    monkeypatch.setattr(tightness, "synthesize_taming", lambda g: None)
    monkeypatch.setattr(tightness, "witness_polygon", lambda g: None)


def test_a_missed_taming_order_is_an_internal_check_error(monkeypatch, tmp_path, capsys):
    # the oracle finds the order that synthesis missed
    _no_synthesis_and_no_polygon(monkeypatch)
    g = zoo.example("tight_one_saddle")
    with pytest.raises(InternalCheckError, match="synthesis missed a taming order"):
        decide_tightness(g)
    path = tmp_path / "one.fol"
    path.write_text(emit(g))
    assert main(["decide", "-i", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    message = "synthesis missed a taming order the exhaustive search found"
    assert json.loads(captured.out) == {"error": "internal", "message": message}
    assert captured.err == f"internal check failed: {message}\n"


def test_without_synthesis_or_polygon_the_oracle_is_the_evidence(monkeypatch, universe_list):
    g = next(
        g
        for g in universe_list
        if point_surplus(g) == (1, 1) and g.saddle_points() and not decide_tightness(g).tight
    )
    tried = oracle_tightness(g)["orders_tried"]
    _no_synthesis_and_no_polygon(monkeypatch)
    cert = decide_tightness(g)
    assert cert.verdict == "overtwisted" and cert.polygon is None
    assert cert.reason == (
        f"no simple taming order exists (all {tried} orderings exhausted, no polygon found)"
    )


# --------------------------------------------------------- allowable vertices


def test_classify_allowable_cases():
    cases = {
        ("tight_one_saddle", "h"): ("PosHypDistinctSources", ("a", "b")),
        ("tight_one_saddle_negative", "h"): ("NegHypSameSource", ("p",)),
        ("embryo_positive", "B"): ("PosEmbryoEllipticSource", ("p",)),
        ("embryo_negative", "B"): ("NegEmbryoAllFromOneElliptic", ("z",)),
        ("overtwisted_loop_positive", "h"): ("NotAllowable", ()),
    }
    for (name, pid), (case, witnesses) in cases.items():
        v = classify_allowable(zoo.example(name), pid)
        assert (v.case, v.witnesses) == (case, witnesses), (name, pid)
        assert v.allowable == (case != "NotAllowable")


def test_allowable_candidates_on_fixtures():
    assert [v.point for v in allowable_candidates(zoo.example("tight_one_saddle"))] == ["h"]
    assert allowable_candidates(zoo.example("overtwisted_loop_positive")) == []
    assert allowable_candidates(zoo.example("trivial")) == []  # nothing to pick
    got = allowable_candidates(zoo.example("three_basin_chain"))
    assert [v.point for v in got] == ["h0", "h1"]


# ------------------------------------------------------------------ synthesis


def test_synthesize_orders_frozen():
    assert synthesize_taming(zoo.example("trivial")) == ()
    assert synthesize_taming(zoo.example("tight_one_saddle")) == ("h",)
    assert synthesize_taming(zoo.example("tight_one_saddle_negative")) == ("h",)
    assert synthesize_taming(zoo.example("embryo_positive")) == ("B",)
    assert synthesize_taming(zoo.example("embryo_negative")) == ("B",)
    assert synthesize_taming(zoo.example("three_basin_chain")) == ("h0", "h1")
    assert synthesize_taming(zoo.example("overtwisted_loop_positive")) is None
    assert synthesize_taming(zoo.example("double_join_cycle")) is None


# an untameable class of the (2, 1) universe: surplus (1, 1), no taming order
UNTAMEABLE = """foliation v1
point h0 hyperbolic +
point h1 hyperbolic +
point h2 hyperbolic -
point p0 elliptic +
point p1 elliptic +
point p2 elliptic +
point z0 elliptic -
point z1 elliptic -
sep e0 p0 h0:s0
sep e1 h0:u0 z0
sep e10 p2 h2:s1
sep e11 h2:u1 z1
sep e2 p1 h0:s1
sep e3 h0:u1 z1
sep e4 p0 h1:s0
sep e5 h1:u0 z1
sep e6 p1 h1:s1
sep e7 h1:u1 z0
sep e8 p1 h2:s0
sep e9 h2:u0 z1
rot h0: e0.tgt e1.src e2.tgt e3.src
rot h1: e4.tgt e5.src e6.tgt e7.src
rot h2: e8.tgt e9.src e10.tgt e11.src
rot p0: e0.src e4.src
rot p1: e2.src e6.src e8.src
rot p2: e10.src
rot z0: e1.tgt e7.tgt
rot z1: e3.tgt e11.tgt e9.tgt e5.tgt
"""


def _walk(g: FoliationGraph, rng: random.Random, done) -> FoliationGraph:
    while not done(g):
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    return g


def test_first_try_synthesis_never_computes_a_canonical_form(monkeypatch):
    # neither a search that succeeds at once nor one that backtracks to
    # exhaustion computes a canonical form: the memo is keyed by saddle ids
    g = _walk(
        zoo.example("tight_one_saddle"), random.Random(4), lambda h: len(h.saddle_points()) >= 10
    )
    expected = decide_tightness(g).to_data()
    assert expected["verdict"] == "tight"
    untameable = _walk(parse(UNTAMEABLE).graph, random.Random(11), lambda h: len(h.points) >= 12)

    def refuse(self):
        raise AssertionError("canonical_form called on the first-try path")

    monkeypatch.setattr(FoliationGraph, "canonical_form", refuse)
    assert decide_tightness(from_data(g.to_data())).to_data() == expected
    assert synthesize_taming(untameable) is None
    assert decide_tightness(untameable).reason == "no simple taming order exists"


def test_failure_memo_prunes_as_before(monkeypatch):
    # two pairs planted in the untameable class make the search meet
    # dead ends again: the memo prunes them (7 hits at the commit that keyed
    # every node), and allowable_candidates runs on 9 nodes (6 when the memo
    # was keyed by canonical form, which also pruned isomorphs with other
    # saddle sets); verdict and certificate are pinned from that commit
    g = _walk(parse(UNTAMEABLE).graph, random.Random(11), lambda h: len(h.points) >= 12)
    calls = []
    real = tightness.allowable_candidates

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(tightness, "allowable_candidates", counted)
    assert synthesize_taming(g) is None
    assert len(calls) == 9
    assert decide_tightness(g).to_data() == {
        "verdict": "overtwisted",
        "reason": "no simple taming order exists",
        "polygon": {
            "corners": [
                {"point": "h0", "role": "pseudovertex", "sign": 1},
                {"point": "p1", "role": "vertex", "sign": 1},
                {"point": "h1", "role": "pseudovertex", "sign": 1},
                {"point": "p0", "role": "vertex", "sign": 1},
            ],
            "embedded": True,
            "faces": [0, 2],
            "same_sign": True,
            "sides": 2,
        },
    }


def reference_synthesis(g: FoliationGraph, nodes: list | None = None):
    """``synthesize_taming`` as it read when its failure memo was keyed by
    canonical form, inside buckets of edge count and the multiset of point
    kinds and signs.  With ``nodes``, each node the search enters is
    appended as (set of saddle-type ids, canonical form)."""
    failures: dict[tuple, set[str]] = {}

    def recurse(h):
        if nodes is not None:
            nodes.append((frozenset(p.id for p in h.saddle_points()), h.canonical_form()))
        if not h.saddle_points():
            return []
        bucket = (len(h.edges), tuple(sorted((p.kind, p.sign) for p in h.points.values())))
        if bucket in failures and h.canonical_form() in failures[bucket]:
            return None
        for cand in allowable_candidates(h):
            if cand.case == "PosHypDistinctSources":
                e_a, e_b = cand.witnesses
                try:
                    collapsed = eliminate_pair(h, e_a, cand.point).graph
                except MoveError:
                    try:
                        collapsed = eliminate_pair(h, e_b, cand.point).graph
                    except MoveError:
                        continue
                sub = recurse(collapsed)
                if sub is not None:
                    return [cand.point] + sub
            elif cand.case == "NegHypSameSource":
                side0, side1 = tightness.split_at_negative_saddle(
                    h, cand.point, cand.witnesses[0]
                )
                sub0 = recurse(side0)
                if sub0 is None:
                    continue
                sub1 = recurse(side1)
                if sub1 is None:
                    continue
                return [cand.point] + sub0 + sub1
            else:
                try:
                    collapsed = eliminate_embryo(h, cand.point).graph
                except MoveError:
                    continue
                sub = recurse(collapsed)
                if sub is not None:
                    return sub
        failures.setdefault(bucket, set()).add(h.canonical_form())
        return None

    order = recurse(g)
    if order is None:
        return None
    embryo_ids = sorted(p.id for p in g.points.values() if p.kind == EMBRYO)
    return tuple(embryo_ids + order)


@pytest.fixture(scope="module")
def synthesis_inputs(universe_list, walked_spheres):
    """The <=3-saddle universe and its flow reversals, the zoo, the walked
    spheres and the untameable class's seeded walk."""
    untameable = _walk(parse(UNTAMEABLE).graph, random.Random(11), lambda h: len(h.points) >= 12)
    return (
        universe_list
        + [g.reverse() for g in universe_list]
        + [zoo.example(name) for name in sorted(zoo.ZOO)]
        + [g for _, g in walked_spheres]
        + [untameable]
    )


def test_a_synthesis_node_is_fixed_by_its_saddle_set(synthesis_inputs):
    # the lemma behind synthesize_taming's memo: within one search, every
    # node entered with a given set of saddle-type ids has one canonical form
    repeats = 0
    for g in synthesis_inputs:
        nodes = []
        reference_synthesis(g, nodes)
        forms = {}
        for key, form in nodes:
            repeats += key in forms
            assert forms.setdefault(key, form) == form
    # the search meets many sets again, so the check is not vacuous
    assert repeats > 400


def test_synthesis_matches_the_canonical_form_memo(synthesis_inputs):
    orders = [synthesize_taming(g) for g in synthesis_inputs]
    assert orders == [reference_synthesis(g) for g in synthesis_inputs]
    assert any(o is None for o in orders) and any(o for o in orders)


def test_a_dead_child_is_skipped_before_its_move(monkeypatch, synthesis_inputs):
    # a dead set is looked up before the move that would build it: on these
    # inputs no search builds a non-empty set twice (84 are built again
    # when the lookup waits until the child is entered); the empty set is
    # where every finished branch ends
    built = []

    def recording(move):
        def wrapped(*args):
            out = move(*args)
            key = frozenset(p.id for p in out.graph.saddle_points())
            if key:
                built.append(key)
            return out

        return wrapped

    monkeypatch.setattr(tightness, "eliminate_pair", recording(eliminate_pair))
    monkeypatch.setattr(tightness, "eliminate_embryo", recording(eliminate_embryo))
    for g in synthesis_inputs:
        built.clear()
        synthesize_taming(g)
        assert len(built) == len(set(built))


def test_a_split_with_a_dead_side_is_not_cut(monkeypatch, synthesis_inputs):
    # both sides of a split are looked up before the cut: no cut is made
    # while either side's saddle set is dead (145 of 444 cuts on these
    # inputs had one when the sides were looked up after the cut; 273 cuts
    # are left), and side 1 is capped only once side 0 has an order
    events = []
    real_candidates = tightness.allowable_candidates
    real_split = tightness.split_at_negative_saddle

    def key(h):
        return frozenset(p.id for p in h.saddle_points())

    def entering(h):
        events.append(("enter", key(h), h))
        return real_candidates(h)

    def cutting(h, saddle_id, source_id):
        keys = tuple(key(side) for side in real_split(h, saddle_id, source_id))
        capped = []
        events.append(("cut", keys, capped))
        for side in real_split(h, saddle_id, source_id):
            capped.append(side)
            yield side

    cuts = 0
    for g in synthesis_inputs:
        events.clear()
        with monkeypatch.context() as m:
            m.setattr(tightness, "allowable_candidates", entering)
            m.setattr(tightness, "split_at_negative_saddle", cutting)
            synthesize_taming(g)
        # a node is fixed by its key, so the reference search tells which
        # keys die; a node's own search meets only smaller keys, so its key
        # may count as dead from the moment it is entered
        fails = {}
        for kind, k, h in events:
            if kind == "enter" and k not in fails:
                fails[k] = reference_synthesis(h) is None
        dead = set()
        for kind, k, detail in events:
            if kind == "enter":
                if fails[k]:
                    dead.add(k)
                continue
            cuts += 1
            assert not dead & set(k)
            if fails.get(k[0]):
                assert len(detail) == 1
    assert cuts > 100


def test_verify_taming_order_round_trip():
    g = zoo.example("three_basin_chain")
    a = verify_taming_order(g, ("h0", "h1"))
    assert a is not None and a["h0"] == F(1, 3)
    # the two joins are independent, so the mirrored order tames as well
    b = verify_taming_order(g, ("h1", "h0"))
    assert b is not None and b["h1"] == F(1, 3)
    assert verify_taming_order(g, ("h0",)) is None  # incomplete order
    cyc = zoo.example("double_join_cycle")
    assert verify_taming_order(cyc, ("h0", "h1")) is None
    assert verify_taming_order(cyc, ("h1", "h0")) is None


def test_one_scan_and_one_walk_read_an_assignment(monkeypatch):
    # one simplicity report answers Lyapunov, taming and simple; extending
    # walks the levels once more for its records (3 scans and 2 walks, then
    # 2 scans and 3 walks, when each question read the assignment again)
    g = zoo.example("three_basin_chain")
    calls = {"scan": 0, "walk": 0}
    scan, walk = taming.lyapunov_violations, taming.levels

    def counted_scan(*args):
        calls["scan"] += 1
        return scan(*args)

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(taming, "lyapunov_violations", counted_scan)
    monkeypatch.setattr(taming, "levels", counted_walk)
    monkeypatch.setattr(handles, "levels", counted_walk)
    a = verify_taming_order(g, ("h0", "h1"))
    assert a is not None and calls == {"scan": 1, "walk": 1}
    calls.update(scan=0, walk=0)
    handles.extend_to_ball(g, a)
    assert calls == {"scan": 1, "walk": 2}


# -------------------------------------------------------------------- oracle


def test_oracle_agrees_on_fixtures():
    for name, verdict in FROZEN_VERDICTS.items():
        g = zoo.example(name)
        if g.homoclinic_edges():
            continue
        assert oracle_tightness(g)["tight"] == (verdict == "tight"), name


def test_oracle_reports_its_search():
    out = oracle_tightness(zoo.example("tight_one_saddle"))
    assert out == {
        "tight": True,
        "order": ["h"],
        "assignment": {"a": F(0), "b": F(0), "h": F(1, 2), "z": F(1)},
        "orders_tried": 1,
    }
    miss = oracle_tightness(zoo.example("double_join_cycle"))
    assert miss["tight"] is False and miss["orders_tried"] == 2


def test_oracle_preconditions():
    with pytest.raises(DecisionError, match="connection-free"):
        oracle_tightness(zoo.example("tight_saddle_connection"))
    big = _walk(parse(UNTAMEABLE).graph, random.Random(11), lambda h: len(h.points) > 12)
    with pytest.raises(DecisionError, match="oracle bound is 12"):
        oracle_tightness(big)


# --------------------------------------------------------------- enumeration


def test_universe_counts_frozen(universe3):
    got = {sig: len(graphs) for sig, graphs in universe3.items()}
    assert got == {sig: n for sig, (n, _) in FROZEN_UNIVERSE.items()}
    assert sum(got.values()) == 106


def test_universe_tight_counts_frozen(universe3):
    for sig, graphs in sorted(universe3.items()):
        tight = sum(1 for g in graphs if decide_tightness(g).tight)
        assert (len(graphs), tight) == FROZEN_UNIVERSE[sig], sig
    assert sum(t for _, t in FROZEN_UNIVERSE.values()) == 23


def test_universe_instances_are_valid_and_distinct(universe_list):
    forms = [g.canonical_form() for g in universe_list]
    assert len(set(forms)) == len(forms)
    for g in universe_list:
        assert g.validate() == []


def test_reference_enumeration_matches_fast_enumeration():
    # the reference route assembles every set partition and cyclic order on
    # both sides; the fast route ranges over source rotations only and derives
    # the sink rotations — they must agree class-for-class
    for sig in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        ref = {g.canonical_form() for g in enumerate_reference(*sig)}
        fast = {
            g.canonical_form()
            for g in enumerate_signature(sum(sig))
            if sum(p.sign > 0 for p in g.saddle_points()) == sig[0]
        }
        assert ref == fast, sig


def test_universe_faces_are_source_saddle_sink_saddle(universe3):
    # the lemma behind enumerate_signature: without connections or markers,
    # every face is a quadrilateral and each source corner opens one face
    for sig, graphs in sorted(universe3.items()):
        if sig == (0, 0):
            continue  # the trivial sphere keeps its marker leaf
        for g in graphs:
            faces = g.faces()
            for f in faces:
                flavors = [c.flavor for c in f.corners]
                i = flavors.index("source")
                assert flavors[i:] + flavors[:i] == ["source", "through", "sink", "through"]
            source_corners = sum(
                len(g.rotation[p.id]) for p in g.points_of_kind(ELLIPTIC) if p.sign > 0
            )
            assert len(faces) == source_corners == 2 * sum(sig), sig


def test_enumerate_signature_bound():
    with pytest.raises(DecisionError, match=r"^enumeration bounded to 0\.\.4 saddles, got 5$"):
        enumerate_signature(5)
    with pytest.raises(DecisionError, match="three saddles"):
        enumerate_reference(2, 2)


@pytest.mark.parametrize("bound", [5, -1])
def test_enumeration_bound_is_checked_before_any_work(monkeypatch, bound):
    built = []
    monkeypatch.setattr(tightness, "enumerate_signature", built.append)
    message = rf"^enumeration bounded to 0\.\.4 saddles, got {bound}$"
    with pytest.raises(DecisionError, match=message):
        tightness.universe(bound)
    with pytest.raises(DecisionError, match=message):
        next(enumerate_foliations(bound, allow_embryos=True, allow_homoclinics=True))
    assert built == []


def test_enumerate_foliations_counts():
    assert sum(1 for _ in enumerate_foliations(1)) == 5
    flagged = sum(
        1 for _ in enumerate_foliations(1, allow_embryos=True, allow_homoclinics=True)
    )
    assert flagged == 7


# ------------------------------------------------------- annulus splitting


def _split_sites(universe_list, walked_spheres):
    """(label, graph, saddle, source) for every NegHypSameSource candidate of
    the universe and every split that deciding the walked spheres considers,
    recorded where synthesis looks its sides up, before any is found dead."""
    sites = []
    for i, g in enumerate(universe_list):
        for cand in allowable_candidates(g):
            if cand.case == "NegHypSameSource":
                sites.append((f"u{i}", g, cand.point, cand.witnesses[0]))
    real = tightness._side_keys

    def record(h, saddle_id, source_id):
        sites.append((label, h, saddle_id, source_id))
        return real(h, saddle_id, source_id)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tightness, "_side_keys", record)
        for label, g in walked_spheres:
            decide_tightness(g)
    return sites


# sha256 of the split transcript below, taken before the cut lost its
# reversed-cap fallback and its private complement search
SPLIT_GOLDEN = "326ebaee0927d6afff1f4f4497d85e9a50f4f202c094e7788a9c77ad0bb02622"


def test_split_at_negative_saddle_is_pinned(universe_list, walked_spheres):
    sites = _split_sites(universe_list, walked_spheres)
    lines = []
    crossings = []
    for label, g, saddle_id, source_id in sites:
        lines.append(f"## {label} {saddle_id} {source_id}")
        sides = tuple(tightness.split_at_negative_saddle(g, saddle_id, source_id))
        # synthesis reads each side's saddle set before it cuts
        assert tightness._side_keys(g, saddle_id, source_id) == tuple(
            frozenset(p.id for p in side.saddle_points()) for side in sides
        )
        kept = []
        for side in sides:
            assert side.validate() == []
            (cap,) = set(side.points) - set(g.points)
            assert (side.points[cap].kind, side.points[cap].sign) == (ELLIPTIC, 1)
            crossings.append(len(side.rotation[cap]))
            kept.append(set(side.points) - {cap})
            lines.append(emit(side))
        # the sides split the complement of the annulus between them
        assert not kept[0] & kept[1]
        assert kept[0] | kept[1] == set(g.points) - {source_id, saddle_id}
    # the sample holds caps of many leaves, where a reversed order differs
    assert len(sites) > 80 and max(crossings) >= 10
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SPLIT_GOLDEN
