"""Lyapunov and taming checks, simplicity reports, the path inequality."""

import gc
import graphlib
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charfol import HYPERBOLIC, GraphError, zoo
from charfol.handles import extend_to_ball, verify_decomposition
from charfol.invariants import Region, positive_tree
from charfol.taming import (
    is_lyapunov,
    is_taming,
    levels,
    lyapunov_violations,
    normalized_assignment,
    simplicity_check,
    stable_circles,
    sublevel_region,
)
from charfol.tightness import decide_tightness, verify_taming_order
from references import component_simple, eq_simplicity_check, eq_simplicity_violations, from_data

F = Fraction


def eh2_assignment():
    return {"a": F(0), "b": F(0), "h": F(1, 2), "z": F(1)}


def reading(g, a, hid):
    """+1 if the assignment reads saddle ``hid`` as a join, -1 as a split."""
    for level in simplicity_check(g, a).levels:
        if hid in level.joins:
            return 1
        if hid in level.splits:
            return -1
    raise AssertionError(f"{hid} is read at no level")


# ------------------------------------------------------------- basic checks


def test_one_saddle_assignment_is_taming_and_simple():
    g = zoo.example("tight_one_saddle")
    a = eh2_assignment()
    assert lyapunov_violations(g, a) == []
    rep = simplicity_check(g, a)
    assert rep.lyapunov_violations == () and rep.mismatched == ()
    assert rep.taming and is_taming(g, a)
    assert rep.circle_simple
    assert reading(g, a, "h") == 1


def test_saddle_below_its_sources_is_not_lyapunov():
    g = zoo.example("tight_one_saddle")
    a = {"a": F(1, 2), "b": F(0), "h": F(1, 4), "z": F(1)}
    bad = lyapunov_violations(g, a)
    assert bad and any("ea" in msg or "a" in msg for msg in bad)
    assert not is_lyapunov(g, a)
    assert not is_taming(g, a)


def test_negative_saddle_wants_a_split():
    g = zoo.example("tight_one_saddle_negative")
    a = {"p": F(0), "h": F(1, 2), "y": F(1), "z": F(1)}
    assert reading(g, a, "h") == -1
    assert is_taming(g, a)


def test_function_sign_mismatch_is_a_taming_violation():
    # a positive saddle fed twice by one source can only split, never join
    g = zoo.example("overtwisted_loop_positive")
    a = {"p": F(0), "h": F(1, 2), "y": F(1), "z": F(1)}
    assert is_lyapunov(g, a)
    assert reading(g, a, "h") == -1
    assert simplicity_check(g, a).mismatched == ("h",)
    assert not is_taming(g, a)


def test_normalized_assignment_shape():
    g = zoo.example("tight_one_saddle")
    a = normalized_assignment(g, ["h"])
    assert a == eh2_assignment()
    with pytest.raises(GraphError):
        normalized_assignment(g, [])
    with pytest.raises(GraphError):
        normalized_assignment(g, ["h", "h"])


def test_assignment_must_cover_every_point():
    g = zoo.example("tight_one_saddle")
    a = eh2_assignment()
    del a["z"]
    with pytest.raises(GraphError):
        is_taming(g, a)
    with pytest.raises(GraphError, match=r"assignment misses points \['z'\]"):
        simplicity_check(g, a)


# --------------------------------------------------------------- simplicity


def test_tie_level_breaks_simplicity_but_not_taming():
    # both saddles of the double join at one level: the level graph is a
    # double link between the same two circles, a cycle either way you read it
    g = zoo.example("double_join_cycle")
    a = {
        "p0": F(0), "p1": F(0),
        "h0": F(1, 2), "h1": F(1, 2),
        "z0": F(1), "z1": F(1),
    }
    assert is_taming(g, a)
    rep = simplicity_check(g, a)
    assert not rep.circle_simple
    level = rep.levels[0]
    assert level.value == F(1, 2)
    assert level.joins == ("h0", "h1") and level.splits == ()


def test_double_join_has_no_simple_order():
    g = zoo.example("double_join_cycle")
    for order in (["h0", "h1"], ["h1", "h0"]):
        a = normalized_assignment(g, order)
        # the second join closes a cycle of components, so its function sign
        # flips to a split and taming fails
        assert is_lyapunov(g, a)
        assert not is_taming(g, a)


def test_simplicity_requires_lyapunov():
    g = zoo.example("tight_one_saddle")
    a = {"a": F(1, 2), "b": F(0), "h": F(1, 4), "z": F(1)}
    rep = simplicity_check(g, a)
    assert rep.lyapunov_violations == tuple(lyapunov_violations(g, a)) != ()
    assert rep.levels == () and rep.mismatched == ()
    assert not (rep.taming or rep.circle_simple)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_taming_is_invariant_under_monotone_reparametrization(data):
    g = zoo.example("three_basin_chain")
    base = normalized_assignment(g, ["h0", "h1"])
    values = sorted(set(base.values()))
    deltas = data.draw(
        st.lists(
            st.fractions(min_value=F(1, 7), max_value=F(9)),
            min_size=len(values),
            max_size=len(values),
        )
    )
    start = data.draw(st.fractions(min_value=F(-5), max_value=F(5)))
    new_vals = []
    acc = start
    for d in deltas:
        new_vals.append(acc)
        acc += d
    remap = dict(zip(values, new_vals))
    a = {pid: remap[v] for pid, v in base.items()}
    assert is_lyapunov(g, a) == is_lyapunov(g, base)
    assert is_taming(g, a) == is_taming(g, base)
    rep0, rep1 = simplicity_check(g, base), simplicity_check(g, a)
    assert rep0.circle_simple == rep1.circle_simple


def tied_lyapunov(g, rng):
    """A Lyapunov assignment with many ties: sources at 0, sinks at the top,
    and each saddle-type point on a level drawn from 1..3, raised above
    every saddle-type point that feeds it."""
    feeders = {pid: set() for pid in g.points}
    for e in g.edges.values():
        feeders[e.dst.point].add(e.src.point)
    level = {}
    for pid in graphlib.TopologicalSorter(feeders).static_order():
        p = g.points[pid]
        if p.kind == "elliptic":
            level[pid] = 0 if p.sign > 0 else None
        else:
            below = [level[q] for q in feeders[pid] if level[q]]
            level[pid] = max([rng.randrange(1, 4)] + [l + 1 for l in below])
    top = max(l for l in level.values() if l is not None) + 1
    return {pid: F(top if l is None else l, top) for pid, l in level.items()}


def test_on_the_sphere_the_circle_forest_is_the_component_forest(
    universe_list, walked_spheres
):
    # the lemma of the taming module: a join's stable separatrices come from
    # two distinct sublevel components, and a level's joins form a forest on
    # circles exactly when they form one on components
    rng = random.Random(2525)
    spheres = universe_list + [zoo.example(n) for n in sorted(zoo.ZOO)]
    spheres += [g for _, g in walked_spheres]
    joins = levels_read = not_simple = 0
    for g in spheres + [g.reverse() for g in spheres]:
        for _ in range(3):
            a = tied_lyapunov(g, rng)
            report = simplicity_check(g, a)
            assert report.lyapunov_violations == ()
            assert report.circle_simple == component_simple(g, a), (g.canonical_form(), a)
            not_simple += not report.circle_simple
            for _, region, at in levels(g, a):
                comp = region.components()
                for hid in at:
                    if g.points[hid].kind != HYPERBOLIC:
                        continue
                    c0, c1 = stable_circles(region, hid)
                    if c0 != c1:
                        joins += 1
                        s0, s1 = (g.edge_at_slot(hid, s).src.point for s in ("s0", "s1"))
                        assert comp[s0] != comp[s1], (g.canonical_form(), hid, a)
                levels_read += 1
    assert joins > 1000 and levels_read > 2500 and not_simple > 40


# ------------------------------------------------------------- sublevel sets


def test_a_lone_source_may_split_at_the_very_bottom():
    g = zoo.example("tight_one_saddle_negative")
    # the split is forced to sit at the very bottom, below any merge
    a = {"p": F(0), "h": F(1, 100), "y": F(1), "z": F(1)}
    assert is_taming(g, a)  # a lone source component may split immediately


def test_one_sublevel_set_is_one_region_per_graph():
    g = zoo.example("tight_one_saddle")
    a = eh2_assignment()
    region = sublevel_region(g, a, F(1, 4))
    assert region.inside == {"a", "b"}
    assert sublevel_region(g, a, F(1, 2)) is region
    assert sublevel_region(g, a, F(3, 4)) is not region
    assert sublevel_region(zoo.example("tight_one_saddle"), a, F(1, 2)) is not region
    assert not sublevel_region(g, a, F(0)).inside


def reference_sublevel(g, a, t):
    """The sublevel set by one comparison per point."""
    return frozenset(pid for pid in g.points if a[pid] < t)


def test_sublevel_sets_and_the_level_walk_match_the_per_point_comparison(
    universe_list, walked_spheres
):
    rng = random.Random(8)
    checked = 0
    for g in universe_list + [g for _, g in walked_spheres]:
        saddle_order = sorted(p.id for p in g.saddle_points())
        # one assignment with distinct saddle values, one with ties everywhere
        ties = {pid: F(rng.randrange(4), 2) for pid in sorted(g.points)}
        for a in (normalized_assignment(g, saddle_order), ties):
            values = sorted(set(a.values()))
            between = [(u + v) / 2 for u, v in zip(values, values[1:])]
            for t in [values[0] - 1, *values, *between, values[-1] + 1]:
                assert sublevel_region(g, a, t).inside == reference_sublevel(g, a, t)
                checked += 1
            walked = list(levels(g, a))
            assert [v for v, _, _ in walked] == values
            for v, region, at in walked:
                assert region is sublevel_region(g, a, v)
                assert region.inside == reference_sublevel(g, a, v)
                assert at == tuple(sorted(pid for pid in g.points if a[pid] == v))
            # past the lowest level, the walk reads the sublevel set at each
            # regular threshold
            for (_, region, _), t in zip(walked[1:], between):
                assert region is sublevel_region(g, a, t)
    assert checked > 2000


def test_a_changed_assignment_changes_its_sublevel_sets():
    g = zoo.example("double_join_cycle")
    a = {"p0": F(0), "p1": F(0), "h0": F(1, 2), "h1": F(1, 2), "z0": F(1), "z1": F(1)}
    assert sublevel_region(g, a, F(1, 2)).inside == {"p0", "p1"}
    assert is_taming(g, a) and reading(g, a, "h1") == 1
    # h1 now comes after the join at h0, which it can only split
    a["h1"] = F(3, 4)
    assert sublevel_region(g, a, F(3, 4)).inside == {"p0", "p1", "h0"}
    assert reading(g, a, "h1") == -1 and not is_taming(g, a)
    assert [level.value for level in simplicity_check(g, a).levels] == [F(1, 2), F(3, 4)]


def fresh_copy(walked_spheres, label):
    """A copy of a walked sphere that nothing else refers to."""
    return from_data(dict(walked_spheres)[label].to_data())


def test_decide_and_extend_free_their_graph_without_the_cycle_collector(walked_spheres):
    gc.disable()
    try:
        g = fresh_copy(walked_spheres, "three_basin_chain+14")
        cert = decide_tightness(g)
        a = verify_taming_order(g, cert.saddle_order)
        dec = extend_to_ball(g, a)
        assert verify_decomposition(dec) == []
        # the region just below the top level, which every level walk cached
        top = max(a.values())
        region = Region.of(g, [pid for pid in g.points if a[pid] < top])
        assert region.boundary_circles()
        graph_ref, region_ref = weakref.ref(g), weakref.ref(region)
        del g, cert, a, dec, region
        assert graph_ref() is None and region_ref() is None
    finally:
        gc.enable()


def test_a_kept_simplicity_report_holds_no_graph(walked_spheres):
    g = fresh_copy(walked_spheres, "three_basin_chain+14")
    report = simplicity_check(g, verify_taming_order(g, decide_tightness(g).saddle_order))
    graph_ref = weakref.ref(g)
    del g
    gc.collect()
    assert graph_ref() is None
    # the forest of every level was read when the report was built
    assert report.circle_simple and all(level.circle_forest for level in report.levels)


# -------------------------------------------- path-inequality characterization

# Frozen instance: three sources in a row of positive saddles plus one
# negative saddle whose split must clear the *latest* join on the unique
# source-to-source path, not the earliest.
MAX_RULE_WITNESS = json.loads("""
{"edges": [
  {"id": "e0",  "src": {"point": "p0", "slot": null},  "dst": {"point": "h0", "slot": "s0"}, "marker": false},
  {"id": "e1",  "src": {"point": "h0", "slot": "u0"},  "dst": {"point": "z0", "slot": null}, "marker": false},
  {"id": "e10", "src": {"point": "p2", "slot": null},  "dst": {"point": "h2", "slot": "s1"}, "marker": false},
  {"id": "e11", "src": {"point": "h2", "slot": "u1"},  "dst": {"point": "z1", "slot": null}, "marker": false},
  {"id": "e2",  "src": {"point": "p1", "slot": null},  "dst": {"point": "h0", "slot": "s1"}, "marker": false},
  {"id": "e3",  "src": {"point": "h0", "slot": "u1"},  "dst": {"point": "z1", "slot": null}, "marker": false},
  {"id": "e4",  "src": {"point": "p0", "slot": null},  "dst": {"point": "h1", "slot": "s0"}, "marker": false},
  {"id": "e5",  "src": {"point": "h1", "slot": "u0"},  "dst": {"point": "z1", "slot": null}, "marker": false},
  {"id": "e6",  "src": {"point": "p2", "slot": null},  "dst": {"point": "h1", "slot": "s1"}, "marker": false},
  {"id": "e7",  "src": {"point": "h1", "slot": "u1"},  "dst": {"point": "z0", "slot": null}, "marker": false},
  {"id": "e8",  "src": {"point": "p1", "slot": null},  "dst": {"point": "h2", "slot": "s0"}, "marker": false},
  {"id": "e9",  "src": {"point": "h2", "slot": "u0"},  "dst": {"point": "z0", "slot": null}, "marker": false}],
 "points": [
  {"id": "h0", "kind": "hyperbolic", "sign": 1},
  {"id": "h1", "kind": "hyperbolic", "sign": 1},
  {"id": "h2", "kind": "hyperbolic", "sign": -1},
  {"id": "p0", "kind": "elliptic", "sign": 1},
  {"id": "p1", "kind": "elliptic", "sign": 1},
  {"id": "p2", "kind": "elliptic", "sign": 1},
  {"id": "z0", "kind": "elliptic", "sign": -1},
  {"id": "z1", "kind": "elliptic", "sign": -1}],
 "rotation": {
  "h0": [["e0", "tgt"], ["e1", "src"], ["e2", "tgt"], ["e3", "src"]],
  "h1": [["e4", "tgt"], ["e5", "src"], ["e6", "tgt"], ["e7", "src"]],
  "h2": [["e8", "tgt"], ["e9", "src"], ["e10", "tgt"], ["e11", "src"]],
  "p0": [["e0", "src"], ["e4", "src"]],
  "p1": [["e2", "src"], ["e8", "src"]],
  "p2": [["e6", "src"], ["e10", "src"]],
  "z0": [["e1", "tgt"], ["e7", "tgt"], ["e9", "tgt"]],
  "z1": [["e3", "tgt"], ["e11", "tgt"], ["e5", "tgt"]]}}
""")


def max_rule_graph():
    g = from_data(MAX_RULE_WITNESS)
    assert g.validate() == []
    return g


def test_path_inequality_uses_the_latest_join():
    g = max_rule_graph()
    # h2 splits the pair (p1, p2); their unique path p1 - p0 - p2 carries
    # both joins
    assert positive_tree(g).links == (("p0", "p1", "h0"), ("p0", "p2", "h1"))

    good = normalized_assignment(g, ["h0", "h1", "h2"])  # split after both joins
    assert is_taming(g, good)
    assert eq_simplicity_check(g, good)

    bad = normalized_assignment(g, ["h0", "h2", "h1"])  # split between the joins
    assert is_lyapunov(g, bad)
    assert not is_taming(g, bad)
    assert not eq_simplicity_check(g, bad)
    assert eq_simplicity_violations(g, bad) != []

    # the discriminating comparison: the split clears the earliest join on
    # the path but not the latest one, so only the latest-join rule rejects it
    assert bad["h2"] > min(bad["h0"], bad["h1"])
    assert not bad["h2"] > max(bad["h0"], bad["h1"])


def test_path_inequality_matches_taming_on_every_order(tight_instances):
    import itertools

    checked = 0
    for g in tight_instances:
        if g.homoclinic_edges() or not positive_tree(g).is_tree():
            continue
        saddles = sorted(p.id for p in g.points.values() if p.kind == "hyperbolic")
        for perm in itertools.permutations(saddles):
            a = normalized_assignment(g, list(perm))
            lhs = is_taming(g, a)
            rhs = is_lyapunov(g, a) and eq_simplicity_check(g, a)
            assert lhs == rhs, (g.canonical_form(), perm)
            checked += 1
    assert checked == 107
