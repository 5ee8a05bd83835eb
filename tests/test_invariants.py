"""Surplus counts, transverse regions, polygons, skeleton, positive tree."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from charfol import ELLIPTIC, HYPERBOLIC, FoliationGraph, GraphError
from charfol import zoo
from charfol import invariants
from charfol.invariants import (
    Polygon,
    PolygonCorner,
    Region,
    enumerate_polygons,
    find_same_sign_polygon,
    is_morse_smale,
    point_surplus,
    positive_tree,
    separatrix_cycle,
    skeleton_decomposition,
    surplus,
    trace_polygon,
)
from charfol.model import InternalCheckError, end_direction
from charfol.moves import create_pair
from charfol.tightness import decide_tightness

ZOO_NAMES = sorted(zoo.ZOO)

FROZEN_SURPLUS = {
    "chained_saddles": (0, 2),
    "double_join_cycle": (0, 2),
    "embryo_negative": (1, 1),
    "embryo_positive": (1, 1),
    "overtwisted_loop_negative": (2, 0),
    "overtwisted_loop_positive": (0, 2),
    "three_basin_chain": (1, 1),
    "tight_one_saddle": (1, 1),
    "tight_one_saddle_negative": (1, 1),
    "tight_saddle_connection": (1, 1),
    "trivial": (1, 1),
}


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_point_surplus_frozen(name):
    assert point_surplus(zoo.example(name)) == FROZEN_SURPLUS[name]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_surplus_components_sum_to_two(name):
    dp, dm = point_surplus(zoo.example(name))
    assert dp + dm == 2


def test_surplus_flips_under_reversal():
    g = zoo.example("overtwisted_loop_positive")
    dp, dm = point_surplus(g)
    assert point_surplus(g.reverse()) == (dm, dp)


# ------------------------------------------------------------------ regions


def test_region_below_a_negative_saddle_is_an_annulus():
    g = zoo.example("tight_one_saddle_negative")
    region = Region(g, {"p", "h"})
    assert region.validate() == []
    dp, dm = surplus(g.points[pid] for pid in region.inside)
    components = len(set(region.components().values()))
    circles = len(region.boundary_circles())
    assert (dp, dm) == (1, -1)
    assert components == 1 and circles == 2
    # each component is a sphere with holes, so the Euler characteristic is
    # 2 * components - circles
    assert dp + dm == 2 * components - circles == 0
    assert region.cut_edges() == ["k0", "k1"]


def test_region_single_source_is_a_disc():
    g = zoo.example("tight_one_saddle")
    region = Region(g, {"a"})
    assert region.validate() == []
    assert len(set(region.components().values())) == 1
    assert len(region.boundary_circles()) == 1
    assert region.circle_of_edge("ea") == 0
    with pytest.raises(GraphError):
        region.circle_of_edge("eb")


def test_region_rejects_inward_flow():
    g = zoo.example("tight_one_saddle")
    # the sink pulls every separatrix inward: not a transverse exit boundary
    region = Region(g, {"z"})
    problems = region.validate()
    assert any("points into the region" in p for p in problems)
    with pytest.raises(GraphError):
        region.boundary_circles()


def test_region_rejects_unknown_points():
    with pytest.raises(GraphError):
        Region(zoo.example("trivial"), {"nope"})


def test_boundary_circle_key_is_rotation_invariant():
    g = zoo.example("tight_one_saddle_negative")
    region = Region(g, {"p", "h"})
    for circle in region.boundary_circles():
        items = circle.items
        rotated = type(circle)(items[2:] + items[:2])
        assert rotated.key() == circle.key()


def test_boundary_circle_key_is_kept_out_of_equality():
    g = zoo.example("tight_one_saddle_negative")
    circle = Region(g, {"p", "h"}).boundary_circles()[0]
    assert circle.key() is circle.key()
    fresh = type(circle)(circle.items)
    assert fresh == circle and hash(fresh) == hash(circle)
    assert fresh.key() == circle.key()


def test_region_of_is_one_object_per_graph_and_point_set():
    g = zoo.example("tight_one_saddle")
    region = Region.of(g, {"a", "b"})
    assert Region.of(g, ["b", "a"]) is region
    assert Region.of(g, {"a"}) is not region
    other = zoo.example("tight_one_saddle")
    twin = Region.of(other, {"a", "b"})
    assert twin is not region and twin.graph is other
    assert twin.boundary_circles() is not region.boundary_circles()
    assert twin.boundary_circles() == region.boundary_circles()


def test_region_components_hand_out_copies():
    g = zoo.example("tight_one_saddle")
    region = Region.of(g, {"a", "b", "h"})
    comp = region.components()
    assert len(set(comp.values())) == 1
    comp["a"] = "elsewhere"
    del comp["b"]
    again = region.components()
    assert again is not comp
    assert set(again) == {"a", "b", "h"} and len(set(again.values())) == 1


def test_circle_of_edge_rejects_non_cut_edges_after_the_map_is_built():
    g = zoo.example("tight_one_saddle")
    region = Region.of(g, {"a", "b", "h"})
    crossed = {eid for c in region.boundary_circles() for eid in c.crossed_edges()}
    assert crossed == set(region.cut_edges())
    for eid in sorted(crossed):
        assert region.circle_of_edge(eid) == 0
    for eid in sorted(set(g.edges) - crossed):  # interior edges
        with pytest.raises(GraphError, match="not a cut edge"):
            region.circle_of_edge(eid)


# sha256 of the region transcript below, taken while boundary circles were
# still traced by classifying runs of sides and corners face by face
REGIONS_GOLDEN = "e672705d1ae6adbe13d050ea1c3b925dbb5b9ff87b0b4d5a555aceac3e3248ea"


def reference_region_problems(region):
    """Region.validate as a scan of every edge and every face of the graph."""
    g, inside = region.graph, region.inside
    problems = [
        f"edge {eid} points into the region"
        for eid, e in sorted(g.edges.items())
        if e.src.point not in inside and e.dst.point in inside
    ]
    for f in g.faces():
        touches = any(c.point in inside for c in f.corners)
        (source,) = f.source_corners
        if touches and source.point not in inside:
            problems.append(
                f"face {f.index} touches the region but its source corner is outside"
            )
    return problems


def test_boundary_circles_of_every_universe_region_are_pinned(universe_list):
    lines = []
    valid = 0
    for i, g in enumerate(universe_list):
        pids = sorted(g.points)
        for size in range(len(pids) + 1):
            for inside in itertools.combinations(pids, size):
                # a fresh region each time: these must not fill the graph's cache
                region = Region(g, inside)
                head = f"{i} {','.join(inside)}"
                problems = region.validate()
                assert problems == reference_region_problems(region)
                if problems:
                    with pytest.raises(GraphError):
                        region.boundary_circles()
                    lines.append(f"{head} invalid")
                    continue
                valid += 1
                circles = [c.items for c in region.boundary_circles()]
                owners = [(e, region.circle_of_edge(e)) for e in region.cut_edges()]
                lines.append(f"{head} {circles!r} {owners!r}")
    assert len(lines) > 20000 and valid > 2000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REGIONS_GOLDEN


# ----------------------------------------------------------------- polygons


def test_no_polygon_on_tight_fixture():
    assert find_same_sign_polygon(zoo.example("tight_one_saddle")) is None
    assert find_same_sign_polygon(zoo.example("trivial")) is None


def test_positive_loop_carries_an_all_positive_monogon():
    g = zoo.example("overtwisted_loop_positive")
    poly = find_same_sign_polygon(g)
    assert poly is not None
    assert poly.signs == {1}
    assert poly.embedded
    assert poly.sides == 1
    assert sorted(poly.face_indices) == [0]
    # the saddle sits inside the side as a pseudovertex
    roles = {c.point: c.role for c in poly.corners}
    assert roles == {"p": "vertex", "h": "pseudovertex"}


def test_negative_loop_polygon_has_opposite_sign():
    poly = find_same_sign_polygon(zoo.example("overtwisted_loop_negative"))
    assert poly is not None and poly.signs == {-1} and poly.embedded


def test_double_join_cycle_polygon():
    g = zoo.example("double_join_cycle")
    poly = find_same_sign_polygon(g)
    assert poly is not None
    assert poly.signs == {1} and poly.embedded
    assert sorted(poly.face_indices) == [0, 3]
    assert poly.sides == 2


def reference_trace_polygon(g, face_set):
    """trace_polygon over ``Face`` objects and tuple darts.

    The face of each dart comes from ``faces()``, and the rotation successor
    from the corners: a corner entered along ``d`` leaves along the dart
    after ``d`` counterclockwise.  Directions come from the slots.
    """
    faces = g.faces()
    if not face_set or not face_set <= set(range(len(faces))):
        return None
    if len(face_set) == len(faces):
        return None  # the whole sphere
    face_of = {d: f.index for f in faces for d in f.darts}
    sigma = {c.enter: c.leave for f in faces for c in f.corners}
    theta = FoliationGraph.theta
    seen = {min(face_set)}
    frontier = [min(face_set)]
    while frontier:
        for d in faces[frontier.pop()].darts:
            j = face_of[theta(d)]
            if j in face_set and j not in seen:
                seen.add(j)
                frontier.append(j)
    if seen != face_set:
        return None
    closure = [faces[i] for i in face_set]
    points = {c.point for f in closure for c in f.corners}
    edges = {d[0] for f in closure for d in f.darts}
    if len(points) - len(edges) + len(closure) != 1:
        return None

    boundary_sides = sorted(
        d for f in closure for d in f.darts if face_of[theta(d)] not in face_set
    )
    assert boundary_sides, "a nonempty proper face set has a boundary"

    def next_side(d):
        """Departure dart at the point reached by d, hopping interior edges."""
        n = sigma[theta(d)]
        for _ in range(4 * len(g.edges)):
            if face_of[theta(n)] not in face_set:
                return theta(d), n
            n = sigma[n]
        raise GraphError("polygon boundary walk failed to close")

    def direction(d):
        ref = g.end_ref(d)
        return end_direction(g.points[ref.point], ref.slot)

    start = boundary_sides[0]
    visits, walked = [], set()
    d = start
    while True:
        walked.add(d)
        enter, leave = next_side(d)
        visits.append((g.end_ref(enter).point, enter, leave))
        d = leave
        if d == start:
            break
    # every disc has one boundary circle, and it passes each point once
    assert walked == set(boundary_sides), (g.canonical_form(), sorted(face_set))
    points_visited = [q for q, _, _ in visits]
    assert len(set(points_visited)) == len(points_visited), (g.canonical_form(), sorted(face_set))

    corners = []
    for q, enter, leave in visits:
        if direction(enter) != direction(leave):
            continue  # boundary passes through smoothly
        p = g.points[q]
        role = "pseudovertex" if p.kind == HYPERBOLIC else "vertex"
        corners.append(PolygonCorner(q, enter, leave, role, p.sign))
    return Polygon(face_set, tuple(corners))


def test_trace_polygon_matches_the_face_walk(universe_list):
    traced = discs = 0
    for g in universe_list + [zoo.example(name) for name in ZOO_NAMES]:
        n = len(g.faces())
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                face_set = frozenset(combo)
                want = reference_trace_polygon(g, face_set)
                got = trace_polygon(g, face_set)
                # equal polygons: faces, and corners with their tuple darts,
                # roles and signs, so equal describe() output too
                assert got == want, (g.canonical_form(), sorted(face_set))
                traced += 1
                discs += want is not None
    assert (traced, discs) == (5928, 3088)


def test_trace_polygon_rejects_non_disc_unions():
    g = zoo.example("double_join_cycle")
    all_faces = frozenset(f.index for f in g.faces())
    assert trace_polygon(g, all_faces) is None  # the whole sphere is not a disc


def test_enumerate_polygons_sees_both_signs_only_where_present():
    g = zoo.example("tight_one_saddle")
    signs = {p.sign for p in enumerate_polygons(g) if p.same_sign}
    assert 1 not in signs or -1 not in signs


# ------------------------------------------------- skeleton decomposition


def test_skeleton_of_one_saddle_sphere():
    sk = skeleton_decomposition(zoo.example("tight_one_saddle"))
    assert sk.skeleton == ("f0", "f1")
    assert sk.basins == (("a", (0,)), ("b", (1,)))
    assert sk.semibasins == ()


def test_skeleton_of_embryo_sphere_has_a_semibasin():
    sk = skeleton_decomposition(zoo.example("embryo_positive"))
    assert sk.skeleton == ("c0", "c1")
    assert sk.basins == (("p", (0,)),)
    assert sk.semibasins == (("B", (1,)),)


def test_skeleton_of_three_basin_chain():
    sk = skeleton_decomposition(zoo.example("three_basin_chain"))
    assert sk.skeleton == ("u0", "u1", "v0", "v1")
    assert sk.basins == (("p0", (0,)), ("p1", (1, 2)), ("p2", (3,)))


def test_basins_partition_faces_and_count_sources(universe_list):
    for g in universe_list:
        sk = skeleton_decomposition(g)
        groups = sk.basins + sk.semibasins
        covered = sorted(i for _, faces in groups for i in faces)
        assert covered == [f.index for f in g.faces()]
        positive_sources = [
            p.id for p in g.points_of_kind(ELLIPTIC) if p.sign > 0
        ]
        assert len(sk.basins) == len(positive_sources)


def test_every_face_of_a_basin_has_its_source_corner_at_the_centre(
    universe_list, walked_spheres
):
    # the lemma of skeleton_decomposition: faces merged across an edge
    # outside the skeleton share their one source corner's point
    spheres = universe_list + [zoo.example(n) for n in ZOO_NAMES]
    spheres += [g for _, g in walked_spheres]
    semibasins = 0
    for g in spheres + [g.reverse() for g in spheres]:
        sk = skeleton_decomposition(g)
        point = g.dart_table().point
        source = g.face_table().source
        for kind, groups in ((ELLIPTIC, sk.basins), ("embryo", sk.semibasins)):
            for center, faces in groups:
                assert g.points[center].kind == kind and g.points[center].sign > 0
                assert {point[source[f]] for f in faces} == {center}, g.canonical_form()
        semibasins += len(sk.semibasins)
        covered = sorted(f for _, faces in sk.basins + sk.semibasins for f in faces)
        assert covered == list(range(len(g.face_table().orbits)))
    assert semibasins >= 2


# ------------------------------------------------------------ positive tree


def test_positive_tree_of_one_saddle_sphere():
    pt = positive_tree(zoo.example("tight_one_saddle"))
    assert pt.nodes == ("a", "b")
    assert pt.links == (("a", "b", "h"),)
    assert pt.is_tree()


def test_positive_tree_of_chain_and_path_query():
    g = zoo.example("three_basin_chain")
    pt = positive_tree(g)
    assert pt.nodes == ("p0", "p1", "p2")
    assert pt.links == (("p0", "p1", "h0"), ("p1", "p2", "h1"))
    assert pt.is_tree()


def test_positive_tree_rejects_parallel_links():
    pt = positive_tree(zoo.example("double_join_cycle"))
    assert len(pt.links) == 2
    assert {frozenset(l[:2]) for l in pt.links} == {frozenset(("p0", "p1"))}
    assert not pt.is_tree()


def test_positive_tree_rejects_self_loop():
    pt = positive_tree(zoo.example("overtwisted_loop_positive"))
    assert pt.links == (("p", "p", "h"),)
    assert not pt.is_tree()


def test_positive_tree_rejects_homoclinic_input():
    with pytest.raises(GraphError):
        positive_tree(zoo.example("tight_saddle_connection"))


# ----------------------------------------------------- separatrix cycles (Γ±)


def _walk_to(g: FoliationGraph, rng: random.Random, faces: int) -> FoliationGraph:
    while len(g.face_table().orbits) < faces:
        g = create_pair(g, rng.randrange(len(g.face_table().orbits)), rng.choice((1, -1))).graph
    return g


@pytest.fixture(scope="module")
def morse_smale_spheres(universe_list, walked_spheres):
    """The spheres with no saddle connection and no embryo among the <=3
    universe and its reversals, the zoo, the walked spheres, and seeded
    create_pair walks to 12-16 faces from the zoo and from the universe
    classes that no order tames."""
    graphs = list(universe_list) + [g.reverse() for g in universe_list]
    graphs += [zoo.example(name) for name in ZOO_NAMES] + [g for _, g in walked_spheres]
    rng = random.Random(16)
    starts = [zoo.example(name) for name in ZOO_NAMES]
    starts += [
        g
        for g in universe_list
        if len(g.saddle_points()) == 3 and point_surplus(g) == (1, 1) and not decide_tightness(g).tight
    ]
    for g in starts:
        for faces in (12, 14, 16):
            graphs.append(_walk_to(g, rng, faces))
    return [g for g in graphs if is_morse_smale(g)]


def test_negative_tree_on_the_sphere_is_the_reversal_s_positive_tree(morse_smale_spheres):
    # Γ- read on the sphere itself against Γ+ of its time reversal: reversal
    # renames unstable slots by rotation order, so a link's ends may swap
    cycles = 0
    for g in morse_smale_spheres:
        neg, ref = positive_tree(g, -1), positive_tree(g.reverse())
        assert neg.nodes == ref.nodes
        assert {h: {u, v} for u, v, h in neg.links} == {h: {u, v} for u, v, h in ref.links}
        assert neg.is_tree() == ref.is_tree()
        got, want = neg.cycle(), ref.cycle()
        assert (got is None) == (want is None)
        if got is not None:
            assert set(got) == set(want)
            cycles += 1
    assert cycles > 100


def test_the_tree_reading_equals_decide(morse_smale_spheres):
    # Giroux's criterion: a Morse-Smale sphere is tight exactly when Γ+ and
    # Γ- are trees
    verdicts = set()
    for g in morse_smale_spheres:
        trees = positive_tree(g).is_tree() and positive_tree(g, -1).is_tree()
        assert trees == decide_tightness(g).tight
        verdicts.add(trees)
    assert verdicts == {True, False}


def test_every_cycle_polygon_retraces(morse_smale_spheres):
    found = {1: 0, -1: 0}
    for g in morse_smale_spheres:
        for sign in (1, -1):
            poly = separatrix_cycle(g, sign)
            if poly is None:
                continue
            found[sign] += 1
            again = trace_polygon(g, poly.face_indices)
            assert again.describe() == poly.describe()
            assert again.embedded and again.signs == {sign}
            # the smaller side, the one with the least face on a tie
            assert 2 * len(poly.face_indices) <= len(g.face_table().orbits)
    assert found[1] > 100 and found[-1] > 100


def test_a_cycle_polygon_exists_exactly_when_the_subset_search_finds_one(morse_smale_spheres):
    small = [g for g in morse_smale_spheres if len(g.face_table().orbits) <= 16]
    assert max(len(g.face_table().orbits) for g in small) == 16
    for g in small:
        cycle = separatrix_cycle(g, 1) or separatrix_cycle(g, -1)
        assert (cycle is None) == (find_same_sign_polygon(g) is None)


def test_a_cycle_that_bounds_no_polygon_fails_the_internal_check(monkeypatch):
    g = zoo.example("double_join_cycle")
    assert separatrix_cycle(g, 1) is not None and separatrix_cycle(g, -1) is None
    monkeypatch.setattr(invariants, "trace_polygon", lambda g, faces: None)
    with pytest.raises(InternalCheckError, match="bounds no embedded same-sign polygon"):
        separatrix_cycle(g, 1)


def test_separatrix_cycles_are_read_on_morse_smale_spheres_only():
    for name in ("embryo_positive", "tight_saddle_connection"):
        with pytest.raises(GraphError):
            separatrix_cycle(zoo.example(name), 1)
