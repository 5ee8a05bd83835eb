"""Invariants of separatrix graphs.

Three layers live here:

* the point surplus pair (positive/negative elliptic count minus saddle
  count), the basic sphere bookkeeping identity;
* regions spanned by a set of points, with their outward-transverse
  boundary circles: cycles of cut edges, each passage from one crossing to
  the next found by one walk over the darts of a face;
* polygons: unions of faces whose closure is a disc, with their boundary
  corners classified and signed.  An embedded polygon all of whose signed
  corners agree is the overtwistedness certificate used elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    Dart,
    FoliationGraph,
    GraphError,
    SingularPoint,
    UnionFind,
)


def surplus(points: Iterable[SingularPoint]) -> tuple[int, int]:
    """(positive, negative) elliptic-over-hyperbolic surplus of some points."""
    dp = dm = 0
    for p in points:
        if p.kind in (ELLIPTIC, HYPERBOLIC):
            step = 1 if p.kind == ELLIPTIC else -1
            if p.sign > 0:
                dp += step
            else:
                dm += step
    return dp, dm


def point_surplus(g: FoliationGraph) -> tuple[int, int]:
    """(positive, negative) elliptic-over-hyperbolic surplus.

    Embryos are neutral.  On a valid sphere the two numbers add up to 2.
    """
    return surplus(g.points.values())


# --------------------------------------------------------------------- regions


@dataclass(frozen=True)
class BoundaryCircle:
    """One transverse boundary circle of a region.

    ``items`` alternates ``("x", edge_id)`` crossings with
    ``("f", face_index)`` passages, in traversal order.
    """

    items: tuple[tuple, ...]

    def crossed_edges(self) -> tuple[str, ...]:
        return tuple(it[1] for it in self.items if it[0] == "x")

    def key(self) -> tuple[tuple, ...]:
        """Canonical rotation, stable across unrelated region changes."""
        return self._least_rotation

    @cached_property
    def _least_rotation(self) -> tuple[tuple, ...]:
        # computed once per circle; not a field, so equality and hashing
        # still compare ``items`` alone
        items = self.items
        return min((items[i:] + items[:i] for i in range(len(items))), default=())


class Region:
    """The points of ``inside`` together with everything they span.

    A region is *valid* when its boundary can be drawn transverse to the
    flow with the flow exiting: no edge may point into the region from
    outside, and every face that touches the region must have its source
    corner inside.

    The graph is never mutated after construction, so a region computes its
    components, boundary circles and edge-to-circle map once, on first use.
    :meth:`of` hands out one region per (graph, point set), cached on the
    graph: every query about one sublevel set shares those traces, and the
    cache goes away with the graph.
    """

    def __init__(self, graph: FoliationGraph, inside: Iterable[str]) -> None:
        self.graph = graph
        self.inside = frozenset(inside)
        unknown = self.inside - set(graph.points)
        if unknown:
            raise GraphError(f"region references unknown points {sorted(unknown)}")
        self._components: dict[str, str] | None = None
        self._circles: tuple[BoundaryCircle, ...] | None = None
        self._circle_of_edge: dict[str, int] | None = None

    @classmethod
    def of(cls, graph: FoliationGraph, inside: Iterable[str]) -> Region:
        """The region of ``inside`` on ``graph``, built once per point set."""
        key = frozenset(inside)
        region = graph._regions.get(key)
        if region is None:
            region = graph._regions[key] = cls(graph, key)
        return region

    # membership helpers -----------------------------------------------------

    @cached_property
    def _edge_kinds(self) -> dict[str, list[str]]:
        """The edges at inside points, each list sorted by id: ``"in"`` with
        both ends inside, ``"cut"`` leaving the region, ``"inward"`` entering.

        An edge with no end inside is none of the three, so only the darts of
        inside points are read.
        """
        g = self.graph
        kinds: dict[str, list[str]] = {"in": [], "cut": [], "inward": []}
        for eid in sorted({eid for pid in self.inside for eid, _ in g.rotation[pid]}):
            e = g.edges[eid]
            s, t = e.src.point in self.inside, e.dst.point in self.inside
            kinds["in" if s and t else "cut" if s else "inward"].append(eid)
        return kinds

    def cut_edges(self) -> list[str]:
        return list(self._edge_kinds["cut"])

    def interior_edges(self) -> list[str]:
        return list(self._edge_kinds["in"])

    def validate(self) -> list[str]:
        """Edges pointing in (by id), then faces touching the region whose
        source corner is outside (by index).

        Only what meets an inside point can fail: an edge pointing in ends at
        one, and the faces with a corner at a point are the faces of the darts
        in its rotation, since a face walk leaves each of its corners along
        the rotation successor of the dart it arrived by.
        """
        g = self.graph
        problems = [f"edge {eid} points into the region" for eid in self._edge_kinds["inward"]]
        faces, face_of = g.faces(), g.dart_faces()
        for i in sorted({face_of[d] for pid in self.inside for d in g.rotation[pid]}):
            if faces[i].source_point not in self.inside:
                problems.append(
                    f"face {i} touches the region but its source corner is outside"
                )
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.validate()

    # bookkeeping ------------------------------------------------------------

    def surplus(self) -> tuple[int, int]:
        """The point surplus of the points inside."""
        return surplus(self.graph.points[pid] for pid in self.inside)

    def components(self) -> dict[str, str]:
        """Map each inside point to a root naming its component.

        Interior edges join components.  The roots follow from those edges
        taken in id order alone, so they are stable across runs.  Each call
        returns a fresh copy of the labelling, which the caller may change.
        """
        if self._components is None:
            sets = UnionFind(self.inside)
            for eid in self.interior_edges():
                e = self.graph.edges[eid]
                sets.union(e.src.point, e.dst.point)
            self._components = {pid: sets.find(pid) for pid in self.inside}
        return dict(self._components)

    def component_count(self) -> int:
        return len(set(self.components().values()))

    # boundary tracing ---------------------------------------------------------

    def boundary_circles(self) -> tuple[BoundaryCircle, ...]:
        """The boundary circles, each a cycle of crossings of cut edges.

        On a valid region every dart at an inside point is an interior edge
        or the source end of a cut edge.  So after crossing cut edge ``c`` a
        circle runs through the face of ``(c, "tgt")``, past inside points
        only, to the next crossing: the edge of the first cut-edge source
        dart that ``phi`` reaches from ``sigma((c, "src"))``.  The circles
        are the cycles of this permutation of the cut edges, each started
        at its least edge.
        """
        if self._circles is not None:
            return self._circles
        bad = self.validate()
        if bad:
            raise GraphError("; ".join(bad))
        g = self.graph
        face_of = g.dart_faces()
        darts, index, sigma, _, _ = g.dart_table()
        cut = self.cut_edges()
        # the src dart 2k of each cut edge k
        cut_src = {index[(c, "src")] for c in cut}
        circles: list[BoundaryCircle] = []
        circle_of_edge: dict[str, int] = {}
        for start in cut:
            if start in circle_of_edge:
                continue
            items: list[tuple] = []
            c = start
            while True:
                circle_of_edge[c] = len(circles)
                d = sigma[index[(c, "src")]]
                while d not in cut_src:
                    d = sigma[d ^ 1]
                items += [("f", face_of[(c, "tgt")]), ("x", darts[d][0])]
                c = darts[d][0]
                if c == start:
                    break
            circles.append(BoundaryCircle(tuple(items)))
        self._circles = tuple(circles)
        self._circle_of_edge = circle_of_edge
        return self._circles

    def circle_of_edge(self, eid: str) -> int:
        """Index of the one boundary circle that crosses the cut edge, once."""
        self.boundary_circles()
        try:
            return self._circle_of_edge[eid]
        except KeyError:
            raise GraphError(f"edge {eid} is not a cut edge of the region") from None

    def euler_characteristic(self) -> int:
        return 2 * self.component_count() - len(self.boundary_circles())


# ------------------------------------------------------- skeleton and basins


@dataclass(frozen=True)
class SkeletonDecomposition:
    """Faces grouped by the point their flow emanates from.

    ``skeleton`` is the set of edges emitted by saddle-type points (the
    unstable separatrices of hyperbolic points, the boundary separatrices of
    positive embryos and the anchor separatrix of negative ones).  Cutting
    the sphere along it leaves one open disc per positive elliptic point
    (``basins``) and one per positive embryo (``semibasins``); each entry
    pairs the emitting point with the sorted face indices it spans.
    """

    skeleton: tuple[str, ...]
    basins: tuple[tuple[str, tuple[int, ...]], ...]
    semibasins: tuple[tuple[str, tuple[int, ...]], ...]


def skeleton_decomposition(g: FoliationGraph) -> SkeletonDecomposition:
    """Cut along saddle-emitted separatrices and group the faces that merge."""
    g.require_valid()
    skeleton = set()
    for eid, e in g.edges.items():
        if e.marker:
            continue
        src = g.points[e.src.point]
        if src.kind in (HYPERBOLIC, EMBRYO) and e.src.slot != "zone":
            skeleton.add(eid)

    faces = g.faces()
    face_of = g.dart_faces()
    sets = UnionFind(f.index for f in faces)
    for eid in g.edges:
        if eid not in skeleton:
            sets.union(face_of[(eid, "src")], face_of[(eid, "tgt")])

    groups: dict[int, list[int]] = {}
    for f in faces:
        groups.setdefault(sets.find(f.index), []).append(f.index)

    basins, semibasins = [], []
    for members in groups.values():
        centers = {c.point for i in members for c in faces[i].source_corners}
        if len(centers) != 1:
            raise GraphError(
                f"faces {sorted(members)} form a basin with centers "
                f"{sorted(centers)}; expected exactly one emitting point"
            )
        (center,) = centers
        p = g.points[center]
        entry = (center, tuple(sorted(members)))
        if p.kind == ELLIPTIC and p.sign > 0:
            basins.append(entry)
        elif p.kind == EMBRYO and p.sign > 0:
            semibasins.append(entry)
        else:
            raise GraphError(
                f"basin center {center} is a {p.kind} of sign {p.sign}"
            )
    return SkeletonDecomposition(
        tuple(sorted(skeleton)), tuple(sorted(basins)), tuple(sorted(semibasins))
    )


# -------------------------------------------------- positive-separatrix graph


@dataclass(frozen=True)
class PositiveTree:
    """Positive elliptic points linked through the positive saddles they feed.

    A link ``(p, q, saddle)`` records that the two stable separatrices of a
    positive hyperbolic point come from the basins of ``p`` and ``q``
    (possibly ``p == q``: a self-loop, the overtwisted pseudovertex shape).
    """

    nodes: tuple[str, ...]
    links: tuple[tuple[str, str, str], ...]

    def is_tree(self) -> bool:
        if not self.nodes:
            return not self.links
        if len(self.links) != len(self.nodes) - 1:
            return False
        sets = UnionFind(self.nodes)
        return all(sets.union(u, v) for u, v, _ in self.links)


def elliptic_feeders(g: FoliationGraph, hid: str) -> tuple[str, str] | None:
    """The positive elliptic points whose leaves fill the stable slots
    ``s0`` and ``s1`` of ``hid`` directly, or None if another point feeds one."""
    feeders = []
    for slot in ("s0", "s1"):
        ref = g.edge_at_slot(hid, slot).src
        if not g.is_elliptic_source(ref):
            return None
        feeders.append(ref.point)
    return feeders[0], feeders[1]


def positive_links(g: FoliationGraph) -> tuple[tuple[str, str, str], ...]:
    """``(p, q, saddle)`` for each positive saddle fed by the positive
    elliptic points ``p`` and ``q``, in saddle id order."""
    links = []
    for p in sorted(g.points_of_kind(HYPERBOLIC), key=lambda p: p.id):
        feeders = elliptic_feeders(g, p.id) if p.sign > 0 else None
        if feeders is not None:
            links.append((*feeders, p.id))
    return tuple(links)


def positive_tree(g: FoliationGraph) -> PositiveTree:
    """The graph of positive elliptic points joined by positive saddles."""
    g.require_valid()
    if g.homoclinic_edges():
        raise GraphError("positive-separatrix graph requires a connection-free instance")
    nodes = tuple(sorted(p.id for p in g.points_of_kind(ELLIPTIC) if p.sign > 0))
    return PositiveTree(nodes, positive_links(g))


# -------------------------------------------------------------------- polygons


@dataclass(frozen=True)
class PolygonCorner:
    point: str
    enter: Dart
    leave: Dart
    role: str  # "vertex" | "pseudovertex"
    sign: int


@dataclass(frozen=True)
class Polygon:
    """A union of faces whose closure is a disc."""

    face_indices: frozenset[int]
    boundary_points: tuple[str, ...]  # every point visit along the walk
    corners: tuple[PolygonCorner, ...]  # signed corners only
    embedded: bool

    @property
    def sides(self) -> int:
        return max(sum(1 for c in self.corners if c.role == "vertex"), 1)

    @property
    def signs(self) -> set[int]:
        return {c.sign for c in self.corners}

    @property
    def same_sign(self) -> bool:
        return len(self.signs) <= 1

    @property
    def sign(self) -> int:
        s = self.signs
        return next(iter(s)) if len(s) == 1 else 0

    def describe(self) -> dict:
        return {
            "faces": sorted(self.face_indices),
            "corners": [
                {"point": c.point, "role": c.role, "sign": c.sign} for c in self.corners
            ],
            "sides": self.sides,
            "embedded": self.embedded,
            "same_sign": self.same_sign,
        }


def _closure_euler(g: FoliationGraph, face_set: frozenset[int]) -> int:
    faces = [g.faces()[i] for i in face_set]
    pts = {c.point for f in faces for c in f.corners}
    eds = {d[0] for f in faces for d in f.darts}
    return len(pts) - len(eds) + len(faces)


def trace_polygon(g: FoliationGraph, face_set: frozenset[int]) -> Polygon | None:
    """Build the polygon on this face set, or None if it is not a disc."""
    faces = g.faces()
    if not face_set or not face_set <= set(range(len(faces))):
        return None
    if len(face_set) == len(faces):
        return None  # the whole sphere
    # connectivity through shared edges
    face_of = g.dart_faces()
    seen = {min(face_set)}
    frontier = [min(face_set)]
    while frontier:
        for d in faces[frontier.pop()].darts:
            j = face_of[g.theta(d)]
            if j in face_set and j not in seen:
                seen.add(j)
                frontier.append(j)
    if seen != face_set:
        return None
    if _closure_euler(g, face_set) != 1:
        return None

    boundary_sides = sorted(
        d for i in face_set for d in faces[i].darts if face_of[g.theta(d)] not in face_set
    )
    if not boundary_sides:
        return None

    def next_side(d: Dart) -> tuple[Dart, Dart]:
        """Departure dart at the point reached by d, hopping interior edges."""
        n = g.phi(d)
        guard = 0
        while face_of[g.theta(n)] in face_set:
            n = g.phi(g.theta(n))
            guard += 1
            if guard > 4 * len(g.edges):
                raise GraphError("polygon boundary walk failed to close")
        return g.theta(d), n

    start = boundary_sides[0]
    visits: list[tuple[str, Dart, Dart]] = []
    walked: set[Dart] = set()
    d = start
    while True:
        walked.add(d)
        enter, leave = next_side(d)
        visits.append((g.dart_point(enter), enter, leave))
        d = leave
        if d == start:
            break
    if walked != set(boundary_sides):
        return None  # more than one boundary circle (pinched or worse)

    corners: list[PolygonCorner] = []
    for q, enter, leave in visits:
        dirs = {g.dart_direction(enter), g.dart_direction(leave)}
        if len(dirs) == 2:
            continue  # boundary passes through smoothly
        p = g.points[q]
        role = "pseudovertex" if p.kind == HYPERBOLIC else "vertex"
        corners.append(PolygonCorner(q, enter, leave, role, p.sign))

    points_visited = tuple(q for q, _, _ in visits)
    embedded = len(set(points_visited)) == len(points_visited)
    return Polygon(face_set, points_visited, tuple(corners), embedded)


# the face-subset search below tries 2^F sets; past this many faces it refuses
MAX_POLYGON_FACES = 20


def enumerate_polygons(g: FoliationGraph, embedded_only: bool = False) -> Iterator[Polygon]:
    """All polygons of the graph, smallest face sets first."""
    n = len(g.faces())
    if n > MAX_POLYGON_FACES:
        raise GraphError(
            f"polygon enumeration is limited to graphs with <= {MAX_POLYGON_FACES} faces"
        )
    indices = [f.index for f in g.faces()]
    for size in range(1, n + 1):
        for combo in itertools.combinations(indices, size):
            poly = trace_polygon(g, frozenset(combo))
            if poly is None:
                continue
            if embedded_only and not poly.embedded:
                continue
            yield poly


def find_same_sign_polygon(g: FoliationGraph) -> Polygon | None:
    """An embedded polygon whose signed corners all agree, if one exists.

    Raises :class:`GraphError` on graphs with more than
    :data:`MAX_POLYGON_FACES` faces.

    Such a polygon certifies that no taming assignment can exist: smoothing
    its corners yields a closed leaf bounding the disc.
    """
    for poly in enumerate_polygons(g, embedded_only=True):
        if poly.same_sign:
            return poly
    return None
