"""Invariants of separatrix graphs.

Three layers live here:

* the point surplus pair (positive/negative elliptic count minus saddle
  count), the basic sphere bookkeeping identity;
* regions spanned by a set of points, with their outward-transverse
  boundary circles: cycles of cut edges, each passage from one crossing to
  the next found by one walk over the darts of a face;
* polygons: unions of faces whose closure is a disc, with their boundary
  corners classified and signed.  Every polygon is embedded, and one all of
  whose signed corners agree is the overtwistedness certificate used
  elsewhere.  Up to :data:`MAX_POLYGON_FACES` faces a subset search finds
  one; past that, on a Morse–Smale sphere, a cycle of the positive or the
  negative separatrix graph bounds one.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator

from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    Dart,
    FoliationGraph,
    GraphError,
    InternalCheckError,
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
    graph: every query about one sublevel set shares those traces.  A region
    holds its graph by a weak reference, so the cache makes no reference
    cycle and goes away with the graph as soon as the last reference to the
    graph is dropped.  Whoever keeps a region must keep its graph too.
    """

    def __init__(self, graph: FoliationGraph, inside: Iterable[str]) -> None:
        self._graph = weakref.ref(graph)
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

    @property
    def graph(self) -> FoliationGraph:
        return self._graph()

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
        _, index, _, _, point = g.dart_table()
        face, _, source, _ = g.face_table()
        for i in sorted({face[index[d]] for pid in self.inside for d in g.rotation[pid]}):
            if point[source[i]] not in self.inside:
                problems.append(
                    f"face {i} touches the region but its source corner is outside"
                )
        return problems

    # bookkeeping ------------------------------------------------------------

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
        darts, index, sigma, _, _ = g.dart_table()
        face = g.face_table().face
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
                src = index[(c, "src")]
                d = sigma[src]
                while d not in cut_src:
                    d = sigma[d ^ 1]
                items += [("f", face[src ^ 1]), ("x", darts[d][0])]
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
    """Cut along saddle-emitted separatrices and group the faces that merge.

    Each group's centre, the point of its faces' one source corner, is a
    positive elliptic point or a positive embryo, the only points with
    source corners.  An edge outside the skeleton leaves a positive
    elliptic point or a positive embryo's zone, where both corners beside
    it are source corners, so faces merged across it share their centre.
    """
    g.require_valid()
    skeleton = set()
    for eid, e in g.edges.items():
        if e.marker:
            continue
        src = g.points[e.src.point]
        if src.kind in (HYPERBOLIC, EMBRYO) and e.src.slot != "zone":
            skeleton.add(eid)

    point = g.dart_table().point
    source = g.face_table().source
    basins, semibasins = [], []
    for members in face_classes(g, skeleton):
        center = point[source[members[0]]]
        entry = (center, tuple(sorted(members)))
        (basins if g.points[center].kind == ELLIPTIC else semibasins).append(entry)
    return SkeletonDecomposition(
        tuple(sorted(skeleton)), tuple(sorted(basins)), tuple(sorted(semibasins))
    )


def face_classes(g: FoliationGraph, cut: Container[str]) -> list[list[int]]:
    """The faces joined across every edge not in ``cut``: each class in
    index order, the classes in the order of their least faces."""
    face, orbits, _, _ = g.face_table()
    sets = UnionFind(range(len(orbits)))
    for k, eid in enumerate(g.edges):
        if eid not in cut:
            sets.union(face[2 * k], face[2 * k + 1])
    classes: dict[int, list[int]] = {}
    for f in range(len(orbits)):
        classes.setdefault(sets.find(f), []).append(f)
    return list(classes.values())


# ------------------------------------------------------ separatrix graphs Γ±


@dataclass(frozen=True)
class PositiveTree:
    """Γ+ or Γ−: the elliptic points of one sign linked through the saddles
    of that sign.

    In Γ+ a link ``(p, q, saddle)`` records that the two stable separatrices
    of a positive hyperbolic point come from the basins of ``p`` and ``q``
    (possibly ``p == q``: a self-loop, the overtwisted pseudovertex shape),
    and in Γ− that the unstable ones of a negative point end at ``p``, ``q``.
    """

    nodes: tuple[str, ...]
    links: tuple[tuple[str, str, str], ...]

    def is_tree(self) -> bool:
        if not self.nodes:
            return not self.links
        return len(self.links) == len(self.nodes) - 1 and self.cycle() is None

    def cycle(self) -> tuple[str, ...] | None:
        """The saddles of the first cycle, or None when the links make a forest.

        A union-find over the links, in order, stops at the first link whose
        ends are already joined; the cycle is that link and the forest path
        between its ends.  Neither step reads the order of a link's two ends.
        """
        sets = UnionFind(self.nodes)
        forest: dict[str, list[tuple[str, str]]] = {v: [] for v in self.nodes}
        for u, v, hid in self.links:
            if sets.union(u, v):
                forest[u].append((v, hid))
                forest[v].append((u, hid))
                continue
            via: dict[str, tuple[str, str] | None] = {u: None}
            stack = [u]
            while stack:
                x = stack.pop()
                for y, link in forest[x]:
                    if y not in via:
                        via[y] = (x, link)
                        stack.append(y)
            saddles = [hid]
            while v != u:
                v, link = via[v]
                saddles.append(link)
            return tuple(saddles)
        return None


def elliptic_feeders(g: FoliationGraph, hid: str, sign: int = 1) -> tuple[str, str] | None:
    """For ``sign`` 1, the positive elliptic points whose leaves fill the
    stable slots ``s0`` and ``s1`` of ``hid`` directly; for ``sign`` -1, the
    negative elliptic points that its unstable slots ``u0`` and ``u1`` reach
    directly.  None if another point is at one of them."""
    ends = []
    for slot in ("s0", "s1") if sign > 0 else ("u0", "u1"):
        e = g.edge_at_slot(hid, slot)
        ref = e.src if sign > 0 else e.dst
        p = g.points[ref.point]
        if ref.slot is not None or p.kind != ELLIPTIC or p.sign != sign:
            return None
        ends.append(ref.point)
    return ends[0], ends[1]


def positive_tree(g: FoliationGraph, sign: int = 1) -> PositiveTree:
    """Γ+ (``sign`` 1) or Γ− (``sign`` -1) of ``g``, its links in saddle id
    order.  Time reversal swaps the two, so Γ− is Γ+ of ``g.reverse()`` up to
    the order of each link's two ends."""
    g.require_valid()
    if g.homoclinic_edges():
        raise GraphError("positive-separatrix graph requires a connection-free instance")
    nodes = tuple(sorted(p.id for p in g.points_of_kind(ELLIPTIC) if p.sign == sign))
    links = []
    for hid in sorted(p.id for p in g.points_of_kind(HYPERBOLIC) if p.sign == sign):
        ends = elliptic_feeders(g, hid, sign)
        if ends is not None:
            links.append((*ends, hid))
    return PositiveTree(nodes, tuple(links))


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
    corners: tuple[PolygonCorner, ...]  # signed corners only

    @property
    def embedded(self) -> bool:
        """Always true: the boundary of every polygon that
        :func:`trace_polygon` returns passes each point once."""
        return True

    @property
    def sides(self) -> int:
        return max(sum(1 for c in self.corners if c.role == "vertex"), 1)

    @property
    def signs(self) -> set[int]:
        return {c.sign for c in self.corners}

    @property
    def same_sign(self) -> bool:
        return len(self.signs) <= 1

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


def trace_polygon(g: FoliationGraph, face_set: frozenset[int]) -> Polygon | None:
    """Build the polygon on this face set, or None if it is not a disc.

    The set is a disc when it is nonempty and proper, joined across edges,
    and its closure X has Euler count 1.  Then the boundary is one simple
    circle, so every polygon is embedded:

    * X is connected and proper, so by Alexander duality its complement is
      connected: it has ``2 - χ(X) = 1`` component.
    * If the set's corners at a point p formed two runs in the rotation, a
      closed curve in X could leave p through one run, come back through
      faces and edges of the set, and enter p through the other.  It would
      separate the two runs of outside corners at p, whose faces lie in the
      connected complement.  So each point has one run of corners in the
      set, and X is a connected planar surface with boundary and Euler
      count 1: a disc, whose one boundary circle passes each point once.
    * The faces of the sphere are joined across edges, so a nonempty proper
      set has a boundary dart.

    Reads the dart and face tables.  The boundary walk arrives at a point
    along a dart ``e`` whose face is outside the set, and leaves along the
    first dart ``n`` counterclockwise after ``e`` with ``face[n ^ 1]``
    outside the set.  One comes before the rotation returns to ``e``: the
    dart ``m`` just before ``e`` has ``face[m ^ 1] == face[e]``.
    """
    darts, _, sigma, out, point = g.dart_table()
    face, orbits, _, _ = g.face_table()
    if not face_set or not face_set.issubset(range(len(orbits))):
        return None
    if len(face_set) == len(orbits):
        return None  # the whole sphere
    # connectivity through shared edges
    first = min(face_set)
    seen = {first}
    frontier = [first]
    while frontier:
        for d in orbits[frontier.pop()]:
            j = face[d ^ 1]
            if j in face_set and j not in seen:
                seen.add(j)
                frontier.append(j)
    if seen != face_set:
        return None
    # the closure's Euler count: its points, edges and faces
    sides = [d for i in face_set for d in orbits[i]]
    if len({point[d ^ 1] for d in sides}) - len({d >> 1 for d in sides}) + len(face_set) != 1:
        return None

    start = min((d for d in sides if face[d ^ 1] not in face_set), key=darts.__getitem__)
    corners: list[PolygonCorner] = []
    d = start
    while True:
        enter = d ^ 1
        d = sigma[enter]
        while face[d ^ 1] in face_set:  # an interior edge: turn past it
            d = sigma[d]
        if out[enter] == out[d]:  # else the boundary passes through smoothly
            p = g.points[point[enter]]
            role = "pseudovertex" if p.kind == HYPERBOLIC else "vertex"
            corners.append(PolygonCorner(p.id, darts[enter], darts[d], role, p.sign))
        if d == start:
            break
    return Polygon(face_set, tuple(corners))


# the face-subset search below tries 2^F sets; past this many faces it refuses
MAX_POLYGON_FACES = 20


def enumerate_polygons(g: FoliationGraph) -> Iterator[Polygon]:
    """All polygons of the graph, smallest face sets first."""
    n = len(g.face_table().orbits)
    if n > MAX_POLYGON_FACES:
        raise GraphError(
            f"polygon enumeration is limited to graphs with <= {MAX_POLYGON_FACES} faces"
        )
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            poly = trace_polygon(g, frozenset(combo))
            if poly is not None:
                yield poly


def find_same_sign_polygon(g: FoliationGraph) -> Polygon | None:
    """An embedded polygon whose signed corners all agree, if one exists.

    Raises :class:`GraphError` on graphs with more than
    :data:`MAX_POLYGON_FACES` faces.

    Such a polygon certifies that no taming assignment can exist: smoothing
    its corners yields a closed leaf bounding the disc.
    """
    for poly in enumerate_polygons(g):
        if poly.same_sign:
            return poly
    return None


def is_morse_smale(g: FoliationGraph) -> bool:
    """True when the sphere has no saddle connection and no embryo."""
    return not g.homoclinic_edges() and not g.points_of_kind(EMBRYO)


def separatrix_cycle(g: FoliationGraph, sign: int) -> Polygon | None:
    """The polygon bounded by a cycle of Γ+ (``sign`` 1) or of Γ− (``sign``
    -1) on a Morse–Smale sphere, or None when that graph has no cycle.

    The cycle is :meth:`PositiveTree.cycle` of ``positive_tree(g, sign)``.
    On the sphere it is a simple closed curve of separatrices through
    distinct points, so each of its two sides is a disc, and it turns at
    every point it passes: both its leaves leave a source of Γ+ and both
    enter a saddle of Γ+, and the other way round for Γ−.  So either side is
    a polygon whose corners all have the sign ``sign``.  The sides are the
    face classes joined across every edge off the curve
    (:func:`face_classes`), and the one with fewer faces is taken, the one
    holding the least face on a tie.  :func:`trace_polygon` must accept it
    as same-sign, or :class:`~charfol.model.InternalCheckError` is raised.
    """
    if not is_morse_smale(g):
        raise GraphError("separatrix cycles are read on Morse-Smale spheres only")
    saddles = positive_tree(g, sign).cycle()
    if saddles is None:
        return None
    slots = ("s0", "s1") if sign > 0 else ("u0", "u1")
    classes = face_classes(g, {g.edge_at_slot(hid, slot).id for hid in saddles for slot in slots})
    side = min(classes, key=lambda faces: (len(faces), faces[0]))
    poly = trace_polygon(g, frozenset(side))
    if len(classes) != 2 or poly is None or poly.signs != {sign}:
        raise InternalCheckError(
            f"the cycle through saddles {' '.join(sorted(saddles))} bounds no "
            "embedded same-sign polygon"
        )
    return poly


def witness_polygon(g: FoliationGraph) -> Polygon | None:
    """An embedded same-sign polygon, if one exists.

    Up to :data:`MAX_POLYGON_FACES` faces this is the subset search's
    (:func:`find_same_sign_polygon`).  Past that, on a Morse–Smale sphere, it
    is the polygon of a cycle of Γ+ or else of Γ− (:func:`separatrix_cycle`),
    and None when both are trees; on other spheres the subset search refuses
    with :class:`GraphError`.
    """
    if len(g.face_table().orbits) > MAX_POLYGON_FACES and is_morse_smale(g):
        return separatrix_cycle(g, 1) or separatrix_cycle(g, -1)
    return find_same_sign_polygon(g)
