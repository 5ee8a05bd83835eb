"""Core data model: directed separatrix graphs on the 2-sphere.

A :class:`FoliationGraph` records the singular points of a gradient-like
flow on the sphere together with its separatrices (and, where needed for
cellularity, *marker* leaves), plus a rotation system: the counterclockwise
cyclic order of edge-ends around every point.  Faces are traced from the
rotation system.  Validity asks, besides the local slot discipline at each
kind of point, that the surface closes up to a sphere (Euler count) and
that every face is a coherent flow box: exactly one corner where the flow
enters the face (a sink corner) and exactly one where it leaves (a source
corner).

Edge ends are addressed as *darts* ``(edge_id, "src"|"tgt")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
EMBRYO = "embryo"

KINDS = (ELLIPTIC, HYPERBOLIC, EMBRYO)
#: point kinds that carry separatrix slots and a critical level of their own
SADDLE_KINDS = (HYPERBOLIC, EMBRYO)

#: required counterclockwise slot pattern around a hyperbolic point
HYPERBOLIC_SLOTS = ("s0", "u0", "s1", "u1")

Dart = tuple[str, str]  # (edge id, "src" | "tgt")


class GraphError(ValueError):
    """A structure failed validation where validity was required."""


class UnionFind:
    """Disjoint sets with path halving.

    ``union(a, b)`` hangs the root of ``a`` under the root of ``b``, so the
    root a set ends with depends only on the order of the unions.
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._up = {x: x for x in items}

    def add(self, x: Hashable) -> None:
        self._up[x] = x

    def find(self, x: Hashable) -> Hashable:
        up = self._up
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._up[ra] = rb
        return True


@dataclass(frozen=True)
class SingularPoint:
    id: str
    kind: str
    sign: int  # +1 / -1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise GraphError(f"unknown point kind {self.kind!r}")
        if self.sign not in (-1, 1):
            raise GraphError(f"point {self.id}: sign must be +1 or -1")


@dataclass(frozen=True)
class EndRef:
    """One end of an edge: the point it attaches to and the slot it occupies.

    ``slot`` is ``None`` for the free attachments at an elliptic point,
    ``"zone"`` for free attachments inside an embryo's parabolic sector,
    and a named separatrix slot otherwise.
    """

    point: str
    slot: str | None = None


@dataclass(frozen=True)
class Separatrix:
    """A directed edge of the graph, oriented along the flow."""

    id: str
    src: EndRef
    dst: EndRef
    marker: bool = False


def end_direction(point: SingularPoint, slot: str | None) -> str:
    """Return ``"out"`` if an end in this slot emits flow, ``"in"`` if it absorbs.

    Raises :class:`GraphError` for a slot that does not exist on the kind.
    """
    kind, sign = point.kind, point.sign
    if kind == ELLIPTIC:
        if slot is not None:
            raise GraphError(f"elliptic point {point.id} has no slot {slot!r}")
        return "out" if sign > 0 else "in"
    if kind == HYPERBOLIC:
        if slot in ("s0", "s1"):
            return "in"
        if slot in ("u0", "u1"):
            return "out"
        raise GraphError(f"hyperbolic point {point.id} has no slot {slot!r}")
    if kind == EMBRYO:
        if sign > 0:
            if slot == "in":
                return "in"
            if slot in ("b0", "b1", "zone"):
                return "out"
        else:
            if slot == "out":
                return "out"
            if slot in ("b0", "b1", "zone"):
                return "in"
        raise GraphError(f"embryo point {point.id} has no slot {slot!r}")
    raise GraphError(f"unknown kind {kind!r}")


#: slot kinds as the canonical form sees them: the arbitrary 0/1 labels on
#: stable/unstable/boundary slots are erased
_SLOT_CLASS = {
    None: 0, "s0": 1, "s1": 1, "u0": 2, "u1": 2, "b0": 3, "b1": 3, "zone": 4, "in": 5, "out": 6,
}
_KIND_CODE = {kind: i for i, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Corner:
    """An angular sector of a face at one of its boundary points.

    ``enter`` is the dart along which the face walk arrives at ``point``,
    ``leave`` the dart along which it departs (the rotation successor of
    ``enter``).  ``flavor`` is ``"source"`` (both germs outgoing),
    ``"sink"`` (both incoming) or ``"through"``.
    """

    point: str
    enter: Dart
    leave: Dart
    flavor: str


@dataclass(frozen=True)
class Face:
    index: int
    darts: tuple[Dart, ...]
    corners: tuple[Corner, ...]

    # the source and the sink corners among ``corners``, in walk order, filled
    # in by the face walk; equality compares only the three fields above
    source_corners: tuple[Corner, ...] = field(repr=False, compare=False)
    sink_corners: tuple[Corner, ...] = field(repr=False, compare=False)

    @property
    def source_point(self) -> str:
        (c,) = self.source_corners
        return c.point


class DartTable(NamedTuple):
    """The darts of a graph as integers.

    Dart ``2k`` is the src end of the k-th edge (in ``edges`` order) and
    ``2k + 1`` its tgt end, so ``theta`` is ``d ^ 1`` and the face-walk
    successor ``phi`` is ``sigma[d ^ 1]``.
    """

    darts: list[Dart]  # the tuple dart of each integer
    index: dict[Dart, int]
    sigma: list[int]  # rotation successor
    out: list[bool]  # the flow leaves the point along this end
    point: list[str]


class FoliationGraph:
    """Immutable-by-convention separatrix graph with a rotation system.

    ``rotation`` maps every point id to the counterclockwise cyclic tuple of
    darts around it.  Construction is permissive; call :meth:`validate` (or
    :meth:`require_valid`) to check the full battery of structural rules.
    """

    def __init__(
        self,
        points: Mapping[str, SingularPoint] | Sequence[SingularPoint],
        edges: Mapping[str, Separatrix] | Sequence[Separatrix],
        rotation: Mapping[str, Sequence[Dart]],
    ) -> None:
        if not isinstance(points, Mapping):
            points = {p.id: p for p in points}
        if not isinstance(edges, Mapping):
            edges = {e.id: e for e in edges}
        self.points: dict[str, SingularPoint] = dict(points)
        self.edges: dict[str, Separatrix] = dict(edges)
        self.rotation: dict[str, tuple[Dart, ...]] = {
            pid: tuple(seq) for pid, seq in rotation.items()
        }
        # lazily built caches; the graph is never mutated after construction
        self._faces: tuple[Face, ...] | None = None
        self._problems: tuple[str, ...] | None = None
        self._dart_face: dict[Dart, int] | None = None
        self._canon: str | None = None
        self._table: DartTable | None = None
        self._slot_edge: dict[tuple[str, str | None], Separatrix] | None = None
        # one invariants.Region per point set, filled by Region.of
        self._regions: dict[frozenset[str], object] = {}

    # ----------------------------------------------------------------- darts

    def darts(self) -> list[Dart]:
        out: list[Dart] = []
        for eid in self.edges:
            out.append((eid, "src"))
            out.append((eid, "tgt"))
        return out

    def end_ref(self, dart: Dart) -> EndRef:
        eid, end = dart
        edge = self.edges[eid]
        return edge.src if end == "src" else edge.dst

    def dart_point(self, dart: Dart) -> str:
        return self.end_ref(dart).point

    def dart_slot(self, dart: Dart) -> str | None:
        return self.end_ref(dart).slot

    def dart_direction(self, dart: Dart) -> str:
        """``"out"`` if the flow leaves the point along this end."""
        ref = self.end_ref(dart)
        return end_direction(self.points[ref.point], ref.slot)

    @staticmethod
    def theta(dart: Dart) -> Dart:
        eid, end = dart
        return (eid, "tgt" if end == "src" else "src")

    def dart_table(self) -> DartTable:
        """The integer dart table, built on first use.

        Raises :class:`GraphError` unless every dart of every edge appears in
        exactly one rotation tuple, exactly once: only then is the rotation
        system a permutation of the darts, and the face walk well defined.
        """
        if self._table is None:
            darts = self.darts()
            index = {d: i for i, d in enumerate(darts)}
            sigma = [-1] * len(darts)
            for seq in self.rotation.values():
                ids = [index.get(d, -1) for d in seq]
                for i, succ in zip(ids, ids[1:] + ids[:1]):
                    if i < 0 or sigma[i] >= 0:
                        raise GraphError("rotation system is not a permutation of darts")
                    sigma[i] = succ
            if -1 in sigma:
                raise GraphError("rotation system is not a permutation of darts")
            out: list[bool] = []
            point: list[str] = []
            for e in self.edges.values():
                for ref in (e.src, e.dst):
                    out.append(end_direction(self.points[ref.point], ref.slot) == "out")
                    point.append(ref.point)
            self._table = DartTable(darts, index, sigma, out, point)
        return self._table

    def sigma(self, dart: Dart) -> Dart:
        """Rotation successor: next dart counterclockwise at the same point."""
        t = self.dart_table()
        return t.darts[t.sigma[t.index[dart]]]

    def phi(self, dart: Dart) -> Dart:
        """Face-walk successor: cross the edge, then turn counterclockwise."""
        t = self.dart_table()
        return t.darts[t.sigma[t.index[dart] ^ 1]]

    # ----------------------------------------------------------------- faces

    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._faces = self._trace_faces()
        return self._faces

    def _trace_faces(self) -> tuple[Face, ...]:
        darts, _, sigma, out, point = self.dart_table()
        seen = [False] * len(darts)
        faces: list[Face] = []
        for start in sorted(range(len(darts)), key=darts.__getitem__):
            if seen[start]:
                continue
            # phi is a permutation (the table checks sigma), so the walk
            # meets no seen dart before it closes at start
            orbit: list[int] = []
            d = start
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                d = sigma[d ^ 1]
            corners: list[Corner] = []
            sources: list[Corner] = []
            sinks: list[Corner] = []
            for d, leave in zip(orbit, orbit[1:] + orbit[:1]):
                enter = d ^ 1
                if out[enter] and out[leave]:
                    c = Corner(point[enter], darts[enter], darts[leave], "source")
                    sources.append(c)
                elif out[enter] or out[leave]:
                    c = Corner(point[enter], darts[enter], darts[leave], "through")
                else:
                    c = Corner(point[enter], darts[enter], darts[leave], "sink")
                    sinks.append(c)
                corners.append(c)
            faces.append(
                Face(
                    len(faces),
                    tuple(darts[d] for d in orbit),
                    tuple(corners),
                    tuple(sources),
                    tuple(sinks),
                )
            )
        return tuple(faces)

    def dart_faces(self) -> dict[Dart, int]:
        """Map every dart to the index of the face whose walk holds it."""
        if self._dart_face is None:
            self._dart_face = {d: f.index for f in self.faces() for d in f.darts}
        return self._dart_face

    def face_of_dart(self, dart: Dart) -> Face:
        try:
            return self.faces()[self.dart_faces()[dart]]
        except KeyError:
            raise GraphError(f"dart {dart} not on any face") from None

    def face_at_corner(self, enter: Dart) -> Face:
        """The face whose walk arrives at ``enter`` (i.e. contains theta(enter))."""
        return self.face_of_dart(self.theta(enter))

    # ------------------------------------------------------------ validation

    def validate(self) -> list[str]:
        """Return a fresh list of violation messages; empty means valid.

        The checks run once per graph, which is never mutated, so validating
        a graph again (``require_valid`` after a load) is a lookup.
        """
        if self._problems is None:
            self._problems = tuple(self._check())
        return list(self._problems)

    def _check(self) -> list[str]:
        problems: list[str] = []
        for pid, p in self.points.items():
            if pid != p.id:
                problems.append(f"point key {pid} != id {p.id}")
        for eid, e in self.edges.items():
            if eid != e.id:
                problems.append(f"edge key {eid} != id {e.id}")
            for ref in (e.src, e.dst):
                if ref.point not in self.points:
                    problems.append(f"edge {eid}: unknown point {ref.point}")
        if problems:
            return problems

        # end directions and slot discipline
        for eid, e in self.edges.items():
            try:
                d_src = end_direction(self.points[e.src.point], e.src.slot)
                d_dst = end_direction(self.points[e.dst.point], e.dst.slot)
            except GraphError as exc:
                problems.append(f"edge {eid}: {exc}")
                continue
            if d_src != "out":
                problems.append(f"edge {eid}: src end sits in an absorbing slot")
            if d_dst != "in":
                problems.append(f"edge {eid}: dst end sits in an emitting slot")
            free = {None, "zone"}
            if e.marker and not (e.src.slot in free and e.dst.slot in free):
                problems.append(f"edge {eid}: marker leaves may not occupy named slots")
            if not e.marker and e.src.slot in free and e.dst.slot in free:
                problems.append(f"edge {eid}: slot-free edge must be a marker leaf")

        # named slots occupied exactly once, with the full complement present
        occupancy: dict[tuple[str, str], int] = {}
        for e in self.edges.values():
            for ref in (e.src, e.dst):
                if ref.slot not in (None, "zone"):
                    occupancy[(ref.point, ref.slot)] = occupancy.get((ref.point, ref.slot), 0) + 1
        for (pid, slot), n in occupancy.items():
            if n > 1:
                problems.append(f"slot {pid}.{slot} occupied {n} times")
        for pid, p in self.points.items():
            if p.kind == HYPERBOLIC:
                needed = set(HYPERBOLIC_SLOTS)
            elif p.kind == EMBRYO:
                needed = {"in" if p.sign > 0 else "out", "b0", "b1"}
            else:
                needed = set()
            for slot in needed:
                if (pid, slot) not in occupancy:
                    problems.append(f"slot {pid}.{slot} is vacant")
        if problems:
            return problems

        # rotation tuples are exactly the incident darts, each point nonempty
        incident: dict[str, set[Dart]] = {pid: set() for pid in self.points}
        for eid, e in self.edges.items():
            incident[e.src.point].add((eid, "src"))
            incident[e.dst.point].add((eid, "tgt"))
        for pid in self.points:
            seq = self.rotation.get(pid)
            if seq is None:
                problems.append(f"point {pid}: missing rotation")
                continue
            if len(set(seq)) != len(seq):
                problems.append(f"point {pid}: repeated dart in rotation")
            if set(seq) != incident[pid]:
                problems.append(f"point {pid}: rotation does not list its incident ends")
            if not seq:
                problems.append(f"point {pid}: isolated (no incident ends)")
        for pid in self.rotation:
            if pid not in self.points:
                problems.append(f"rotation for unknown point {pid}")
        if problems:
            return problems

        # local cyclic patterns at saddle-type points
        for pid, p in self.points.items():
            seq = self.rotation[pid]
            slots = [self.dart_slot(d) for d in seq]
            if p.kind == HYPERBOLIC:
                if len(seq) != 4:
                    problems.append(f"hyperbolic {pid}: degree {len(seq)} != 4")
                    continue
                rolled = [
                    tuple(slots[(i + k) % 4] for k in range(4)) for i in range(4)
                ]
                if tuple(HYPERBOLIC_SLOTS) not in rolled:
                    problems.append(f"hyperbolic {pid}: rotation must read s0,u0,s1,u1")
            elif p.kind == EMBRYO:
                anchor = "in" if p.sign > 0 else "out"
                if anchor not in slots:
                    problems.append(f"embryo {pid}: missing {anchor} end")
                    continue
                i = slots.index(anchor)
                rolled = [slots[(i + k) % len(slots)] for k in range(len(slots))]
                ok = (
                    len(rolled) >= 3
                    and rolled[0] == anchor
                    and rolled[1] == "b0"
                    and rolled[-1] == "b1"
                    and all(s == "zone" for s in rolled[2:-1])
                )
                if not ok:
                    problems.append(
                        f"embryo {pid}: rotation must read {anchor},b0,zone...,b1"
                    )
            else:
                if any(s is not None for s in slots):
                    problems.append(f"elliptic {pid}: ends must be slot-free")
        if problems:
            return problems

        # connectivity; the rotation checks above make the rotation system a
        # permutation of the darts, so the dart table builds
        if self.points:
            _, index, _, _, point = self.dart_table()
            seen = {next(iter(sorted(self.points)))}
            frontier = list(seen)
            while frontier:
                pid = frontier.pop()
                for d in self.rotation[pid]:
                    q = point[index[d] ^ 1]
                    if q not in seen:
                        seen.add(q)
                        frontier.append(q)
            if seen != set(self.points):
                problems.append("graph is not connected")
        if problems:
            return problems

        # sphere closure and flow-coherent faces
        try:
            faces = self.faces()
        except GraphError as exc:
            return [str(exc)]
        euler = len(self.points) - len(self.edges) + len(faces)
        if euler != 2:
            problems.append(f"Euler count V-E+F = {euler} != 2 (not a sphere)")
        for f in faces:
            ns, nk = len(f.source_corners), len(f.sink_corners)
            if (ns, nk) != (1, 1):
                problems.append(
                    f"face {f.index}: {ns} source / {nk} sink corners (need 1/1)"
                )
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.validate()

    def require_valid(self) -> "FoliationGraph":
        problems = self.validate()
        if problems:
            raise GraphError("; ".join(problems))
        return self

    # ----------------------------------------------------------- conveniences

    def points_of_kind(self, kind: str) -> list[SingularPoint]:
        return [p for p in self.points.values() if p.kind == kind]

    def saddle_points(self) -> list[SingularPoint]:
        return [p for p in self.points.values() if p.kind in SADDLE_KINDS]

    def edge_at_slot(self, pid: str, slot: str) -> Separatrix:
        if self._slot_edge is None:
            by_slot: dict[tuple[str, str | None], Separatrix] = {}
            for e in self.edges.values():
                for ref in (e.src, e.dst):
                    by_slot.setdefault((ref.point, ref.slot), e)
            self._slot_edge = by_slot
        try:
            return self._slot_edge[(pid, slot)]
        except KeyError:
            raise GraphError(f"slot {pid}.{slot} is vacant") from None

    def is_elliptic_source(self, ref: EndRef) -> bool:
        """True if ``ref`` is a slot-free end at a positive elliptic point."""
        p = self.points[ref.point]
        return ref.slot is None and p.kind == ELLIPTIC and p.sign > 0

    def is_homoclinic(self, eid: str) -> bool:
        """True if both endpoints are saddle-type points (a saddle connection)."""
        e = self.edges[eid]
        return (
            self.points[e.src.point].kind in SADDLE_KINDS
            and self.points[e.dst.point].kind in SADDLE_KINDS
        )

    def homoclinic_edges(self) -> list[str]:
        return sorted(eid for eid in self.edges if self.is_homoclinic(eid))

    # ------------------------------------------------------- transformations

    def relabel(self, point_map: Mapping[str, str], edge_map: Mapping[str, str]) -> "FoliationGraph":
        pm = dict(point_map)
        em = dict(edge_map)
        points = {
            pm.get(pid, pid): replace(p, id=pm.get(pid, pid))
            for pid, p in self.points.items()
        }
        edges = {}
        for eid, e in self.edges.items():
            nid = em.get(eid, eid)
            edges[nid] = Separatrix(
                nid,
                EndRef(pm.get(e.src.point, e.src.point), e.src.slot),
                EndRef(pm.get(e.dst.point, e.dst.point), e.dst.slot),
                e.marker,
            )
        rotation = {
            pm.get(pid, pid): tuple((em.get(eid, eid), end) for eid, end in seq)
            for pid, seq in self.rotation.items()
        }
        return FoliationGraph(points, edges, rotation)

    def reverse(self) -> "FoliationGraph":
        """The time-reversed flow: signs flip, stable and unstable swap.

        Rotation order is kept (reversal preserves the orientation of the
        sphere); slot names at hyperbolic points are re-normalized so the
        counterclockwise pattern reads s0,u0,s1,u1 again.
        """
        slot_map: dict[tuple[str, str | None], str | None] = {}
        points: dict[str, SingularPoint] = {}
        for pid, p in self.points.items():
            points[pid] = SingularPoint(pid, p.kind, -p.sign)
            if p.kind == HYPERBOLIC:
                seq = self.rotation[pid]
                # old unstable slots become stable; start the pattern at one
                start = next(
                    i for i, d in enumerate(seq) if self.dart_slot(d) in ("u0", "u1")
                )
                for k in range(4):
                    old = self.dart_slot(seq[(start + k) % 4])
                    slot_map[(pid, old)] = HYPERBOLIC_SLOTS[k]
            elif p.kind == EMBRYO:
                slot_map[(pid, "in" if p.sign > 0 else "out")] = (
                    "out" if p.sign > 0 else "in"
                )
                slot_map[(pid, "b0")] = "b0"
                slot_map[(pid, "b1")] = "b1"
                slot_map[(pid, "zone")] = "zone"

        def flip(ref: EndRef) -> EndRef:
            return EndRef(ref.point, slot_map.get((ref.point, ref.slot), ref.slot))

        edges = {
            eid: Separatrix(eid, flip(e.dst), flip(e.src), e.marker)
            for eid, e in self.edges.items()
        }
        rotation = {
            pid: tuple(self.theta(d) for d in seq) for pid, seq in self.rotation.items()
        }
        return FoliationGraph(points, edges, rotation)

    def without_edge(self, eid: str) -> "FoliationGraph":
        edges = {k: v for k, v in self.edges.items() if k != eid}
        rotation = {
            pid: tuple(d for d in seq if d[0] != eid)
            for pid, seq in self.rotation.items()
        }
        return FoliationGraph(self.points, edges, rotation)

    def marker_reduce(self) -> "FoliationGraph":
        """Delete marker leaves in id order while another edge is left.

        The graph must be valid, and then so is the result.  A marker leaf
        has no named slot, so deleting it leaves the slot and rotation-pattern
        rules as they were.  Every germ at a positive elliptic point or in a
        positive zone goes out and every germ at the negative kinds comes in,
        so both corners beside the leaf at its source end are source corners
        and both at its sink end are sink corners.  An end that keeps another germ has two distinct such
        corners, and a flow box holds only one corner of each flavor, so the
        leaf's two darts lie on different faces.  An end that keeps no other
        germ has one corner, which puts both darts on one face.  Hence, in a
        connected graph with another edge, one end keeps another germ, so
        the two faces differ, so the other end keeps one too.  The leaf is
        then no bridge, so connectivity and V - E + F = 2 survive its
        deletion, and the merged face keeps exactly one source and one sink
        corner.  Only the single leaf of the trivial sphere stays.
        """
        g = self
        for eid in sorted(e for e, s in self.edges.items() if s.marker):
            if len(g.edges) > 1:
                g = g.without_edge(eid)
        return g

    # ------------------------------------------------------- canonical form

    def canonical_form(self) -> str:
        """A string invariant that is equal exactly for isomorphic graphs.

        Isomorphism means: a bijection of points and edges preserving kinds,
        signs, marker flags, flow directions, slot kinds (the arbitrary 0/1
        labels on stable/unstable/boundary slots are erased) and the
        counterclockwise rotation order.  Defined for connected graphs, which
        every valid graph is; raises :class:`GraphError` where the dart table
        does (a rotation system that is not a permutation of the darts, or a
        slot its point does not have).

        Each dart gets a small integer label (point kind and sign, slot kind,
        src/tgt end, marker flag).  A breadth-first walk from a start dart,
        stepping to ``theta`` then ``sigma``, numbers the darts; each dart in
        walk order contributes ``(label, pos[theta], pos[sigma])``, and the
        form is the least such code over all starts.  Only darts whose local
        invariant ``(label, point degree, label of theta, label of sigma)``
        is least are tried as starts, since an isomorphism maps that class
        onto its counterpart, and a walk is abandoned as soon as its prefix
        exceeds the best code so far.

        Only equality of the returned strings is specified; their format
        and order carry no meaning and may change between versions.
        """
        if self._canon is None:
            self._canon = self._canonical_code()
        return self._canon

    def _canonical_code(self) -> str:
        table = self.dart_table()
        n = len(table.darts)
        if not n:
            return "empty"
        sigma = table.sigma
        label = [0] * n
        for k, e in enumerate(self.edges.values()):
            for end, ref in ((0, e.src), (1, e.dst)):
                p = self.points[ref.point]
                label[2 * k + end] = (
                    ((_KIND_CODE[p.kind] * 3 + p.sign + 1) * 8 + _SLOT_CLASS[ref.slot]) * 2
                    + end
                ) * 2 + e.marker
        degree = [len(self.rotation[p]) for p in table.point]

        local = [(label[d], degree[d], label[d ^ 1], label[sigma[d]]) for d in range(n)]
        least = min(local)
        best: list[tuple[int, int, int]] = []
        for start in range(n):
            if local[start] != least:
                continue
            pos = [-1] * n
            pos[start] = 0
            order = [start]
            code: list[tuple[int, int, int]] = []
            tied = bool(best)  # prefix equal to best so far
            for d in order:
                t = d ^ 1
                if pos[t] < 0:
                    pos[t] = len(order)
                    order.append(t)
                s = sigma[d]
                if pos[s] < 0:
                    pos[s] = len(order)
                    order.append(s)
                item = (label[d], pos[t], pos[s])
                if tied:
                    if len(code) == len(best) or item > best[len(code)]:
                        break
                    tied = item == best[len(code)]
                code.append(item)
            else:
                if not tied or len(code) < len(best):
                    best = code
        return ";".join(f"{a},{b},{c}" for a, b, c in best)

    def is_isomorphic(self, other: "FoliationGraph") -> bool:
        return self.canonical_form() == other.canonical_form()

    # --------------------------------------------------------- serialization

    def to_data(self) -> dict:
        return {
            "points": [
                {"id": p.id, "kind": p.kind, "sign": p.sign}
                for p in sorted(self.points.values(), key=lambda p: p.id)
            ],
            "edges": [
                {
                    "id": e.id,
                    "src": {"point": e.src.point, "slot": e.src.slot},
                    "dst": {"point": e.dst.point, "slot": e.dst.slot},
                    "marker": e.marker,
                }
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
            "rotation": {
                pid: [[eid, end] for eid, end in seq]
                for pid, seq in sorted(self.rotation.items())
            },
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "FoliationGraph":
        points = [
            SingularPoint(d["id"], d["kind"], int(d["sign"])) for d in data["points"]
        ]
        edges = [
            Separatrix(
                d["id"],
                EndRef(d["src"]["point"], d["src"].get("slot")),
                EndRef(d["dst"]["point"], d["dst"].get("slot")),
                bool(d.get("marker", False)),
            )
            for d in data["edges"]
        ]
        rotation = {
            pid: tuple((eid, end) for eid, end in seq)
            for pid, seq in data["rotation"].items()
        }
        return cls(points, edges, rotation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FoliationGraph(V={len(self.points)}, E={len(self.edges)}, "
            f"F={len(self.faces()) if self.is_valid else '?'})"
        )


def build(
    points: Sequence[tuple[str, str, int]],
    edges: Sequence[tuple],
    rotation: Mapping[str, Sequence[Dart]],
) -> FoliationGraph:
    """Compact constructor used by fixtures and tests.

    ``points``: (id, kind, sign) triples.
    ``edges``: (id, src_point, src_slot, dst_point, dst_slot[, marker]).
    """
    ps = [SingularPoint(*t) for t in points]
    es = []
    for t in edges:
        eid, sp, ss, dp, ds = t[:5]
        marker = bool(t[5]) if len(t) > 5 else False
        es.append(Separatrix(eid, EndRef(sp, ss), EndRef(dp, ds), marker))
    return FoliationGraph(ps, es, rotation)
