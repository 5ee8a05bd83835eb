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

from dataclasses import dataclass
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


class DecisionError(GraphError):
    """The graph is outside the decision procedure's domain."""


class InternalCheckError(DecisionError):
    """A cross-check between independent routes failed: a bug, not an input."""


class UnionFind:
    """Disjoint sets with path halving.

    ``union(a, b)`` hangs the root of ``a`` under the root of ``b``, so the
    root a set ends with depends only on the order of the unions.
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._up = {x: x for x in items}

    def add(self, x: Hashable) -> None:
        self._up[x] = x

    def __contains__(self, x: Hashable) -> bool:
        return x in self._up

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


class Corner(NamedTuple):
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
    """A face of the sphere as :meth:`FoliationGraph.faces` builds it.

    ``index`` is its place among the faces, ``darts`` its darts in walk order
    from its least one, and ``corners`` the corner at each of them, in the
    same order.  ``source_corners`` and ``sink_corners`` are the source and
    the sink corners among ``corners``, in walk order, derived on each read.
    Equality compares the three fields.
    """

    index: int
    darts: tuple[Dart, ...]
    corners: tuple[Corner, ...]

    @property
    def source_corners(self) -> tuple[Corner, ...]:
        return tuple([c for c in self.corners if c.flavor == "source"])

    @property
    def sink_corners(self) -> tuple[Corner, ...]:
        return tuple([c for c in self.corners if c.flavor == "sink"])


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


class FaceTable(NamedTuple):
    """The faces of a graph over its integer darts.

    Faces are numbered as :meth:`FoliationGraph.faces` numbers them, by
    their least tuple dart.  ``face[d]`` is the face of dart ``d`` and
    ``orbits[f]`` lists face ``f``'s darts in walk order from its least one.
    The corner at dart ``d`` of a walk is entered along ``d ^ 1``, so a
    corner is named by that enter dart: ``source[f]`` and ``sink[f]`` are
    the enter darts of face ``f``'s source and sink corners, or ``-1`` when
    the face does not have exactly one, which a valid graph rules out.
    """

    face: list[int]
    orbits: list[list[int]]
    source: list[int]
    sink: list[int]


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
        self._face_table: FaceTable | None = None
        self._problems: tuple[str, ...] | None = None
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

    def dart_slot(self, dart: Dart) -> str | None:
        return self.end_ref(dart).slot

    @staticmethod
    def theta(dart: Dart) -> Dart:
        eid, end = dart
        return (eid, "tgt" if end == "src" else "src")

    def dart_table(self) -> DartTable:
        """The integer dart table, built on first use.

        Raises :class:`GraphError` unless every point's rotation tuple lists
        exactly its own darts, each once: only then is the rotation system a
        permutation of the darts, and the face walk well defined.
        """
        if self._table is None:
            out: list[bool] = []
            point: list[str] = []
            for e in self.edges.values():
                for ref in (e.src, e.dst):
                    out.append(end_direction(self.points[ref.point], ref.slot) == "out")
                    point.append(ref.point)
            if self._read_rotation(point, out):
                raise GraphError("rotation system is not a permutation of darts")
        return self._table

    def _read_rotation(self, point: list[str], out: list[bool]) -> list[str]:
        """Read every rotation tuple once; the messages of the points that fail.

        ``point`` and ``out`` give each dart's point and direction in dart
        order.  ``sigma`` is filled as the tuples are read, and only a point
        that fails is read again, with sets, for its messages.  When none
        fails, every point placed its own darts, each once, so ``sigma`` is a
        permutation of the darts, and the dart table is set.
        """
        points, rotation = self.points, self.rotation
        darts = self.darts()
        index = {d: i for i, d in enumerate(darts)}
        degree = dict.fromkeys(points, 0)
        for q in point:
            degree[q] += 1
        sigma = [-1] * len(darts)
        problems: list[str] = []
        for pid in points:
            seq = rotation.get(pid)
            ok = bool(seq) and len(seq) == degree[pid]
            if ok:
                ids = [index.get(d, -1) for d in seq]
                for i, succ in zip(ids, ids[1:] + ids[:1]):
                    if i < 0 or point[i] != pid or sigma[i] >= 0:
                        ok = False
                        break
                    sigma[i] = succ
            if ok:
                continue
            if seq is None:
                problems.append(f"point {pid}: missing rotation")
                continue
            listed = set(seq)
            if len(listed) != len(seq):
                problems.append(f"point {pid}: repeated dart in rotation")
            if listed != {d for d, q in zip(darts, point) if q == pid}:
                problems.append(f"point {pid}: rotation does not list its incident ends")
            if not seq:
                problems.append(f"point {pid}: isolated (no incident ends)")
        for pid in rotation:
            if pid not in points:
                problems.append(f"rotation for unknown point {pid}")
        if not problems:
            self._table = DartTable(darts, index, sigma, out, point)
        return problems

    # ----------------------------------------------------------------- faces

    def face_table(self) -> FaceTable:
        """The integer face table, built by one face walk on first use.

        Raises :class:`GraphError` where :meth:`dart_table` does.
        """
        if self._face_table is None:
            darts, _, sigma, out, _ = self.dart_table()
            face = [-1] * len(darts)
            orbits: list[list[int]] = []
            source: list[int] = []
            sink: list[int] = []
            for start in sorted(range(len(darts)), key=darts.__getitem__):
                if face[start] >= 0:
                    continue
                # phi is a permutation (the table checks sigma), so the walk
                # meets no seen dart before it closes at start
                f = len(orbits)
                orbit: list[int] = []
                sources: list[int] = []
                sinks: list[int] = []
                d = start
                while face[d] < 0:
                    face[d] = f
                    orbit.append(d)
                    enter = d ^ 1
                    d = sigma[enter]
                    if out[enter] == out[d]:
                        (sources if out[d] else sinks).append(enter)
                orbits.append(orbit)
                source.append(sources[0] if len(sources) == 1 else -1)
                sink.append(sinks[0] if len(sinks) == 1 else -1)
            self._face_table = FaceTable(face, orbits, source, sink)
        return self._face_table

    def faces(self) -> tuple[Face, ...]:
        """The faces as objects, built from the face table's walks; the
        library reads the table itself and builds these only for output and
        to name a face that breaks the face rule."""
        if self._faces is None:
            darts, _, sigma, out, point = self.dart_table()
            flavors = {(True, True): "source", (False, False): "sink"}
            faces: list[Face] = []
            for orbit in self.face_table().orbits:
                corners: list[Corner] = []
                for d in orbit:
                    enter = d ^ 1
                    leave = sigma[enter]
                    flavor = flavors.get((out[enter], out[leave]), "through")
                    corners.append(Corner(point[enter], darts[enter], darts[leave], flavor))
                faces.append(Face(len(faces), tuple([darts[d] for d in orbit]), tuple(corners)))
            self._faces = tuple(faces)
        return self._faces

    # ------------------------------------------------------------ validation

    def validate(self) -> list[str]:
        """Return a fresh list of violation messages; empty means valid.

        The checks run once per graph, which is never mutated, so validating
        a graph again (``require_valid`` after a load) is a lookup.  The face
        rule reads the face table; the faces are built only to name a face
        that breaks it.
        """
        if self._problems is None:
            self._problems = tuple(self._check())
        return list(self._problems)

    def _check(self) -> list[str]:
        points, edges, rotation = self.points, self.edges, self.rotation
        problems: list[str] = []
        for pid, p in points.items():
            if pid != p.id:
                problems.append(f"point key {pid} != id {p.id}")
        for eid, e in edges.items():
            if eid != e.id:
                problems.append(f"edge key {eid} != id {e.id}")
            for ref in (e.src, e.dst):
                if ref.point not in points:
                    problems.append(f"edge {eid}: unknown point {ref.point}")
        if problems:
            return problems

        # end directions and slot discipline; the point, slot and direction
        # of every end are read once, in dart order (see DartTable)
        free = (None, "zone")
        point: list[str] = []
        slot: list[str | None] = []
        out: list[bool] = []
        for eid, e in edges.items():
            src, dst = e.src, e.dst
            point += (src.point, dst.point)
            slot += (src.slot, dst.slot)
            try:
                d_src = end_direction(points[src.point], src.slot)
                d_dst = end_direction(points[dst.point], dst.slot)
            except GraphError as exc:
                problems.append(f"edge {eid}: {exc}")
                continue
            out += (d_src == "out", d_dst == "out")
            if d_src != "out":
                problems.append(f"edge {eid}: src end sits in an absorbing slot")
            if d_dst != "in":
                problems.append(f"edge {eid}: dst end sits in an emitting slot")
            if e.marker and not (src.slot in free and dst.slot in free):
                problems.append(f"edge {eid}: marker leaves may not occupy named slots")
            if not e.marker and src.slot in free and dst.slot in free:
                problems.append(f"edge {eid}: slot-free edge must be a marker leaf")

        # named slots occupied exactly once, with the full complement present
        occupancy: dict[tuple[str, str], int] = {}
        for key in zip(point, slot):
            if key[1] not in free:
                occupancy[key] = occupancy.get(key, 0) + 1
        for (pid, s), n in occupancy.items():
            if n > 1:
                problems.append(f"slot {pid}.{s} occupied {n} times")
        for pid, p in points.items():
            # tuples, not sets, so the messages come in one order under every hash seed
            if p.kind == HYPERBOLIC:
                needed = HYPERBOLIC_SLOTS
            elif p.kind == EMBRYO:
                needed = ("in" if p.sign > 0 else "out", "b0", "b1")
            else:
                continue
            for s in needed:
                if (pid, s) not in occupancy:
                    problems.append(f"slot {pid}.{s} is vacant")
        if problems:
            return problems

        # rotation tuples are exactly the incident darts, each point nonempty;
        # a table built before validation has read them already
        if self._table is None:
            problems = self._read_rotation(point, out)
            if problems:
                return problems
        index, sigma = self._table.index, self._table.sigma

        # local cyclic patterns at saddle-type points; an elliptic end with a
        # slot has no direction, which the slot discipline above reports
        for pid, p in points.items():
            if p.kind == ELLIPTIC:
                continue
            seq = rotation[pid]
            slots = [slot[index[d]] for d in seq]
            if p.kind == HYPERBOLIC:
                # the degree is 4: every end here has a direction, so its
                # slot is one of s0, u0, s1, u1; each of those is occupied
                # exactly once, and the rotation lists exactly the incident
                # darts with no repeat.  So s0 is occupied and listed
                i = slots.index("s0")
                if tuple(slots[i:] + slots[:i]) != HYPERBOLIC_SLOTS:
                    problems.append(f"hyperbolic {pid}: rotation must read s0,u0,s1,u1")
            else:
                anchor = "in" if p.sign > 0 else "out"
                i = slots.index(anchor)  # occupied and listed, as s0 above
                rolled = slots[i:] + slots[:i]
                ok = (
                    len(rolled) >= 3
                    and rolled[1] == "b0"
                    and rolled[-1] == "b1"
                    and all(s == "zone" for s in rolled[2:-1])
                )
                if not ok:
                    problems.append(
                        f"embryo {pid}: rotation must read {anchor},b0,zone...,b1"
                    )
        if problems:
            return problems

        # connectivity: every dart is reached from dart 0 by theta and sigma
        # (every point has a dart, by the rotation checks)
        n = len(sigma)
        if n:
            reached = [False] * n
            reached[0] = True
            stack = [0]
            while stack:
                d = stack.pop()
                for e in (d ^ 1, sigma[d]):
                    if not reached[e]:
                        reached[e] = True
                        stack.append(e)
            if not all(reached):
                return ["graph is not connected"]

        # sphere closure and flow-coherent faces, on the face table.  Every
        # edge runs from an out end to an in end, so a face walk turns from
        # against the flow to along it exactly at a source corner and back
        # exactly at a sink corner: a face has as many sink corners as
        # source corners, and it is a flow box when it has one source corner.
        source = self.face_table().source
        euler = len(points) - len(edges) + len(source)
        if euler != 2:
            problems.append(f"Euler count V-E+F = {euler} != 2 (not a sphere)")
        if -1 in source:
            # name each bad face by its index among faces()
            for f in self.faces():
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

    def reverse(self) -> "FoliationGraph":
        """The time-reversed flow: signs flip, stable and unstable swap.

        Rotation order is kept (reversal preserves the orientation of the
        sphere); slot names at hyperbolic points are re-normalized so the
        counterclockwise pattern reads s0,u0,s1,u1 again.

        Reversal keeps validity, so a graph known to be valid hands its
        verdict on, and the result reads its own rotation system when its
        dart table is first asked for; any other graph hands on nothing, and
        its reversal is checked from scratch when validated.  Raises
        :class:`GraphError` when a hyperbolic point's rotation lists no
        unstable dart, since the pattern has nowhere to start.
        """
        slot_map: dict[tuple[str, str | None], str | None] = {}
        points: dict[str, SingularPoint] = {}
        for pid, p in self.points.items():
            points[pid] = SingularPoint(pid, p.kind, -p.sign)
            if p.kind == HYPERBOLIC:
                slots = [self.dart_slot(d) for d in self.rotation.get(pid, ())]
                # old unstable slots become stable; start the pattern at one
                start = next((i for i, s in enumerate(slots) if s in ("u0", "u1")), None)
                if start is None:
                    raise GraphError(f"hyperbolic point {pid}: rotation lists no unstable dart")
                for new, old in zip(HYPERBOLIC_SLOTS, slots[start:] + slots[:start]):
                    slot_map[(pid, old)] = new
            elif p.kind == EMBRYO:
                # the boundary and zone slots keep their names
                slot_map[(pid, "in" if p.sign > 0 else "out")] = (
                    "out" if p.sign > 0 else "in"
                )

        def flip(ref: EndRef) -> EndRef:
            slot = slot_map.get((ref.point, ref.slot), ref.slot)
            return ref if slot == ref.slot else EndRef(ref.point, slot)

        edges = {
            eid: Separatrix(eid, flip(e.dst), flip(e.src), e.marker)
            for eid, e in self.edges.items()
        }
        rotation = {
            pid: tuple(self.theta(d) for d in seq) for pid, seq in self.rotation.items()
        }
        rev = FoliationGraph(points, edges, rotation)
        if self._problems == ():
            rev._problems = ()
        return rev

    def marker_reduce(self) -> "FoliationGraph":
        """Delete marker leaves in id order while another edge is left.

        The graph must be valid, and then so is the result.  A marker leaf
        has no named slot, so deleting it leaves the slot and rotation-pattern
        rules as they were.  Every germ at a positive elliptic point or in a
        positive zone goes out and every germ at the negative kinds comes in,
        so both corners beside the leaf at its source end are source corners
        and both at its sink end are sink corners.  An end that keeps another
        germ has two distinct such corners, and a flow box holds only one
        corner of each flavor, so the leaf's two darts lie on different
        faces.  An end that keeps no other germ has one corner, which puts
        both darts on one face.  Hence, in a connected graph with another
        edge, one end keeps another germ, so the two faces differ, so the
        other end keeps one too.  The leaf is then no bridge, so connectivity
        and V - E + F = 2 survive its deletion, and the merged face keeps
        exactly one source and one sink corner.  Only the single leaf of the
        trivial sphere stays.

        So one construction deletes every marker but the last in id order
        when all edges are markers, and every marker otherwise, and a graph
        known to be valid hands that verdict on to the result.
        """
        drop = sorted(e for e, s in self.edges.items() if s.marker)[: len(self.edges) - 1]
        if not drop:
            return self
        edges = {k: v for k, v in self.edges.items() if k not in drop}
        rotation = {
            pid: tuple(d for d in seq if d[0] not in drop) for pid, seq in self.rotation.items()
        }
        g = FoliationGraph(self.points, edges, rotation)
        if self._problems == ():
            g._problems = ()
        return g

    # ------------------------------------------------------- canonical form

    def canonical_form(self) -> str:
        """A string invariant that is equal exactly for isomorphic graphs.

        Isomorphism means: a bijection of points and edges preserving kinds,
        signs, marker flags, flow directions, slot kinds (the arbitrary 0/1
        labels on stable/unstable/boundary slots are erased) and the
        counterclockwise rotation order.  Defined for connected graphs, which
        every valid graph is; raises :class:`GraphError` where the dart table
        does (a rotation tuple that does not list exactly its point's darts,
        or a slot its point does not have).

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FoliationGraph(V={len(self.points)}, E={len(self.edges)}, "
            f"F={len(self.face_table().orbits) if self.is_valid else '?'})"
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
