"""Reference implementations that the tests compare the library with.

No command runs these, so they live with the tests rather than in
``charfol``:

* :class:`TupleReference` is the face walk and canonical code over tuple
  darts that the dart table, the face table and ``canonical_form``
  replaced; its :class:`TupleFace` and :class:`TupleCorner` are the faces
  that the tests read corners from;
* :func:`relabel` and :func:`from_data` build graphs for the isomorphism
  and round-trip tests, and :func:`without_edge` builds invalid ones;
* :func:`create_pair_by_conjugation` is the negative birth as the positive
  one on the time reversal, reversed back, which
  :func:`charfol.moves.create_pair` plants in place;
* :func:`reference_eliminate_embryo` is an embryo's death as the expansion
  followed by the pair's cancellation, which
  :func:`charfol.moves.eliminate_embryo` runs without expanding;
* :func:`reference_decide_by_perturbation` decides a sphere with an embryo
  or a saddle connection on the Morse–Smale spheres near it, where
  :func:`charfol.tightness.decide_tightness` searches the sphere itself;
* :func:`eq_simplicity_violations` and :func:`eq_simplicity_check` are the
  path-inequality reading of simplicity that acceptance check C6 compares
  with taming;
* :func:`component_simple` reads simplicity as a forest on sublevel
  components, which on the sphere is the circle forest that
  :func:`charfol.taming.simplicity_check` reads;
* :func:`enumerate_reference` is the slow, independent assembly of the
  connection-free universe up to three saddles that ``enumerate_signature``
  is checked against.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Mapping, NamedTuple

from charfol import zoo
from charfol.invariants import elliptic_feeders, positive_tree
from charfol.model import (
    _KIND_CODE,
    _SLOT_CLASS,
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    Dart,
    EndRef,
    FoliationGraph,
    Separatrix,
    SingularPoint,
    UnionFind,
    end_direction,
)
from charfol.moves import (
    MoveError,
    MoveRecord,
    MoveResult,
    create_pair,
    eliminate_embryo,
    eliminate_pair,
    resolve_connection,
    resolve_embryo,
)
from charfol.taming import (
    Assignment,
    check_assignment,
    levels,
    lyapunov_violations,
    stable_circles,
)
from charfol.tightness import DecisionError, decide_tightness

# --------------------------------------------------------- the tuple walk


class TupleCorner(NamedTuple):
    """An angular sector of a face at one of its boundary points.

    ``enter`` is the dart along which the face walk arrives at ``point`` and
    ``leave`` the dart along which it departs (the rotation successor of
    ``enter``).  ``flavor`` is ``"source"`` (both germs outgoing), ``"sink"``
    (both incoming) or ``"through"``.
    """

    point: str
    enter: Dart
    leave: Dart
    flavor: str


class TupleFace(NamedTuple):
    """A face: its place among the faces, its darts in walk order from its
    least one, and the corner at each of them in the same order."""

    index: int
    darts: tuple[Dart, ...]
    corners: tuple[TupleCorner, ...]

    def corners_of(self, flavor: str) -> tuple[TupleCorner, ...]:
        return tuple(c for c in self.corners if c.flavor == flavor)


class TupleReference:
    """What ``FoliationGraph`` computed before its integer tables.

    Each dart's rotation successor comes from its position in its rotation
    tuple and its flow direction from its slot.  Faces are traced by
    ``phi`` over tuple darts in sorted order, each corner classified by the
    directions of its two darts, and the canonical code is numbered from a
    dart index and successor array of its own.  The rotation system must be
    a permutation of the darts.
    """

    def __init__(self, g: FoliationGraph) -> None:
        self.g = g
        self.pos = {}
        for seq in g.rotation.values():
            for i, d in enumerate(seq):
                self.pos.setdefault(d, (seq, i))

    def sigma(self, d):
        seq, i = self.pos[d]
        return seq[(i + 1) % len(seq)]

    def phi(self, d):
        return self.sigma(FoliationGraph.theta(d))

    def direction(self, d):
        ref = self.g.end_ref(d)
        return end_direction(self.g.points[ref.point], ref.slot)

    def faces(self) -> tuple[TupleFace, ...]:
        g = self.g
        seen, faces = set(), []
        for start in sorted(g.darts()):
            if start in seen:
                continue
            orbit, d = [], start
            while True:
                orbit.append(d)
                seen.add(d)
                d = self.phi(d)
                if d == start:
                    break
            corners = []
            for d in orbit:
                enter, leave = FoliationGraph.theta(d), self.phi(d)
                dirs = {self.direction(enter), self.direction(leave)}
                flavor = (
                    "source" if dirs == {"out"} else "sink" if dirs == {"in"} else "through"
                )
                corners.append(TupleCorner(g.end_ref(enter).point, enter, leave, flavor))
            faces.append(TupleFace(len(faces), tuple(orbit), tuple(corners)))
        return tuple(faces)

    def canonical_form(self) -> str:
        g = self.g
        darts = g.darts()
        if not darts:
            return "empty"
        n = len(darts)
        index = {d: i for i, d in enumerate(darts)}
        label = [0] * n
        for k, e in enumerate(g.edges.values()):
            for end, ref in ((0, e.src), (1, e.dst)):
                p = g.points[ref.point]
                label[2 * k + end] = (
                    ((_KIND_CODE[p.kind] * 3 + p.sign + 1) * 8 + _SLOT_CLASS[ref.slot]) * 2 + end
                ) * 2 + e.marker
        sigma, degree = [0] * n, [0] * n
        for seq in g.rotation.values():
            for j, d in enumerate(seq):
                sigma[index[d]] = index[seq[(j + 1) % len(seq)]]
                degree[index[d]] = len(seq)
        local = [(label[d], degree[d], label[d ^ 1], label[sigma[d]]) for d in range(n)]
        codes = []
        for start in range(n):
            if local[start] != min(local):
                continue
            pos, order = [-1] * n, [start]
            pos[start] = 0
            for d in order:
                for s in (d ^ 1, sigma[d]):
                    if pos[s] < 0:
                        pos[s] = len(order)
                        order.append(s)
            codes.append([(label[d], pos[d ^ 1], pos[sigma[d]]) for d in order])
        return ";".join(f"{a},{b},{c}" for a, b, c in min(codes))


# ------------------------------------------------------------------- graphs


def relabel(
    g: FoliationGraph, point_map: Mapping[str, str], edge_map: Mapping[str, str]
) -> FoliationGraph:
    """``g`` with its point and edge ids renamed; ids not in a map stay."""
    pm = dict(point_map)
    em = dict(edge_map)
    points = {
        pm.get(pid, pid): replace(p, id=pm.get(pid, pid)) for pid, p in g.points.items()
    }
    edges = {}
    for eid, e in g.edges.items():
        nid = em.get(eid, eid)
        edges[nid] = Separatrix(
            nid,
            EndRef(pm.get(e.src.point, e.src.point), e.src.slot),
            EndRef(pm.get(e.dst.point, e.dst.point), e.dst.slot),
            e.marker,
        )
    rotation = {
        pm.get(pid, pid): tuple((em.get(eid, eid), end) for eid, end in seq)
        for pid, seq in g.rotation.items()
    }
    return FoliationGraph(points, edges, rotation)


def from_data(data: Mapping) -> FoliationGraph:
    """The inverse of ``FoliationGraph.to_data``."""
    points = {d["id"]: SingularPoint(d["id"], d["kind"], int(d["sign"])) for d in data["points"]}
    edges = {
        d["id"]: Separatrix(
            d["id"],
            EndRef(d["src"]["point"], d["src"].get("slot")),
            EndRef(d["dst"]["point"], d["dst"].get("slot")),
            bool(d.get("marker", False)),
        )
        for d in data["edges"]
    }
    rotation = {
        pid: tuple((eid, end) for eid, end in seq) for pid, seq in data["rotation"].items()
    }
    return FoliationGraph(points, edges, rotation)


def without_edge(g: FoliationGraph, eid: str) -> FoliationGraph:
    """``g`` with edge ``eid`` and its two darts deleted."""
    edges = {k: v for k, v in g.edges.items() if k != eid}
    rotation = {pid: tuple(d for d in seq if d[0] != eid) for pid, seq in g.rotation.items()}
    return FoliationGraph(g.points, edges, rotation)


def create_pair_by_conjugation(g: FoliationGraph, face_index: int) -> MoveResult:
    """A negative pair planted in face ``face_index`` of ``g`` by conjugation.

    The faces of the reversal are the theta-images of the faces of ``g``,
    so the matching face is found by its dart set.  The record is the
    positive one's, marked ``conjugated``, with the caller's face and sign.
    """
    rev = g.reverse()
    target = {FoliationGraph.theta(d) for d in TupleReference(g).faces()[face_index].darts}
    (rev_face,) = [f.index for f in TupleReference(rev).faces() if set(f.darts) == target]
    res = create_pair(rev, rev_face, 1)
    details = {**res.record.details, "conjugated": True, "face": face_index, "sign": -1}
    return MoveResult(res.graph.reverse(), MoveRecord(res.record.kind, details))


def reference_eliminate_embryo(g: FoliationGraph, embryo_id: str) -> MoveResult:
    """An embryo's death as the cancellation of the pair it expands into:
    :func:`~charfol.moves.resolve_embryo`, then
    :func:`~charfol.moves.eliminate_pair` on the fresh source and the saddle,
    recorded as :func:`~charfol.moves.eliminate_embryo` records it.  This
    validates the expanded sphere too, which the library's move does not."""
    expanded = resolve_embryo(g, embryo_id)
    res = eliminate_pair(expanded.graph, expanded.record.details["new_elliptic"], embryo_id)
    details = {k: v for k, v in res.record.details.items() if k != "retargeted"}
    return MoveResult(
        res.graph, MoveRecord("eliminate_embryo", {**details, "eliminated": [embryo_id]})
    )


def reference_decide_by_perturbation(g: FoliationGraph) -> bool | None:
    """Whether ``g`` is tight, decided off the wall: None when a perturbing
    move refuses.

    An embryo on the first saddle connection, else that connection, else
    the first embryo, is perturbed into the two spheres near ``g``: the
    embryo dies or expands, the connection is resolved to the left or to
    the right.  Each is decided the same way until it is Morse–Smale, where
    :func:`~charfol.tightness.decide_tightness` runs synthesis, and ``g`` is
    tight when both are.  The route shares no search with the prefix search
    that decides such a sphere on the sphere itself.
    """
    connections = g.homoclinic_edges()
    embryos = [pid for pid in sorted(g.points) if g.points[pid].kind == EMBRYO]
    if connections:
        e = g.edges[connections[0]]
        embryos = [pid for pid in (e.src.point, e.dst.point) if pid in embryos]
    if embryos:
        perturbations = [(move, (embryos[0],)) for move in (eliminate_embryo, resolve_embryo)]
    elif connections:
        perturbations = [(resolve_connection, (connections[0], side)) for side in ("left", "right")]
    else:
        return decide_tightness(g).tight
    verdicts = []
    for move, args in perturbations:
        try:
            verdicts.append(reference_decide_by_perturbation(move(g, *args).graph))
        except MoveError:
            return None
    return None if None in verdicts else all(verdicts)


# ---------------------------------------------- path-inequality simplicity


def eq_simplicity_violations(g: FoliationGraph, a: Assignment) -> list[str]:
    """Path-inequality reading of simplicity.

    Every negative saddle must sit strictly above the smallest positive-saddle
    value on the skeleton path between the two positive elliptic points that
    feed it.  Together with the Lyapunov condition this is equivalent to
    taming on tight connection-free instances whose skeleton is a tree.
    """
    check_assignment(g, a)
    adj: dict[str, list[tuple[str, str]]] = {}
    for u, v, hid in positive_tree(g).links:
        adj.setdefault(u, []).append((v, hid))
        adj.setdefault(v, []).append((u, hid))

    def merge_value(src: str, dst: str) -> Fraction | None:
        """Largest join value on the skeleton path: the two circles are one
        only once every join along the path has happened."""
        if src == dst:
            return Fraction(0)
        seen = {src}
        stack: list[tuple[str, Fraction | None]] = [(src, None)]
        while stack:
            node, high = stack.pop()
            for nxt, hid in adj.get(node, ()):
                if nxt in seen:
                    continue
                seen.add(nxt)
                raised = a[hid] if high is None else max(high, a[hid])
                if nxt == dst:
                    return raised
                stack.append((nxt, raised))
        return None

    out = []
    for p in sorted(g.points_of_kind(HYPERBOLIC), key=lambda p: p.id):
        if p.sign >= 0:
            continue
        srcs = elliptic_feeders(g, p.id)
        if srcs is None:
            out.append(f"negative saddle {p.id} is not fed by elliptic points")
            continue
        c = merge_value(*srcs)
        if c is None:
            out.append(f"feeders {srcs[0]}, {srcs[1]} of {p.id} never merge in the skeleton")
        elif not a[p.id] > c:
            out.append(
                f"negative saddle {p.id} at {a[p.id]} does not exceed the "
                f"skeleton merge value {c} of {srcs[0]} and {srcs[1]}"
            )
    return out


def eq_simplicity_check(g: FoliationGraph, a: Assignment) -> bool:
    return not eq_simplicity_violations(g, a)


# ------------------------------------------------------ component simplicity


def component_simple(g: FoliationGraph, a: Assignment) -> bool:
    """Simplicity read on components: at every level, the joins form a
    forest when each links the sublevel components whose boundary circles
    its stable separatrices cross.  A non-Lyapunov assignment is not simple."""
    if lyapunov_violations(g, a):
        return False
    for _, region, at in levels(g, a):
        comp = region.components()
        comp_of_circle = [
            comp[g.edges[circle.crossed_edges()[0]].src.point]
            for circle in region.boundary_circles()
        ]
        sets = UnionFind(set(comp_of_circle))
        for hid in at:
            if g.points[hid].kind != HYPERBOLIC:
                continue
            c0, c1 = stable_circles(region, hid)
            if c0 != c1 and not sets.union(comp_of_circle[c0], comp_of_circle[c1]):
                return False
    return True


# -------------------------------------------------------------- enumeration


def _set_partitions(items: list) -> list[list[list]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1 :])
        out.append([[first]] + part)
    return out


def _cyclic_orders(items: list) -> list[list]:
    if len(items) <= 1:
        return [list(items)]
    head, rest = items[0], items[1:]
    return [[head] + list(p) for p in itertools.permutations(rest)]


def enumerate_reference(plus: int, minus: int) -> list[FoliationGraph]:
    """Slow assembly of the connection-free universe, for cross-checking.

    Positive elliptic points are the blocks of a set partition of the stable
    slots, negative ones of the unstable slots; elliptic rotations range over
    cyclic orders; results are deduplicated by canonical form and listed in
    the order their first representative is assembled.  Sources feed
    saddles directly, so no connections and no markers occur (a floating
    elliptic would add a second source corner to some face).
    """
    total = plus + minus
    if total == 0:
        return [zoo.trivial()]
    if total > 3:
        raise DecisionError("enumeration bounded to three saddles")
    signs = [1] * plus + [-1] * minus
    saddle_ids = [f"h{i}" for i in range(total)]
    stable_slots = [(h, s) for h in saddle_ids for s in ("s0", "s1")]
    unstable_slots = [(h, u) for h in saddle_ids for u in ("u0", "u1")]

    seen: dict = {}
    for src_part in _set_partitions(stable_slots):
        for dst_part in _set_partitions(unstable_slots):
            src_blocks = [sorted(b) for b in src_part]
            dst_blocks = [sorted(b) for b in dst_part]
            e_plus = [f"p{i}" for i in range(len(src_blocks))]
            e_minus = [f"z{i}" for i in range(len(dst_blocks))]
            points = {}
            for i, h in enumerate(saddle_ids):
                points[h] = SingularPoint(h, HYPERBOLIC, signs[i])
            for pid in e_plus:
                points[pid] = SingularPoint(pid, ELLIPTIC, 1)
            for zid in e_minus:
                points[zid] = SingularPoint(zid, ELLIPTIC, -1)
            edges = {}
            src_darts: dict[str, list] = {pid: [] for pid in e_plus}
            dst_darts: dict[str, list] = {zid: [] for zid in e_minus}
            slot_edge: dict[tuple, str] = {}
            for i, block in enumerate(src_blocks):
                for h, slot in block:
                    eid = f"s_{h}_{slot}"
                    edges[eid] = Separatrix(eid, EndRef(e_plus[i], None), EndRef(h, slot))
                    src_darts[e_plus[i]].append((eid, "src"))
                    slot_edge[(h, slot)] = eid
            for i, block in enumerate(dst_blocks):
                for h, slot in block:
                    eid = f"u_{h}_{slot}"
                    edges[eid] = Separatrix(eid, EndRef(h, slot), EndRef(e_minus[i], None))
                    dst_darts[e_minus[i]].append((eid, "tgt"))
                    slot_edge[(h, slot)] = eid
            saddle_rot = {
                h: tuple(
                    (slot_edge[(h, s)], "tgt" if s.startswith("s") else "src")
                    for s in ("s0", "u0", "s1", "u1")
                )
                for h in saddle_ids
            }
            for src_rots in itertools.product(
                *(_cyclic_orders(src_darts[pid]) for pid in e_plus)
            ):
                for dst_rots in itertools.product(
                    *(_cyclic_orders(dst_darts[zid]) for zid in e_minus)
                ):
                    rotation = dict(saddle_rot)
                    for pid, rot in zip(e_plus, src_rots):
                        rotation[pid] = tuple(rot)
                    for zid, rot in zip(e_minus, dst_rots):
                        rotation[zid] = tuple(rot)
                    cand = FoliationGraph(points, edges, rotation)
                    if cand.validate():
                        continue
                    seen.setdefault(cand.canonical_form(), cand)
    return list(seen.values())

