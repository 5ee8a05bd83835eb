"""Validated rewrite moves on separatrix graphs.

Every move returns a :class:`MoveResult` holding the rewritten graph
(marker-normalized and validated) and a :class:`MoveRecord` describing
what happened.  Applicability failures raise :class:`MoveError`.

Conventions used by the re-attachment rules (derived once from the face
orientation of the model, where a face walk keeps its interior on the
right):

* when a source/saddle pair dies, leaves that lose an endpoint re-emanate
  from the source of the surviving stable separatrix, fanned out on both
  sides of it;
* a surviving separatrix that loses its saddle is re-routed to the sink of
  the face that leaves the saddle along the unstable slot before the
  survivor's, which flanks the dead connection on its rotation-successor
  side;
* an embryo's death is the cancellation of the pair it expands into, read
  on the sphere where it has not expanded: one surgery serves both;
* a birth of either sign is planted directly in its face: the negative
  pair is the mirror of the positive one (:func:`create_pair`); the other
  negative-sign moves go through time reversal of the positive case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Container, Sequence

from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    HYPERBOLIC_SLOTS,
    Dart,
    EndRef,
    FoliationGraph,
    GraphError,
    Separatrix,
    SingularPoint,
)


class MoveError(GraphError):
    """The requested move is not applicable at the given site."""


@dataclass(frozen=True)
class MoveRecord:
    kind: str
    details: dict


@dataclass(frozen=True)
class MoveResult:
    graph: FoliationGraph
    record: MoveRecord


def _fresh(existing: Container[str], prefix: str) -> str:
    n = 0
    while f"{prefix}{n}" in existing:
        n += 1
    return f"{prefix}{n}"


class _Surgeon:
    """Mutable scratch copy of a graph for performing one move."""

    def __init__(self, g: FoliationGraph) -> None:
        self.points: dict[str, SingularPoint] = dict(g.points)
        self.edges: dict[str, Separatrix] = dict(g.edges)
        self.rotation: dict[str, list[Dart]] = {
            pid: list(seq) for pid, seq in g.rotation.items()
        }

    def fresh_edge_id(self, prefix: str = "r") -> str:
        return _fresh(self.edges, prefix)

    def fresh_point_id(self, prefix: str = "v") -> str:
        return _fresh(self.points, prefix)

    def delete_edge(self, eid: str) -> None:
        del self.edges[eid]
        for seq in self.rotation.values():
            while (eid, "src") in seq:
                seq.remove((eid, "src"))
            while (eid, "tgt") in seq:
                seq.remove((eid, "tgt"))

    def delete_point(self, pid: str) -> None:
        del self.points[pid]
        del self.rotation[pid]

    def insert_after(self, pid: str, ref: Dart, new: Sequence[Dart]) -> None:
        self.splice(pid, ref, [], new)

    def splice(self, pid: str, ref: Dart, before: Sequence[Dart], after: Sequence[Dart]) -> None:
        """Put ``before`` just before ``ref`` at ``pid`` and ``after`` just after it."""
        seq = self.rotation[pid]
        i = seq.index(ref)
        self.rotation[pid] = seq[:i] + list(before) + [ref] + list(after) + seq[i + 1 :]

    def replace_dart(self, pid: str, old: Dart, new: Dart) -> None:
        seq = self.rotation[pid]
        seq[seq.index(old)] = new

    def remove_dart(self, pid: str, dart: Dart) -> None:
        self.rotation[pid].remove(dart)

    def set_end(self, eid: str, which: str, ref: EndRef) -> None:
        e = self.edges[eid]
        self.edges[eid] = replace(e, **{which: ref})

    def reattach(
        self, leaf: Separatrix, marker: bool | None, source: EndRef, details: dict
    ) -> list[Dart]:
        """Give the far end of a dying leaf a new leaf from ``source``.

        The new leaf is a marker when ``marker`` is true and a replacement
        separatrix when it is false; ``None`` adds nothing.  Returns the new
        leaf's source dart, if any, for the caller to fan out at ``source``.
        """
        if marker is None:
            return []
        rid = self.fresh_edge_id("m" if marker else "r")
        self.edges[rid] = Separatrix(rid, source, leaf.dst, marker=marker)
        self.replace_dart(leaf.dst.point, (leaf.id, "tgt"), (rid, "tgt"))
        if marker:
            details["markers"].append(rid)
        else:
            details["replacements"][leaf.id] = rid
        return [(rid, "src")]

    def finish(self, kind: str, details: dict) -> MoveResult:
        # slot-free edges are marker leaves by definition
        free = (None, "zone")
        for eid, e in list(self.edges.items()):
            if not e.marker and e.src.slot in free and e.dst.slot in free:
                self.edges[eid] = replace(e, marker=True)
        g = FoliationGraph(self.points, self.edges, self.rotation)
        problems = g.validate()
        if problems:
            raise MoveError(
                f"{kind}: rewrite would leave an invalid graph ({'; '.join(problems)})"
            )
        return MoveResult(g.marker_reduce(), MoveRecord(kind, details))


def _slot_after(slot: str) -> str:
    i = HYPERBOLIC_SLOTS.index(slot)
    return HYPERBOLIC_SLOTS[(i + 1) % 4]


def _slot_before(slot: str) -> str:
    i = HYPERBOLIC_SLOTS.index(slot)
    return HYPERBOLIC_SLOTS[(i - 1) % 4]


def _face_of(g: FoliationGraph, dart: Dart) -> int:
    """The index of the face whose walk holds ``dart``."""
    return g.face_table().face[g.dart_table().index[dart]]


def _insertion(g: FoliationGraph, face: int, flavor: str) -> tuple[EndRef, Dart]:
    """(end reference, rotation anchor) for attaching a new leaf at the
    ``"sink"`` or ``"source"`` corner of the face with index ``face``."""
    table = g.face_table()
    enter = (table.sink if flavor == "sink" else table.source)[face]
    darts, _, _, _, point = g.dart_table()
    slot = None if g.points[point[enter]].kind == ELLIPTIC else "zone"
    return EndRef(point[enter], slot), darts[enter]


def _conjugated(g: FoliationGraph, move) -> MoveResult:
    """Run ``move`` on the time reversal of ``g`` and reverse its result back.

    Reversal keeps validity, degrees and marker flags, so the reversal of the
    move's marker-reduced result is marker-reduced already.  Both reversals
    hand on the verdict of a validated graph (:meth:`FoliationGraph.reverse`),
    and the move's result carries the verdict of its own check through
    marker reduction, so neither reversal is checked again; each reads its
    own rotation system when its dart table is first asked for.
    """
    rev = move(g.reverse())
    return MoveResult(
        rev.graph.reverse(),
        MoveRecord(rev.record.kind, {**rev.record.details, "conjugated": True}),
    )


# ------------------------------------------------------------- cancellation


def _pair_sign(g: FoliationGraph, elliptic_id: str, saddle_id: str) -> int:
    """The common sign of an elliptic point and a hyperbolic point about to cancel."""
    e_pt = g.points.get(elliptic_id)
    h_pt = g.points.get(saddle_id)
    if e_pt is None or h_pt is None:
        raise MoveError("unknown point id")
    if e_pt.kind != ELLIPTIC or h_pt.kind != HYPERBOLIC:
        raise MoveError("eliminate_pair needs an elliptic and a hyperbolic point")
    if e_pt.sign != h_pt.sign:
        raise MoveError("pair must have matching signs")
    return e_pt.sign


@dataclass(frozen=True)
class _Site:
    """A positive saddle-type point about to die, and the leaves it touches.

    For a pair, a positive elliptic point feeds the saddle along ``gamma``.
    An embryo is read as the pair it expands into (:func:`resolve_embryo`):
    the inbound separatrix survives, ``b0`` and ``b1`` are the unstables
    after and before it, the zone darts are the orphans, and no ``gamma``
    dies.
    """

    gamma: Separatrix | None  # dies with a pair
    survivor: Separatrix  # the stable separatrix that lives on; its source is the anchor
    u_after: Separatrix  # the unstable in the slot after the survivor
    u_before: Separatrix  # the unstable in the slot before it
    orphans: tuple[Dart, ...]  # the cancelled source's other germs, in rotation order

    @property
    def anchor(self) -> EndRef:
        return self.survivor.src


def _pair_site(g: FoliationGraph, elliptic_id: str, saddle_id: str) -> _Site:
    stable_edges = {slot: g.edge_at_slot(saddle_id, slot) for slot in ("s0", "s1")}
    feeding = [s for s, e in stable_edges.items() if e.src.point == elliptic_id]
    if not feeding:
        raise MoveError(f"{elliptic_id} does not feed a stable slot of {saddle_id}")
    opp_slot = "s1" if feeding[0] == "s0" else "s0"
    gamma = stable_edges[feeding[0]]
    seq = g.rotation[elliptic_id]
    i = seq.index((gamma.id, "src"))
    return _Site(
        gamma,
        stable_edges[opp_slot],
        g.edge_at_slot(saddle_id, _slot_after(opp_slot)),
        g.edge_at_slot(saddle_id, _slot_before(opp_slot)),
        tuple(seq[(i + k) % len(seq)] for k in range(1, len(seq))),
    )


def _embryo_site(g: FoliationGraph, embryo_id: str) -> _Site:
    e_in = g.edge_at_slot(embryo_id, "in")
    # the zone darts in rotation order from the in slot, wherever the tuple starts
    seq = tuple(g.rotation[embryo_id])
    i = seq.index((e_in.id, "tgt"))
    return _Site(
        None,
        e_in,
        g.edge_at_slot(embryo_id, "b0"),
        g.edge_at_slot(embryo_id, "b1"),
        tuple(d for d in seq[i:] + seq[:i] if g.dart_slot(d) == "zone"),
    )


def _reattachments(g: FoliationGraph, site: _Site) -> dict[str, bool]:
    """Which dying unstables need a new leaf from the anchor into their far end.

    A far end in a named slot needs a replacement separatrix (``False``); a
    free far end whose point keeps no other germ needs a marker leaf
    (``True``).  A free far end is neither the saddle nor the cancelled
    source, so the dying connection is not among its germs.  When anything,
    orphans included, must be re-attached, the anchor has to emit freely.
    """
    dying = (site.u_after, site.u_before)
    dead = {leaf.id for leaf in dying}
    fates: dict[str, bool] = {}
    for leaf in dying:
        if leaf.dst.slot not in (None, "zone"):
            fates[leaf.id] = False
        elif all(d[0] in dead for d in g.rotation[leaf.dst.point]):
            fates[leaf.id] = True
    # extra outgoing leaves attach freely at a saddle's zone or a source's end
    anchor = site.anchor
    if (site.orphans or fates) and not (anchor.slot == "zone" or g.is_elliptic_source(anchor)):
        raise MoveError("re-attachment needed but the surviving separatrix comes from a saddle")
    return fates


def _cancel(g: FoliationGraph, site: _Site) -> MoveResult:
    """Cancel a positive pair, or let a positive embryo die, at ``site``.

    Inapplicable when the surviving separatrix comes from the cancelled
    source too (the same-sign bigon obstruction), or from a saddle while
    other leaves need re-attachment (:func:`_reattachments`).  One that
    loops back to the dying saddle leaves it through a dying unstable, whose
    named far end needs a replacement, so it is refused there too.
    """
    survivor, saddle_id = site.survivor, site.survivor.dst.point
    if (survivor.id, "src") in site.orphans:
        raise MoveError(
            "both stable separatrices return to the cancelled point (same-sign bigon)"
        )
    fates = _reattachments(g, site)

    # canonical re-route target: sink of the face that leaves the saddle
    # along the predecessor-side unstable, which for a pair flanks the dead
    # connection on its rotation-successor side.  Only negative points have
    # sink corners, and the dying points are positive, so the target
    # outlives them
    kappa_ref, kappa_anchor = _insertion(g, _face_of(g, (site.u_before.id, "src")), "sink")

    s = _Surgeon(g)
    w_ref = site.anchor
    details: dict = {"anchor": w_ref.point, "replacements": {}, "markers": []}
    if site.gamma is None:
        kind, dead = "eliminate_embryo", [saddle_id]
    else:
        kind, dead = "eliminate_pair", [site.gamma.src.point, saddle_id]
        details["retargeted"] = {survivor.id: kappa_ref.point}
    details["eliminated"] = dead

    # 1. re-route the surviving stable separatrix to the target sink
    s.insert_after(kappa_ref.point, kappa_anchor, [(survivor.id, "tgt")])
    s.remove_dart(saddle_id, (survivor.id, "tgt"))
    s.set_end(survivor.id, "dst", kappa_ref)

    # 2. fan the orphaned leaves out of the anchor.  The strands through the
    # cancellation site exit it counterclockwise as [successor-side unstable,
    # cancelled source's own leaves, surviving separatrix, predecessor-side
    # unstable]; the anchor's pre-existing germs stay between the two
    # unstables, so the blocks straddle the surviving dart rather than form
    # one run.
    head = s.reattach(site.u_after, fates.get(site.u_after.id), w_ref, details)
    for eid, end in site.orphans:
        s.set_end(eid, end, w_ref)
    tail = s.reattach(site.u_before, fates.get(site.u_before.id), w_ref, details)
    s.splice(w_ref.point, (survivor.id, "src"), head + list(site.orphans), tail)

    # 3. bury the dead
    for leaf in (site.u_after, site.u_before, site.gamma):
        if leaf is not None:
            s.delete_edge(leaf.id)
    for pid in dead:
        s.delete_point(pid)
    return s.finish(kind, details)


def eliminate_pair(g: FoliationGraph, elliptic_id: str, saddle_id: str) -> MoveResult:
    """Cancel an elliptic point against a same-sign hyperbolic neighbour.

    The two points must be joined by a separatrix; the move is inapplicable
    where :func:`_cancel` is.
    """
    if _pair_sign(g, elliptic_id, saddle_id) < 0:
        return _conjugated(g, lambda r: eliminate_pair(r, elliptic_id, saddle_id))
    return _cancel(g, _pair_site(g, elliptic_id, saddle_id))


# ----------------------------------------------------------------- create_pair


def create_pair(g: FoliationGraph, face_index: int, sign: int = 1) -> MoveResult:
    """Plant a cancelling elliptic/hyperbolic pair inside a face.

    A positive saddle ``chi`` is fed by the face's source corner along ``o``
    and by the new source ``eps`` along ``gamma``, and drains to the face's
    sink along ``n0`` and ``n1``.  The new elliptic point's one separatrix
    touches only the new saddle, so this inverts :func:`eliminate_pair`
    only where the eliminated elliptic point fed nothing but its saddle.
    ``face_index`` counts from 0 in :meth:`FoliationGraph.faces` order and
    ``sign`` is +1 or -1; anything else raises :class:`MoveError`.

    A negative pair is the conjugate of a positive one.  Working "reverse
    the sphere, plant a positive pair in the matching face, reverse back"
    out by hand gives the mirrored pair, which is planted in place: the
    saddle drains along ``o`` to the sink corner and along ``gamma`` into
    the new sink ``eps``, and the source corner feeds it along ``n0`` and
    ``n1``.  Every new dart is turned around, and the record says
    ``conjugated``.

    Call a graph *normal* when, at every hyperbolic point, the first stable
    dart in its rotation tuple sits in slot ``s0``.  On a normal graph two
    reversals are the identity: signs flip twice, ends swap twice, theta is
    an involution, and the slot renaming returns each label.  Every output
    of :meth:`FoliationGraph.reverse` is normal, and births keep a graph
    normal, since ``chi`` reads ``s0`` first for both signs.  So on a normal
    graph the planted mirror is, byte for byte, what the two reversals
    around the positive move give.  On any other graph those reversals
    would also swap the slot labels of saddles the birth never touched; the
    planted mirror keeps every old edge as it was, as a positive birth does.
    """
    if sign not in (1, -1):
        raise MoveError(f"pair sign must be +1 or -1, got {sign}")
    g.require_valid()
    if not 0 <= face_index < len(g.face_table().orbits):
        raise MoveError(f"no face with index {face_index}")
    s = _Surgeon(g)
    eps = s.fresh_point_id()
    chi = s.fresh_point_id("w" if eps[0] == "v" else "v")
    s.points[eps] = SingularPoint(eps, ELLIPTIC, sign)
    s.points[chi] = SingularPoint(chi, HYPERBOLIC, sign)
    src_ref, src_anchor = _insertion(g, face_index, "source")
    snk_ref, snk_anchor = _insertion(g, face_index, "sink")
    e, (s0, u0, s1, u1) = EndRef(eps, None), [EndRef(chi, slot) for slot in HYPERBOLIC_SLOTS]
    # the (src, dst) of o, gamma, n0 and n1; where o and where n0, n1 meet
    # the face; the end of o and of gamma at chi (a), and of n0 and n1 (b)
    if sign > 0:
        ends = ((src_ref, s0), (e, s1), (u0, snk_ref), (u1, snk_ref))
        o_at, n_at, a, b = (src_ref.point, src_anchor), (snk_ref.point, snk_anchor), "tgt", "src"
    else:
        ends = ((u1, snk_ref), (u0, e), (src_ref, s0), (src_ref, s1))
        o_at, n_at, a, b = (snk_ref.point, snk_anchor), (src_ref.point, src_anchor), "src", "tgt"
    ids = []
    for prefix, (src, dst) in zip("ognn", ends):
        ids.append(s.fresh_edge_id(prefix))
        s.edges[ids[-1]] = Separatrix(ids[-1], src, dst)
    o_id, gamma_id, n0_id, n1_id = ids
    s.rotation[eps] = [(gamma_id, b)]
    s.rotation[chi] = [(o_id, a), (n0_id, b), (gamma_id, a), (n1_id, b)]
    s.insert_after(*o_at, [(o_id, b)])
    # interior-on-the-right: the u1 leaf (the s1 leaf when negative) sits
    # closer to the corner's enter germ
    s.insert_after(*n_at, [(n1_id, a), (n0_id, a)])
    details = {"face": face_index, "created": [eps, chi], "sign": sign}
    return s.finish("create_pair", details if sign > 0 else {**details, "conjugated": True})


# ------------------------------------------------------------- embryo moves


def resolve_embryo(g: FoliationGraph, embryo_id: str) -> MoveResult:
    """Unfold an embryo into an elliptic/hyperbolic pair of its sign.

    The parabolic half-plane condenses to a fresh elliptic point feeding
    (or fed by) the saddle that inherits the embryo's id; the zone leaves
    re-emanate from the fresh point.
    """
    p = g.points.get(embryo_id)
    if p is None or p.kind != EMBRYO:
        raise MoveError(f"{embryo_id} is not an embryo")
    if p.sign < 0:
        return _conjugated(g, lambda r: resolve_embryo(r, embryo_id))
    site = _embryo_site(g, embryo_id)
    e_in, b0e, b1e = site.survivor, site.u_after, site.u_before
    s = _Surgeon(g)
    eps = s.fresh_point_id()
    s.points[eps] = SingularPoint(eps, ELLIPTIC, 1)
    s.points[embryo_id] = SingularPoint(embryo_id, HYPERBOLIC, 1)

    s.set_end(e_in.id, "dst", EndRef(embryo_id, "s0"))
    s.set_end(b0e.id, "src", EndRef(embryo_id, "u0"))
    s.set_end(b1e.id, "src", EndRef(embryo_id, "u1"))
    gamma_id = s.fresh_edge_id("g")
    s.edges[gamma_id] = Separatrix(gamma_id, EndRef(eps, None), EndRef(embryo_id, "s1"))
    for d in site.orphans:
        s.set_end(d[0], d[1], EndRef(eps, None))

    s.rotation[embryo_id] = [
        (e_in.id, "tgt"),
        (b0e.id, "src"),
        (gamma_id, "tgt"),
        (b1e.id, "src"),
    ]
    s.rotation[eps] = [(gamma_id, "src"), *site.orphans]
    return s.finish(
        "resolve_embryo",
        {"embryo": embryo_id, "saddle": embryo_id, "new_elliptic": eps},
    )


def eliminate_embryo(g: FoliationGraph, embryo_id: str) -> MoveResult:
    """Let an embryo die: the cancellation of the pair it expands into.

    The embryo is the birth-death moment of an elliptic/hyperbolic pair, so
    its death is :func:`eliminate_pair` on :func:`resolve_embryo`'s result,
    read on the sphere where it has not expanded (:class:`_Site`): the
    inbound separatrix is re-routed to the sink of the face that leaves the
    embryo along ``b1``, and the zone leaves and the far ends of ``b0`` and
    ``b1`` that need one re-attach at its source.  Only the surviving sphere
    is validated.
    """
    p = g.points.get(embryo_id)
    if p is None or p.kind != EMBRYO:
        raise MoveError(f"{embryo_id} is not an embryo")
    if p.sign < 0:
        return _conjugated(g, lambda r: eliminate_embryo(r, embryo_id))
    return _cancel(g, _embryo_site(g, embryo_id))


# -------------------------------------------------------- resolve connections


def resolve_connection(g: FoliationGraph, edge_id: str, side: str = "right") -> MoveResult:
    """Break a saddle-saddle connection by a small push to one side.

    ``side`` is relative to the connection's direction: ``"right"`` bends the
    upstream leaf into the face containing the connection's source-end dart,
    ``"left"`` into the face containing its target-end dart.  The bent leaf
    drains to that face's sink, while the orphaned stable slot is re-fed from
    the source of the face on the *other* side (its backward trace slides
    past the upstream saddle on the opposite flank).  Both anchors must be
    elliptic, otherwise the push would forge a new connection.
    """
    if edge_id not in g.edges:
        raise MoveError(f"unknown edge {edge_id}")
    if not g.is_homoclinic(edge_id):
        raise MoveError(f"edge {edge_id} is not a saddle connection")
    if side not in ("left", "right"):
        raise MoveError("side must be 'left' or 'right'")
    e = g.edges[edge_id]
    if e.dst.slot in (None, "zone"):
        raise MoveError("connection is already generic at its target")
    face_bend = _face_of(g, (edge_id, "tgt" if side == "left" else "src"))
    face_feed = _face_of(g, (edge_id, "src" if side == "left" else "tgt"))
    src_ref, src_anchor = _insertion(g, face_feed, "source")
    snk_ref, snk_anchor = _insertion(g, face_bend, "sink")
    if g.points[src_ref.point].kind != ELLIPTIC:
        raise MoveError("replacement separatrix would emanate from a saddle zone")
    if g.points[snk_ref.point].kind != ELLIPTIC:
        raise MoveError("re-routed leaf would land in a saddle zone")
    if src_ref.point == e.src.point or snk_ref.point == e.dst.point:
        raise MoveError("push would not detach the connection")

    s = _Surgeon(g)
    rid = s.fresh_edge_id()
    s.edges[rid] = Separatrix(rid, src_ref, e.dst)
    s.replace_dart(e.dst.point, (edge_id, "tgt"), (rid, "tgt"))
    s.insert_after(src_ref.point, src_anchor, [(rid, "src")])
    s.set_end(edge_id, "dst", snk_ref)
    s.insert_after(snk_ref.point, snk_anchor, [(edge_id, "tgt")])
    return s.finish(
        "resolve_connection",
        {"edge": edge_id, "side": side, "replacement": rid},
    )
