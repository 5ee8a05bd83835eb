"""Validated rewrite moves on separatrix graphs.

Every move returns a :class:`MoveResult` holding the rewritten graph
(marker-normalized and validated) and a :class:`MoveRecord` describing
what happened.  Applicability failures raise :class:`MoveError`.

Conventions used by the re-attachment rules (derived once from the face
orientation of the model, where a face walk keeps its interior on the
right):

* when a source/saddle pair dies, leaves that lose an endpoint re-emanate
  from the source of the surviving stable separatrix, fanned in rotation
  order right after it;
* a surviving separatrix that loses its saddle is re-routed to the sink of
  the face flanking the dead connection on its rotation-successor side;
* negative-sign cases go through time reversal of the positive case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    HYPERBOLIC_SLOTS,
    Dart,
    EndRef,
    Face,
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


def _fresh(existing: set[str], prefix: str) -> str:
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
        return _fresh(set(self.edges), prefix)

    def fresh_point_id(self, prefix: str = "v") -> str:
        return _fresh(set(self.points), prefix)

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


def _insertion(g: FoliationGraph, face: Face, flavor: str) -> tuple[EndRef, Dart]:
    """(end reference, rotation anchor) for attaching a new leaf at a face's
    ``"sink"`` or ``"source"`` corner."""
    (corner,) = face.sink_corners if flavor == "sink" else face.source_corners
    p = g.points[corner.point]
    slot = None if p.kind == ELLIPTIC else "zone"
    return EndRef(corner.point, slot), corner.enter


def _conjugated(g: FoliationGraph, move, **details) -> MoveResult:
    """Run ``move`` on the time reversal of ``g`` and reverse its result back.

    Reversal keeps validity, degrees and marker flags, so the reversal of the
    move's marker-reduced result is marker-reduced already.
    """
    rev = move(g.reverse())
    return MoveResult(
        rev.graph.reverse(),
        MoveRecord(rev.record.kind, {**rev.record.details, "conjugated": True, **details}),
    )


def _reattachments(
    g: FoliationGraph,
    anchor: EndRef,
    orphans: Sequence[Dart],
    dying: Sequence[Separatrix],
    through: Separatrix,
    whose: str,
) -> dict[str, bool]:
    """Which dying leaves need a new leaf from ``anchor`` into their far end.

    The ``dying`` leaves die together with ``through``.  A far end in a
    named slot needs a replacement separatrix (``False``); a free far end
    whose point keeps no other germ needs a marker leaf (``True``).  When
    anything, ``orphans`` included, must be re-attached, the anchor has to
    emit freely.
    """
    dead = {leaf.id for leaf in dying} | {through.id}
    fates: dict[str, bool] = {}
    for leaf in dying:
        if leaf.dst.slot not in (None, "zone"):
            fates[leaf.id] = False
        elif all(d[0] in dead for d in g.rotation[leaf.dst.point]):
            fates[leaf.id] = True
    # extra outgoing leaves attach freely at a saddle's zone or a source's end
    if (orphans or fates) and not (anchor.slot == "zone" or g.is_elliptic_source(anchor)):
        raise MoveError(f"re-attachment needed but the {whose} comes from a saddle")
    return fates


# ------------------------------------------------------------- eliminate_pair


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
    """A positive elliptic point feeding a positive saddle along ``gamma``."""

    gamma: Separatrix  # dies with the pair
    s_opp: Separatrix  # the opposite stable separatrix; its source is the anchor
    u_after: Separatrix  # the unstable in the slot after the opposite stable one
    u_before: Separatrix  # the unstable in the slot before it
    orphans: tuple[Dart, ...]  # the cancelled point's other germs, in rotation order

    @property
    def anchor(self) -> EndRef:
        return self.s_opp.src


def _cancellation_site(g: FoliationGraph, elliptic_id: str, saddle_id: str) -> _Site:
    stable_edges = {slot: g.edge_at_slot(saddle_id, slot) for slot in ("s0", "s1")}
    feeding = [s for s, e in stable_edges.items() if e.src.point == elliptic_id]
    if not feeding:
        raise MoveError(f"{elliptic_id} does not feed a stable slot of {saddle_id}")
    if len(feeding) == 2:
        raise MoveError(
            "both stable separatrices return to the cancelled point (same-sign bigon)"
        )
    opp_slot = "s1" if feeding[0] == "s0" else "s0"
    gamma = stable_edges[feeding[0]]
    s_opp = stable_edges[opp_slot]
    if s_opp.src.point == saddle_id:
        raise MoveError("opposite separatrix loops back to the saddle")
    seq = g.rotation[elliptic_id]
    i = seq.index((gamma.id, "src"))
    return _Site(
        gamma,
        s_opp,
        g.edge_at_slot(saddle_id, _slot_after(opp_slot)),
        g.edge_at_slot(saddle_id, _slot_before(opp_slot)),
        tuple(seq[(i + k) % len(seq)] for k in range(1, len(seq))),
    )


def _fan_out(s: _Surgeon, site: _Site, fates: dict[str, bool], details: dict) -> None:
    """Re-attach the orphans and the dying unstables' far ends at the anchor.

    The new germs straddle the surviving dart: the successor-side unstable's
    leaf comes right before it and the predecessor-side one's right after
    it.  The orphans sit between the former and the surviving dart.
    """
    w_ref = site.anchor
    head = s.reattach(site.u_after, fates.get(site.u_after.id), w_ref, details)
    for eid, end in site.orphans:
        s.set_end(eid, end, w_ref)
    tail = s.reattach(site.u_before, fates.get(site.u_before.id), w_ref, details)
    s.splice(w_ref.point, (site.s_opp.id, "src"), head + list(site.orphans), tail)


def eliminate_pair(g: FoliationGraph, elliptic_id: str, saddle_id: str) -> MoveResult:
    """Cancel an elliptic point against a same-sign hyperbolic neighbour.

    The two points must be joined by a separatrix.  Inapplicable when the
    saddle's opposite stable separatrix returns to the cancelled point
    (the same-sign bigon obstruction), when it is a saddle connection while
    other leaves need re-attachment, or when a leaf would close up.
    """
    if _pair_sign(g, elliptic_id, saddle_id) < 0:
        return _conjugated(g, lambda r: eliminate_pair(r, elliptic_id, saddle_id))
    site = _cancellation_site(g, elliptic_id, saddle_id)
    s_opp, w_ref = site.s_opp, site.anchor
    dying = (site.u_after, site.u_before)
    fates = _reattachments(g, w_ref, site.orphans, dying, site.gamma, "surviving separatrix")

    # canonical re-route target: sink of the face flanking the dead connection
    # on its rotation-successor side
    target_face = g.face_at_corner((site.gamma.id, "tgt"))
    kappa_ref, kappa_anchor = _insertion(g, target_face, "sink")
    if kappa_ref.point in (elliptic_id, saddle_id):
        raise MoveError("re-route target dies with the pair")

    s = _Surgeon(g)
    details: dict = {
        "eliminated": [elliptic_id, saddle_id],
        "anchor": w_ref.point,
        "retargeted": {s_opp.id: kappa_ref.point},
        "replacements": {},
        "markers": [],
    }

    # 1. re-route the surviving stable separatrix to the flanking sink
    s.insert_after(kappa_ref.point, kappa_anchor, [(s_opp.id, "tgt")])
    s.remove_dart(saddle_id, (s_opp.id, "tgt"))
    s.set_end(s_opp.id, "dst", kappa_ref)

    # 2. fan the orphaned leaves out of the anchor.  The strands through the
    # cancellation site exit it counterclockwise as [successor-side unstable,
    # cancelled source's own leaves, surviving separatrix, predecessor-side
    # unstable]; the anchor's pre-existing germs stay between the two
    # unstables, so the blocks straddle the surviving dart rather than form
    # one run.
    _fan_out(s, site, fates, details)

    # 3. bury the dead
    for u in dying:
        if u.id in s.edges:
            s.delete_edge(u.id)
    s.delete_edge(site.gamma.id)
    s.delete_point(elliptic_id)
    s.delete_point(saddle_id)
    return s.finish("eliminate_pair", details)


# ----------------------------------------------------------------- create_pair


def _reversed_face_index(g: FoliationGraph, g_rev: FoliationGraph, index: int) -> int:
    """Faces of the reversed graph are the theta-images of the original ones."""
    target = {FoliationGraph.theta(d) for d in g.faces()[index].darts}
    for f in g_rev.faces():
        if set(f.darts) == target:
            return f.index
    raise GraphError("face correspondence under reversal failed")


def create_pair(g: FoliationGraph, face_index: int, sign: int = 1) -> MoveResult:
    """Plant a cancelling elliptic/hyperbolic pair inside a face.

    The new saddle is fed by the face's source corner (for a positive pair)
    and drains to the face's sink; inverse of :func:`eliminate_pair`.
    """
    g.require_valid()
    if sign < 0:
        return _conjugated(
            g, lambda r: create_pair(r, _reversed_face_index(g, r, face_index), 1), sign=-1
        )
    try:
        face = g.faces()[face_index]
    except IndexError:
        raise MoveError(f"no face with index {face_index}") from None

    s = _Surgeon(g)
    eps = s.fresh_point_id()
    chi = s.fresh_point_id("w" if eps[0] == "v" else "v")
    s.points[eps] = SingularPoint(eps, ELLIPTIC, 1)
    s.points[chi] = SingularPoint(chi, HYPERBOLIC, 1)
    s.rotation[eps] = []
    s.rotation[chi] = []

    src_ref, src_anchor = _insertion(g, face, "source")
    snk_ref, snk_anchor = _insertion(g, face, "sink")

    o_id = s.fresh_edge_id("o")
    s.edges[o_id] = Separatrix(o_id, src_ref, EndRef(chi, "s0"))
    gamma_id = s.fresh_edge_id("g")
    s.edges[gamma_id] = Separatrix(gamma_id, EndRef(eps, None), EndRef(chi, "s1"))
    n0_id = s.fresh_edge_id("n")
    s.edges[n0_id] = Separatrix(n0_id, EndRef(chi, "u0"), snk_ref)
    n1_id = s.fresh_edge_id("n")
    s.edges[n1_id] = Separatrix(n1_id, EndRef(chi, "u1"), snk_ref)

    s.rotation[chi] = [(o_id, "tgt"), (n0_id, "src"), (gamma_id, "tgt"), (n1_id, "src")]
    s.rotation[eps] = [(gamma_id, "src")]
    s.insert_after(src_ref.point, src_anchor, [(o_id, "src")])
    # interior-on-the-right: the u1 leaf lands closer to the sink corner's enter germ
    s.insert_after(snk_ref.point, snk_anchor, [(n1_id, "tgt"), (n0_id, "tgt")])
    return s.finish(
        "create_pair",
        {"face": face_index, "created": [eps, chi], "sign": sign},
    )


# ------------------------------------------------------------- embryo moves


def _embryo_parts(g: FoliationGraph, bid: str):
    b = g.points[bid]
    anchor_slot = "in" if b.sign > 0 else "out"
    anchor_edge = g.edge_at_slot(bid, anchor_slot)
    b0e = g.edge_at_slot(bid, "b0")
    b1e = g.edge_at_slot(bid, "b1")
    seq = g.rotation[bid]
    zone_darts = [d for d in seq if g.dart_slot(d) == "zone"]
    return b, anchor_edge, b0e, b1e, zone_darts


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
    _, e_in, b0e, b1e, zone_darts = _embryo_parts(g, embryo_id)
    s = _Surgeon(g)
    eps = s.fresh_point_id()
    s.points[eps] = SingularPoint(eps, ELLIPTIC, 1)
    s.points[embryo_id] = SingularPoint(embryo_id, HYPERBOLIC, 1)

    s.set_end(e_in.id, "dst", EndRef(embryo_id, "s0"))
    s.set_end(b0e.id, "src", EndRef(embryo_id, "u0"))
    s.set_end(b1e.id, "src", EndRef(embryo_id, "u1"))
    gamma_id = s.fresh_edge_id("g")
    s.edges[gamma_id] = Separatrix(gamma_id, EndRef(eps, None), EndRef(embryo_id, "s1"))
    for d in zone_darts:
        s.set_end(d[0], d[1], EndRef(eps, None))

    s.rotation[embryo_id] = [
        ((e_in.id, "tgt") if e_in.dst.point == embryo_id else (e_in.id, "src")),
        ((b0e.id, "src")),
        (gamma_id, "tgt"),
        ((b1e.id, "src")),
    ]
    s.rotation[eps] = [(gamma_id, "src")] + zone_darts
    return s.finish(
        "resolve_embryo",
        {"embryo": embryo_id, "saddle": embryo_id, "new_elliptic": eps},
    )


def eliminate_embryo(g: FoliationGraph, embryo_id: str) -> MoveResult:
    """Let an embryo die: its separatrices become ordinary through-leaves."""
    p = g.points.get(embryo_id)
    if p is None or p.kind != EMBRYO:
        raise MoveError(f"{embryo_id} is not an embryo")
    if p.sign < 0:
        return _conjugated(g, lambda r: eliminate_embryo(r, embryo_id))
    _, e_in, b0e, b1e, zone_darts = _embryo_parts(g, embryo_id)
    for e in (e_in, b0e, b1e):
        if e.src.point == embryo_id and e.dst.point == embryo_id:
            raise MoveError("a separatrix would close into a leaf")

    w_ref = e_in.src
    # the face at the first parabolic corner supplies the drain for strays
    par_face = g.face_at_corner((b0e.id, "src"))
    kappa_ref, kappa_anchor = _insertion(g, par_face, "sink")
    if kappa_ref.point == embryo_id:
        raise MoveError("parabolic drain dies with the embryo")

    fates = _reattachments(g, w_ref, zone_darts, (b0e, b1e), e_in, "inbound leaf")
    w_others = [d for d in g.rotation[w_ref.point] if d[0] != e_in.id]
    # the source is stranded only when nothing gets re-attached to it
    stranded = not zone_darts and not fates and not w_others
    if stranded and g.points[w_ref.point].kind != ELLIPTIC:
        raise MoveError("stranded non-elliptic source")

    s = _Surgeon(g)
    details: dict = {
        "eliminated": [embryo_id],
        "anchor": w_ref.point,
        "replacements": {},
        "markers": [],
    }
    fan = s.reattach(b0e, fates.get(b0e.id), w_ref, details)
    for d in zone_darts:
        s.set_end(d[0], d[1], w_ref)
    fan += zone_darts + s.reattach(b1e, fates.get(b1e.id), w_ref, details)
    if fan:
        s.insert_after(w_ref.point, (e_in.id, "src"), fan)
    if stranded:
        # keep the source on the map with a marker into the parabolic drain;
        # no fan means the drain's corner is still intact here
        mid = s.fresh_edge_id("m")
        s.edges[mid] = Separatrix(
            mid, EndRef(w_ref.point, None), kappa_ref, marker=True
        )
        s.insert_after(kappa_ref.point, kappa_anchor, [(mid, "tgt")])
        s.insert_after(w_ref.point, (e_in.id, "src"), [(mid, "src")])
        details["markers"].append(mid)
    for e in (b0e, b1e):
        if e.id in s.edges:
            s.delete_edge(e.id)
    s.delete_edge(e_in.id)
    s.delete_point(embryo_id)
    return s.finish("eliminate_embryo", details)


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
    face_bend = g.face_of_dart((edge_id, "tgt" if side == "left" else "src"))
    face_feed = g.face_of_dart((edge_id, "src" if side == "left" else "tgt"))
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
