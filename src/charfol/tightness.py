"""Deciding tightness of a foliated sphere.

Two independent routes are provided:

* :func:`decide_tightness` — constructive: recursively collapses allowable
  bottom events (joins, splits, embryo deaths) to synthesize a simple taming
  order, verifying the result on the original graph; failures produce an
  overtwistedness certificate (surplus mismatch or same-sign polygon).
* :func:`oracle_tightness` — brute force: tries every strict ordering of the
  saddle values and keeps any that tames simply.

They share only the assignment checkers, never the search strategy, so they
can cross-check each other on enumerated universes
(:func:`enumerate_foliations`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .invariants import (
    MAX_POLYGON_FACES,
    BoundaryCircle,
    Polygon,
    Region,
    elliptic_feeders,
    find_same_sign_polygon,
    point_surplus,
)
from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    EndRef,
    FoliationGraph,
    GraphError,
    Separatrix,
    SingularPoint,
    UnionFind,
)
from .moves import (
    MoveError,
    _fresh,
    eliminate_embryo,
    eliminate_pair,
    resolve_connection,
    resolve_embryo,
)
from .taming import normalized_assignment, simplicity_check


class DecisionError(GraphError):
    """The graph is outside the decision procedure's domain."""


class InternalCheckError(DecisionError):
    """A cross-check between independent routes failed: a bug, not an input."""


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class TightnessCertificate:
    verdict: str  # "tight" | "overtwisted"
    reason: str
    saddle_order: tuple[str, ...] | None = None
    assignment: dict | None = None
    polygon: Polygon | None = None
    branches: tuple["TightnessCertificate", ...] = ()
    resolved_connection: str | None = None

    @property
    def tight(self) -> bool:
        return self.verdict == "tight"

    def to_data(self) -> dict:
        out: dict = {"verdict": self.verdict, "reason": self.reason}
        if self.saddle_order is not None:
            out["saddle_order"] = list(self.saddle_order)
        if self.assignment is not None:
            out["assignment"] = {k: str(v) for k, v in sorted(self.assignment.items())}
        if self.polygon is not None:
            out["polygon"] = self.polygon.describe()
        if self.resolved_connection is not None:
            out["resolved_connection"] = self.resolved_connection
        if self.branches:
            out["branches"] = [b.to_data() for b in self.branches]
        return out


# ------------------------------------------------------------ bottom collapse


@dataclass(frozen=True)
class AllowabilityVerdict:
    """Which of the four bottom-event patterns a point matches, if any."""

    point: str
    # "PosHypDistinctSources", "NegHypSameSource", "PosEmbryoEllipticSource",
    # "NegEmbryoAllFromOneElliptic" or "NotAllowable"
    case: str
    witnesses: tuple[str, ...]  # feeding positive elliptic points

    @property
    def allowable(self) -> bool:
        return self.case != "NotAllowable"


def classify_allowable(g: FoliationGraph, pid: str) -> AllowabilityVerdict:
    """Match a saddle-type point against the bottom-event patterns.

    A point can open a simple taming order only if its feed comes straight
    from positive elliptic points in the right multiplicity: a positive
    saddle from two distinct ones, a negative saddle twice from one, a
    positive embryo once, a negative embryo entirely from one.
    """
    p = g.points.get(pid)
    if p is None:
        raise DecisionError(f"unknown point {pid}")
    if p.kind == ELLIPTIC:
        raise DecisionError("elliptic points carry no allowability case")
    nope = AllowabilityVerdict(pid, "NotAllowable", ())
    if p.kind == HYPERBOLIC:
        feeders = elliptic_feeders(g, pid)
        if feeders is None:
            return nope
        if p.sign > 0 and feeders[0] != feeders[1]:
            return AllowabilityVerdict(pid, "PosHypDistinctSources", tuple(sorted(feeders)))
        if p.sign < 0 and feeders[0] == feeders[1]:
            return AllowabilityVerdict(pid, "NegHypSameSource", feeders[:1])
        return nope
    if p.kind == EMBRYO:
        if p.sign > 0:
            src = g.edge_at_slot(pid, "in").src
            if g.is_elliptic_source(src):
                return AllowabilityVerdict(pid, "PosEmbryoEllipticSource", (src.point,))
            return nope
        refs = [e.src for e in g.edges.values() if e.dst.point == pid]
        feeds = {r.point for r in refs}
        if len(feeds) == 1 and refs and all(g.is_elliptic_source(r) for r in refs):
            return AllowabilityVerdict(
                pid, "NegEmbryoAllFromOneElliptic", (refs[0].point,)
            )
        return nope
    return nope


def allowable_candidates(g: FoliationGraph) -> list[AllowabilityVerdict]:
    """All points passing :func:`classify_allowable`, lowest id first."""
    out = []
    for pid in sorted(g.points):
        if g.points[pid].kind in (HYPERBOLIC, EMBRYO):
            v = classify_allowable(g, pid)
            if v.allowable:
                out.append(v)
    return out


def find_allowable(g: FoliationGraph) -> str | None:
    """Lowest-id allowable point, or None."""
    cands = allowable_candidates(g)
    return cands[0].point if cands else None


def split_at_negative_saddle(
    g: FoliationGraph, saddle_id: str, source_id: str
) -> tuple[FoliationGraph, FoliationGraph]:
    """Cut the sphere along the annulus spanned by a splitting saddle.

    ``g`` is valid and (source, saddle) a ``NegHypSameSource`` pair.  Each
    complementary disc is capped with a fresh positive elliptic point that
    emits the cut leaves in the order its boundary circle crosses them.
    Returns the two capped sides, which are valid spheres:

    * Nothing enters a positive elliptic point, and the saddle's stable
      slots hold the two leaves from the source.  So those leaves are the
      only interior edges and form a closed curve: the region is an annulus
      with two boundary circles, one on each side of the curve.
    * No other edge enters the source or the saddle, so every edge between
      the region and its complement is a cut edge.
    * Every corner at the source is a source corner.  Every face at the
      saddle has a leaf from the source as a side, so its source corner is
      the source: the region is valid.  A face walk into the region at the
      saddle turns onto such a leaf, so each run of inside corners holds a
      source corner, and a face, a flow box, has one run.
    * Capping a side turns that run into one cap corner, a source corner,
      and keeps the face's sink corner, so every face of a side is a flow
      box.  A capped side whose cap is a cut vertex would have a face with
      two cap corners, both source corners.  So each circle reaches exactly
      one complement component, the curve keeps the two apart, and as ``g``
      is connected every component is reached.
    * A crossing keeps its sink end and is a marker exactly when that end is
      slot-free, so the slot, marker and rotation rules hold as they did
      on ``g``.  The faces of ``g`` and of the two sides match one to one,
      so the sides' Euler counts add up to V - (E - 2) + F = 4; neither
      exceeds 2 for a connected side, so each is 2.
    """
    region = Region(g, {source_id, saddle_id})
    circle0, circle1 = region.boundary_circles()
    # both regions serve this one cut, so neither goes into the graph's cache
    roots = Region(g, set(g.points) - region.inside).components()
    cap = _fresh(set(g.points), "v")

    def capped(circle: BoundaryCircle) -> FoliationGraph:
        crossings = circle.crossed_edges()
        root = roots[g.edges[crossings[0]].dst.point]
        points = {pid: p for pid, p in g.points.items() if roots.get(pid) == root}
        rotation = {pid: g.rotation[pid] for pid in points}
        points[cap] = SingularPoint(cap, ELLIPTIC, 1)
        rotation[cap] = tuple((eid, "src") for eid in crossings)
        edges: dict[str, Separatrix] = {}
        for eid, e in g.edges.items():
            if e.src.point in points and e.dst.point in points:
                edges[eid] = e
        for eid in crossings:
            e = g.edges[eid]
            marker = e.dst.slot in (None, "zone")
            edges[eid] = Separatrix(eid, EndRef(cap, None), e.dst, marker=marker)
        return FoliationGraph(points, edges, rotation).marker_reduce()

    return capped(circle0), capped(circle1)


def synthesize_taming(g: FoliationGraph) -> tuple[str, ...] | None:
    """Search for a saddle order whose normalized assignment tames simply.

    Recursive bottom-up collapse with backtracking over allowable events.
    A graph that admits no order is remembered, so an isomorphic graph met
    later is pruned at once.  The memo is keyed by canonical form inside
    buckets of a cheap isomorphism invariant (edge count and the multiset
    of point kinds and signs); the canonical form is computed only when a
    graph fails or its bucket already holds a failure, so a search that
    succeeds without backtracking never computes one.  The returned order
    is always re-verified on the input graph by the caller.
    """
    failures: dict[tuple, set[str]] = {}

    def recurse(h: FoliationGraph) -> list[str] | None:
        saddles = [p.id for p in h.points.values() if p.kind == HYPERBOLIC]
        embryos = [p.id for p in h.points.values() if p.kind == EMBRYO]
        if not saddles and not embryos:
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
                parts = split_at_negative_saddle(h, cand.point, cand.witnesses[0])
                sub0 = recurse(parts[0])
                if sub0 is None:
                    continue
                sub1 = recurse(parts[1])
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
    # embryos take part in the Lyapunov constraints even though they carry
    # no join/split event; slot them at the bottom of the order
    embryo_ids = sorted(p.id for p in g.points.values() if p.kind == EMBRYO)
    return tuple(embryo_ids + order)


def verify_taming_order(g: FoliationGraph, order: tuple[str, ...]) -> dict | None:
    """Normalized assignment for the order if it tames simply, else None."""
    try:
        a = normalized_assignment(g, list(order))
    except GraphError:
        return None
    report = simplicity_check(g, a)
    return a if report.taming and report.circle_simple else None


# ------------------------------------------------------------------- decide


def decide_tightness(g: FoliationGraph, _depth: int = 0) -> TightnessCertificate:
    """Decide whether the foliated sphere bounds a tight structure.

    Routes: surplus mismatch -> overtwisted, with a same-sign polygon when
    the graph is small enough to search; saddle connections -> resolve and
    decide both sides (tight only when every perturbation is); otherwise
    synthesize a simple taming order and verify it, or exhibit the
    obstruction.
    """
    g.require_valid()
    if _depth > len(g.edges) + 1:
        raise DecisionError("connection resolution did not terminate")

    connections = g.homoclinic_edges()
    if connections:
        eid = connections[0]
        e = g.edges[eid]
        embryo = next(
            (
                pid
                for pid in (e.src.point, e.dst.point)
                if g.points[pid].kind == EMBRYO
            ),
            None,
        )
        if embryo is not None:
            # a connection through an embryo is removed by perturbing the
            # embryo itself: nearby foliations have it died or expanded
            label = f"perturbations of embryo {embryo} on connection {eid}"
            perturbations = [
                (move, (embryo,), f"embryo {embryo} on connection {eid} admits no {word}")
                for move, word in ((eliminate_embryo, "death"), (resolve_embryo, "expansion"))
            ]
        else:
            label = f"resolutions of connection {eid}"
            perturbations = [
                (
                    resolve_connection,
                    (eid, side),
                    f"connection {eid} cannot be resolved on side {side}",
                )
                for side in ("left", "right")
            ]
        branches = []
        for move, args, failure in perturbations:
            try:
                perturbed = move(g, *args).graph
            except MoveError as ex:
                raise DecisionError(f"{failure}: {ex}") from ex
            branches.append(decide_tightness(perturbed, _depth + 1))
        if all(b.tight for b in branches):
            return TightnessCertificate(
                "tight",
                f"both {label} are tight",
                branches=tuple(branches),
                resolved_connection=eid,
            )
        bad = next(b for b in branches if not b.tight)
        return TightnessCertificate(
            "overtwisted",
            f"one of the {label} is overtwisted: {bad.reason}",
            polygon=bad.polygon,
            branches=tuple(branches),
            resolved_connection=eid,
        )

    surplus = point_surplus(g)
    if surplus != (1, 1):
        # the surplus alone proves it; the polygon is evidence the search
        # can only offer up to its face limit
        poly = find_same_sign_polygon(g) if len(g.faces()) <= MAX_POLYGON_FACES else None
        return TightnessCertificate(
            "overtwisted",
            f"point surplus {surplus} != (1, 1)",
            polygon=poly,
        )

    order = synthesize_taming(g)
    if order is not None:
        assignment = verify_taming_order(g, order)
        if assignment is not None:
            return TightnessCertificate(
                "tight",
                "simple taming order synthesized and verified",
                saddle_order=order,
                assignment=assignment,
            )
    poly = find_same_sign_polygon(g)
    if poly is not None:
        return TightnessCertificate(
            "overtwisted",
            "no simple taming order exists",
            polygon=poly,
        )
    # no human-checkable polygon: fall back to search-relative evidence
    exhaustion = oracle_tightness(g)
    if exhaustion["tight"]:
        raise InternalCheckError(
            "synthesis missed a taming order the exhaustive search found"
        )
    return TightnessCertificate(
        "overtwisted",
        "no simple taming order exists "
        f"(all {exhaustion['orders_tried']} orderings exhausted, no polygon found)",
    )


# -------------------------------------------------------------------- oracle

#: the most singular points :func:`oracle_tightness` accepts
MAX_ORACLE_POINTS = 12


def oracle_tightness(g: FoliationGraph) -> dict:
    """Exhaustive search over strict orderings of saddle and embryo values.

    Independent of the synthesis route: tries every permutation and keeps
    the first whose normalized assignment is Lyapunov, taming and simple.
    Precondition: no saddle connections (resolve first) and at most
    :data:`MAX_ORACLE_POINTS` singular points (the search is factorial).
    """
    g.require_valid()
    if g.homoclinic_edges():
        raise DecisionError("oracle requires a connection-free graph")
    if len(g.points) > MAX_ORACLE_POINTS:
        raise DecisionError(
            f"instance has {len(g.points)} singular points, "
            f"oracle bound is {MAX_ORACLE_POINTS}"
        )
    ids = sorted(
        p.id for p in g.points.values() if p.kind in (HYPERBOLIC, EMBRYO)
    )
    tried = 0
    for perm in itertools.permutations(ids):
        tried += 1
        assignment = verify_taming_order(g, perm)
        if assignment is not None:
            return {
                "tight": True,
                "order": list(perm),
                "assignment": assignment,
                "orders_tried": tried,
            }
    return {"tight": False, "order": None, "assignment": None, "orders_tried": tried}


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


def _cycles(perm: tuple[int, ...] | list[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a permutation of ``range(len(perm))``, each from its
    least element, in increasing order of that element."""
    seen = [False] * len(perm)
    out = []
    for t0 in range(len(perm)):
        if seen[t0]:
            continue
        cyc = []
        t = t0
        while not seen[t]:
            seen[t] = True
            cyc.append(t)
            t = perm[t]
        out.append(tuple(cyc))
    return tuple(out)


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
        from .zoo import trivial

        return [trivial()]
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
                    edges[eid] = Separatrix(
                        eid, EndRef(e_plus[i], None), EndRef(h, slot)
                    )
                    src_darts[e_plus[i]].append((eid, "src"))
                    slot_edge[(h, slot)] = eid
            for i, block in enumerate(dst_blocks):
                for h, slot in block:
                    eid = f"u_{h}_{slot}"
                    edges[eid] = Separatrix(
                        eid, EndRef(h, slot), EndRef(e_minus[i], None)
                    )
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


#: the largest saddle count that :func:`enumerate_signature` builds
MAX_ENUMERATION_SADDLES = 4


def _require_enumerable(saddles: int) -> None:
    if not 0 <= saddles <= MAX_ENUMERATION_SADDLES:
        raise DecisionError(
            f"enumeration bounded to 0..{MAX_ENUMERATION_SADDLES} saddles, got {saddles}"
        )


def enumerate_signature(plus: int, minus: int) -> list[FoliationGraph]:
    """All valid connection-free foliations with the given saddle counts.

    Same universe as :func:`enumerate_reference` but driven by permutations:
    an elliptic point's leaves in rotation order are exactly one cycle of a
    permutation of the slots.  Slot ``t = 2i + k`` is saddle ``i``'s ``s_k``
    on the source side and its ``u_k`` on the sink side.

    Only the source rotations are free.  Every leaf joins a saddle to an
    elliptic point and every saddle corner is a through corner, so a face
    with one source and one sink corner is a quadrilateral (source, saddle,
    sink, saddle), and there is one face per source corner.  The face after
    the source corner from slot ``t`` to slot ``perm[t]`` runs along that
    stable leaf to its saddle, turns counterclockwise to unstable slot
    ``perm[t]`` and runs to a sink; to close it must come back along
    unstable slot ``t ^ 1``, the one just before stable slot ``t``.  So the
    sink rotation is ``sink[perm[t]] = t ^ 1``.  With ``2n`` faces and ``4n`` leaves,
    Euler's count on the sphere reads ``#sources + #sinks = n + 2``; a
    rotation system that passes it may still be disconnected (12 candidates
    at three saddles), hence the union-find.  Classes are listed in the
    order their first representative is found, which does not depend on the
    canonical form.
    """
    total = plus + minus
    if total == 0:
        from .zoo import trivial

        return [trivial()]
    _require_enumerable(total)
    n = total
    signs = [1] * plus + [-1] * minus
    seen_forms: dict = {}
    for perm in itertools.permutations(range(2 * n)):
        sink = [0] * (2 * n)
        for t in range(2 * n):
            sink[perm[t]] = t ^ 1
        s_cycles = _cycles(perm)
        u_cycles = _cycles(sink)
        if len(s_cycles) + len(u_cycles) != n + 2:
            continue
        # connectivity: saddles unioned with their slots' elliptic points
        n_points = n + len(s_cycles) + len(u_cycles)
        sets = UnionFind(range(n_points))
        for offset, cycles in ((n, s_cycles), (n + len(s_cycles), u_cycles)):
            for ci, cyc in enumerate(cycles):
                for t in cyc:
                    sets.union(t >> 1, offset + ci)
        if len({sets.find(x) for x in range(n_points)}) != 1:
            continue
        g = _assemble(signs, s_cycles, u_cycles)
        if g.validate():
            raise DecisionError("enumeration filter accepted an invalid graph")
        seen_forms.setdefault(g.canonical_form(), g)
    return list(seen_forms.values())


def _assemble(
    signs: list[int], s_cycles: tuple, u_cycles: tuple
) -> FoliationGraph:
    n = len(signs)
    slot_names = ("s0", "u0", "s1", "u1")
    points = {}
    edges = {}
    rotation = {}
    for i in range(n):
        hid = f"h{i}"
        points[hid] = SingularPoint(hid, HYPERBOLIC, signs[i])
    for k in range(4 * n):
        eid = f"e{k}"
        hid = f"h{k // 4}"
        slot = slot_names[k % 4]
        if slot.startswith("s"):
            edges[eid] = Separatrix(eid, EndRef("", None), EndRef(hid, slot))
        else:
            edges[eid] = Separatrix(eid, EndRef(hid, slot), EndRef("", None))
    for i in range(n):
        rotation[f"h{i}"] = tuple(
            (f"e{4 * i + j}", "tgt" if j in (0, 2) else "src") for j in range(4)
        )
    for ci, cyc in enumerate(s_cycles):
        pid = f"p{ci}"
        points[pid] = SingularPoint(pid, ELLIPTIC, 1)
        darts = []
        for t in cyc:
            eid = f"e{4 * (t >> 1) + 2 * (t & 1)}"
            edges[eid] = replace(edges[eid], src=EndRef(pid, None))
            darts.append((eid, "src"))
        rotation[pid] = tuple(darts)
    for ci, cyc in enumerate(u_cycles):
        zid = f"z{ci}"
        points[zid] = SingularPoint(zid, ELLIPTIC, -1)
        darts = []
        for t in cyc:
            eid = f"e{4 * (t >> 1) + 2 * (t & 1) + 1}"
            edges[eid] = replace(edges[eid], dst=EndRef(zid, None))
            darts.append((eid, "tgt"))
        rotation[zid] = tuple(darts)
    return FoliationGraph(points, edges, rotation)


def universe(max_saddles: int) -> dict[tuple[int, int], list[FoliationGraph]]:
    """Enumerated universes for every saddle signature up to a total count.

    Raises :class:`DecisionError` before any work unless the count is in
    ``0..MAX_ENUMERATION_SADDLES``.
    """
    _require_enumerable(max_saddles)
    out = {}
    for total in range(0, max_saddles + 1):
        for plus in range(0, total + 1):
            out[(plus, total - plus)] = enumerate_signature(plus, total - plus)
    return out


def enumerate_foliations(
    max_saddles: int,
    allow_embryos: bool = False,
    allow_homoclinics: bool = False,
):
    """Stream the enumerated universe up to a saddle bound.

    The connection-free saddle universe is assembled exhaustively; embryo
    and homoclinic instances cannot be reached by assembly from elliptic
    feeds, so they come from the curated patterns in :mod:`charfol.zoo`
    when the corresponding flag is set.  A bound outside
    ``0..MAX_ENUMERATION_SADDLES`` raises :class:`DecisionError` at the first
    item, before the universe is built.
    """
    from . import zoo

    by_sig = universe_cached(max_saddles)
    for sig in sorted(by_sig):
        for g in by_sig[sig]:
            yield g
    if allow_embryos:
        for name in ("embryo_positive", "embryo_negative"):
            g = zoo.example(name)
            if len(g.saddle_points()) <= max_saddles:
                yield g
    if allow_homoclinics:
        for name in ("tight_saddle_connection", "chained_saddles"):
            g = zoo.example(name)
            if len(g.saddle_points()) <= max_saddles:
                yield g


_UNIVERSE_CACHE: dict[int, dict[tuple[int, int], list[FoliationGraph]]] = {}


def universe_cached(max_saddles: int) -> dict[tuple[int, int], list[FoliationGraph]]:
    if max_saddles not in _UNIVERSE_CACHE:
        _UNIVERSE_CACHE[max_saddles] = universe(max_saddles)
    return _UNIVERSE_CACHE[max_saddles]
