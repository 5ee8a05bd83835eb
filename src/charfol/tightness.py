"""Deciding tightness of a foliated sphere.

Two independent routes are provided:

* :func:`decide_tightness` — constructive: recursively collapses allowable
  bottom events (joins, splits, embryo deaths) to synthesize a simple taming
  order, verifying the result on the original graph; failures produce an
  overtwistedness certificate (surplus mismatch or same-sign polygon).
* :func:`oracle_tightness` — exhaustive: searches the strict orderings of
  the saddle values, as sets of saddles below each one, for the first that
  tames simply.

They share only the assignment checkers, never the search strategy, so they
can cross-check each other on enumerated universes
(:func:`enumerate_foliations`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .invariants import (
    MAX_POLYGON_FACES,
    Polygon,
    Region,
    elliptic_feeders,
    is_morse_smale,
    point_surplus,
    witness_polygon,
)
from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    HYPERBOLIC_SLOTS,
    SADDLE_KINDS,
    DecisionError,
    EndRef,
    FoliationGraph,
    GraphError,
    InternalCheckError,
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
from .taming import normalized_assignment, simplicity_check, stable_circles


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
    # the kinds are exhausted: p is an embryo
    if p.sign > 0:
        src = g.edge_at_slot(pid, "in").src
        if g.is_elliptic_source(src):
            return AllowabilityVerdict(pid, "PosEmbryoEllipticSource", (src.point,))
        return nope
    refs = [e.src for e in g.edges.values() if e.dst.point == pid]
    feeds = {r.point for r in refs}
    if len(feeds) == 1 and refs and all(g.is_elliptic_source(r) for r in refs):
        return AllowabilityVerdict(pid, "NegEmbryoAllFromOneElliptic", (refs[0].point,))
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


def _annulus(g: FoliationGraph, saddle_id: str, source_id: str) -> tuple[Region, dict[str, str]]:
    """The region of a ``NegHypSameSource`` pair, and a root naming the
    complement component of each point outside it.  Both regions go into the
    graph's cache, so a split's side keys and its cut share one component
    search."""
    region = Region.of(g, {source_id, saddle_id})
    return region, Region.of(g, set(g.points) - region.inside).components()


def _side_keys(
    g: FoliationGraph, saddle_id: str, source_id: str
) -> tuple[frozenset[str], frozenset[str]]:
    """The saddle-type ids of each side of :func:`split_at_negative_saddle`,
    side 0 first, read without making the cut.

    Side 0 is capped at the circle that ``boundary_circles`` starts at the
    least cut edge, and each circle reaches one complement component.  A
    side is its component plus a cap, an elliptic point, less the marker
    leaves ``marker_reduce`` deletes, which are edges: so its saddle-type
    points are those of its component.
    """
    region, roots = _annulus(g, saddle_id, source_id)
    first = roots[g.edges[region.cut_edges()[0]].dst.point]
    saddles = frozenset(pid for pid in roots if g.points[pid].kind in SADDLE_KINDS)
    side0 = frozenset(pid for pid in saddles if roots[pid] == first)
    return side0, saddles - side0


def split_at_negative_saddle(
    g: FoliationGraph, saddle_id: str, source_id: str
) -> Iterator[FoliationGraph]:
    """Cut the sphere along the annulus spanned by a splitting saddle.

    ``g`` is valid and (source, saddle) a ``NegHypSameSource`` pair.  Each
    complementary disc is capped with a fresh positive elliptic point that
    emits the cut leaves in the order its boundary circle crosses them.
    Yields the two capped sides, which are valid spheres, in the order of
    the region's boundary circles; a side is capped only when it is asked
    for, so a caller that stops after side 0 never builds side 1:

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
    region, roots = _annulus(g, saddle_id, source_id)
    cap = _fresh(set(g.points), "v")
    for circle in region.boundary_circles():
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
        yield FoliationGraph(points, edges, rotation).marker_reduce()


def synthesize_taming(g: FoliationGraph) -> tuple[str, ...] | None:
    """Search for a saddle order whose normalized assignment tames simply.

    Recursive bottom-up collapse with backtracking over allowable events.
    A node is keyed by the set of ids of its saddle-type points (hyperbolic
    and embryo), and the keys of nodes that admit no order are remembered.
    Every key is looked up before its node is built.  Eliminating a saddle
    ``h``, or letting an embryo ``h`` die, leaves the key minus ``h``, so a
    dead child is skipped before its move is made.  A split's two side keys
    are the saddle-type ids of the two components of the complement of
    (source, saddle), because capping adds only an elliptic point and
    ``marker_reduce`` removes only edges (:func:`_side_keys`).  So a split
    with a dead side is skipped before any circle is traced, and side 1 is
    capped only once side 0 has an order.  The search computes no canonical
    form.  The returned order is always re-verified on the input graph by
    the caller.

    The memo rests on a lemma: within one call, a node is determined up to
    isomorphism by its set of saddle-type ids.

    * Every event is surgery on its saddle's stable manifold: a
      cancellation merges the saddle's two sources across it into one, an
      embryo death merges the embryo into the source that feeds it, and a
      split cuts along the annulus of the saddle and its source and caps
      the far side with a fresh source.  Stable manifolds of distinct
      saddles meet at most in their sources, so events at distinct saddles
      commute up to isomorphism, and the source a cancellation keeps
      changes only an elliptic id.
    * A split keeps the side that holds the remaining saddles and caps the
      other side whole, so nothing done on the capped side, on this path or
      another, shows in the kept one.
    * ``marker_reduce`` leaves no markers, so a built node carries no trace
      of the path that built it.

    So two paths to one key differ only in the order of their surgeries and
    in what they did on capped sides, and reach isomorphic nodes: a key that
    died once dies again.  Skipping a branch that would fail leaves the
    first success of the depth-first search where it was.
    ``tests/test_tightness.py`` checks the lemma, and this search, against
    ``reference_synthesis``, a search whose memo is keyed by canonical form.
    """
    dead: set[frozenset[str]] = set()

    def recurse(h: FoliationGraph, key: frozenset[str]) -> list[str] | None:
        if not key:
            return []
        for cand in allowable_candidates(h):
            if cand.case == "NegHypSameSource":
                source = cand.witnesses[0]
                keys = _side_keys(h, cand.point, source)
                if keys[0] in dead or keys[1] in dead:
                    continue
                sides = split_at_negative_saddle(h, cand.point, source)
                sub0 = recurse(next(sides), keys[0])
                if sub0 is None:
                    continue
                sub1 = recurse(next(sides), keys[1])
                if sub1 is None:
                    continue
                return [cand.point] + sub0 + sub1
            child = key - {cand.point}
            if child in dead:
                continue
            if cand.case == "PosHypDistinctSources":
                # the site passes every guard of eliminate_pair: the pair is
                # positive, the witness feeds one stable slot since the
                # feeders differ, the other feeder is the anchor and an
                # elliptic source, and the re-route sink is a negative point;
                # so a MoveError here is a bug and is not caught
                collapsed = eliminate_pair(h, cand.witnesses[0], cand.point).graph
                head = [cand.point]
            else:
                # an embryo dies as the cancellation of the pair it expands
                # into.  For a positive allowable embryo that pair is a
                # PosHypDistinctSources site, fed by w and the fresh source,
                # so the death passes every guard above.  A negative one is
                # fed from one source, but its out leaf may be a saddle
                # connection (tame reads spheres with connections): in the
                # reversal the anchor is then a saddle, which is refused
                # when the zone holds a leaf or a boundary leaf needs a new one
                try:
                    collapsed = eliminate_embryo(h, cand.point).graph
                except MoveError:
                    continue
                head = []  # embryos join the order at its bottom, below
            sub = recurse(collapsed, child)
            if sub is not None:
                return head + sub
        dead.add(key)
        return None

    order = recurse(g, frozenset(p.id for p in g.saddle_points()))
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


def simple_taming(g: FoliationGraph) -> tuple[tuple[str, ...], dict] | None:
    """A synthesized saddle order and its verified assignment, or None."""
    order = synthesize_taming(g)
    assignment = verify_taming_order(g, order) if order is not None else None
    return (order, assignment) if assignment is not None else None


# ------------------------------------------------------------------- decide


def decide_tightness(g: FoliationGraph, _depth: int = 0) -> TightnessCertificate:
    """Decide whether the foliated sphere bounds a tight structure.

    Routes: surplus mismatch -> overtwisted, with a same-sign polygon when
    :func:`~charfol.invariants.witness_polygon` can look for one (up to the
    subset search's face limit, or on a Morse-Smale sphere); saddle
    connections -> resolve and decide both sides (tight only when every
    perturbation is); otherwise
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
        # the surplus alone proves it; the polygon is evidence, which past
        # the subset search's face limit only a Morse-Smale sphere offers
        poly = (
            witness_polygon(g)
            if len(g.face_table().orbits) <= MAX_POLYGON_FACES or is_morse_smale(g)
            else None
        )
        return TightnessCertificate(
            "overtwisted",
            f"point surplus {surplus} != (1, 1)",
            polygon=poly,
        )

    tamed = simple_taming(g)
    if tamed is not None:
        order, assignment = tamed
        reason = "simple taming order synthesized and verified"
        return TightnessCertificate("tight", reason, saddle_order=order, assignment=assignment)
    poly = witness_polygon(g)
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


def _complete(
    g: FoliationGraph,
    ids: list[str],
    sources: frozenset[str],
    order: list[str],
    dead: set[frozenset[str]],
    below: frozenset[str],
) -> bool:
    """Extend ``order``, whose points are ``below``, to a full order of
    ``ids``; ``dead`` holds the sets already found to have no completion.
    A module-level function, so the search leaves no reference cycle
    through ``g``."""
    if len(order) == len(ids):
        return True
    if below in dead:
        return False
    region = Region.of(g, sources | below)
    for pid in ids:
        if pid in below:
            continue
        p = g.points[pid]
        if p.kind == HYPERBOLIC:
            c0, c1 = stable_circles(region, pid)
            if (c0 != c1) != (p.sign > 0):
                continue
        order.append(pid)
        if _complete(g, ids, sources, order, dead, below | {pid}):
            return True
        order.pop()
    dead.add(below)
    return False


def oracle_tightness(g: FoliationGraph) -> dict:
    """Exhaustive search for a simple taming order of saddle and embryo values.

    Independent of the synthesis route.  On a connection-free graph every
    leaf runs from a positive elliptic point (value 0) or to a negative one
    (value 1), so every strict order is Lyapunov, and the normalized
    assignment puts each saddle alone at its level, so a join level's forest
    check always holds.  An order therefore tames simply exactly when each
    saddle, read by :func:`stable_circles` over the region of the positive
    sources and the points before it, joins if positive and splits if
    negative.  That reading depends only on the *set* below the saddle, so
    the search runs depth first over order prefixes in sorted-id order and
    remembers the sets with no completion (Held and Karp's subset
    recursion): at most ``n * 2**(n - 1)`` one-saddle readings for ``n``
    saddle-type points, where a loop over the permutations makes ``n!``
    full checks.

    Returns the lexicographically first order that passes, with the
    assignment :func:`verify_taming_order` gives it, and ``orders_tried``:
    the order's lexicographic rank plus one, or ``n!`` when none passes, the
    count that loop would have made.  Precondition: no saddle connections
    (resolve first) and at most :data:`MAX_ORACLE_POINTS` singular points.
    """
    g.require_valid()
    if g.homoclinic_edges():
        raise DecisionError("oracle requires a connection-free graph")
    if len(g.points) > MAX_ORACLE_POINTS:
        raise DecisionError(
            f"instance has {len(g.points)} singular points, "
            f"oracle bound is {MAX_ORACLE_POINTS}"
        )
    ids = sorted(p.id for p in g.saddle_points())
    sources = frozenset(
        p.id for p in g.points.values() if p.kind == ELLIPTIC and p.sign > 0
    )
    order: list[str] = []
    if not _complete(g, ids, sources, order, set(), frozenset()):
        return {
            "tight": False,
            "order": None,
            "assignment": None,
            "orders_tried": math.factorial(len(ids)),
        }
    assignment = verify_taming_order(g, tuple(order))
    if assignment is None:
        raise InternalCheckError("the oracle's order fails verify_taming_order")
    rank, rest = 0, list(ids)
    for pid in order:
        rank += rest.index(pid) * math.factorial(len(rest) - 1)
        rest.remove(pid)
    return {
        "tight": True,
        "order": order,
        "assignment": assignment,
        "orders_tried": rank + 1,
    }


# -------------------------------------------------------------- enumeration


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


#: the largest saddle count that :func:`enumerate_signature` builds
MAX_ENUMERATION_SADDLES = 4


def _require_enumerable(saddles: int) -> None:
    if not 0 <= saddles <= MAX_ENUMERATION_SADDLES:
        raise DecisionError(
            f"enumeration bounded to 0..{MAX_ENUMERATION_SADDLES} saddles, got {saddles}"
        )


def enumerate_signature(saddles: int) -> list[FoliationGraph]:
    """All valid connection-free foliations with ``saddles`` saddles, one
    per isomorphism class, signature by signature: the classes of
    ``(0, saddles)`` first, then ``(1, saddles - 1)`` and so on.

    Driven by permutations: an elliptic point's leaves in rotation order
    are exactly one cycle of a permutation of the slots.  Slot ``t = 2i + k``
    is saddle ``i``'s ``s_k`` on the source side and its ``u_k`` on the sink
    side.

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
    at three saddles), hence the union-find.

    One pass over the source rotations serves every signature, by a lemma:
    nothing that accepts a rotation system reads a saddle's sign.  The
    filter reads only the cycles.  ``validate()``, the dart table and the
    face walk read a point's sign only in ``end_direction`` and in the
    embryo pattern check; ``end_direction`` ignores a hyperbolic point's
    sign, the s0,u0,s1,u1 pattern check reads none, and the elliptic points
    carry the same signs in every signing.  So each rotation system that
    passes the filter is assembled once and validated once
    (:func:`_assemble`), and signature ``(p, n - p)`` takes its signed copy,
    in which saddle ``h{i}`` is positive exactly when ``i < p``
    (:func:`_signings`); the copy shares the edges and the rotation.  The
    canonical form does read signs, so each copy takes its own.  Each
    signature sees its candidates in permutation order, as a loop of its
    own would, and keeps the first graph of each canonical form, so its
    classes come in the order their first representative is found, which
    does not depend on the canonical form.  Every graph returned is
    validated on its own object.
    """
    _require_enumerable(saddles)
    if saddles == 0:
        from .zoo import trivial

        return [trivial()]
    n = saddles
    signings = _signings(n)
    classes: list[dict[str, FoliationGraph]] = [{} for _ in signings]
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
        g = _assemble(n, s_cycles, u_cycles)
        if g.validate():
            raise DecisionError("enumeration filter accepted an invalid graph")
        for signing, seen in zip(signings, classes):
            signed = FoliationGraph({**g.points, **signing}, g.edges, g.rotation)
            seen.setdefault(signed.canonical_form(), signed)
    out = [g for seen in classes for g in seen.values()]
    if any(g.validate() for g in out):
        raise DecisionError("enumeration signed a valid graph into an invalid one")
    return out


def _signings(n: int) -> list[dict[str, SingularPoint]]:
    """The saddles ``h0`` to ``h{n - 1}`` of each signature ``(p, n - p)``,
    ``p = 0..n`` in order: ``h{i}`` is positive exactly when ``i < p``."""
    return [
        {f"h{i}": SingularPoint(f"h{i}", HYPERBOLIC, 1 if i < p else -1) for i in range(n)}
        for p in range(n + 1)
    ]


def _assemble(n: int, s_cycles: tuple, u_cycles: tuple) -> FoliationGraph:
    """The candidate of a source permutation's cycles and its sink cycles,
    with ``n`` saddles, every one positive.

    Saddle ``i``'s slots ``s0, u0, s1, u1`` hold leaves ``e{4i}`` to
    ``e{4i + 3}``, so stable slot ``t`` holds leaf ``e{2t}`` and unstable
    slot ``t`` leaf ``e{2t + 1}``; each leaf's elliptic end is read off the
    cycle that holds its slot before the leaf is built.
    """
    points = {}
    rotation = {}
    for i in range(n):
        hid = f"h{i}"
        points[hid] = SingularPoint(hid, HYPERBOLIC, 1)
        rotation[hid] = (
            (f"e{4 * i}", "tgt"),
            (f"e{4 * i + 1}", "src"),
            (f"e{4 * i + 2}", "tgt"),
            (f"e{4 * i + 3}", "src"),
        )
    far: list[EndRef | None] = [None] * (4 * n)  # the elliptic end of leaf e{k}
    for ci, cyc in enumerate(s_cycles):
        pid = f"p{ci}"
        points[pid] = SingularPoint(pid, ELLIPTIC, 1)
        ref = EndRef(pid, None)
        for t in cyc:
            far[2 * t] = ref
        rotation[pid] = tuple((f"e{2 * t}", "src") for t in cyc)
    for ci, cyc in enumerate(u_cycles):
        zid = f"z{ci}"
        points[zid] = SingularPoint(zid, ELLIPTIC, -1)
        ref = EndRef(zid, None)
        for t in cyc:
            far[2 * t + 1] = ref
        rotation[zid] = tuple((f"e{2 * t + 1}", "tgt") for t in cyc)
    edges = {}
    for k in range(4 * n):
        eid = f"e{k}"
        saddle_end = EndRef(f"h{k >> 2}", HYPERBOLIC_SLOTS[k & 3])
        if k & 1:
            edges[eid] = Separatrix(eid, saddle_end, far[k])
        else:
            edges[eid] = Separatrix(eid, far[k], saddle_end)
    return FoliationGraph(points, edges, rotation)


def universe(max_saddles: int) -> dict[tuple[int, int], list[FoliationGraph]]:
    """Enumerated universes for every saddle signature up to a total count,
    grouped from one :func:`enumerate_signature` pass per count.

    Raises :class:`DecisionError` before any work unless the count is in
    ``0..MAX_ENUMERATION_SADDLES``.
    """
    _require_enumerable(max_saddles)
    out: dict[tuple[int, int], list[FoliationGraph]] = {}
    for total in range(0, max_saddles + 1):
        by_sig = {(plus, total - plus): [] for plus in range(total + 1)}
        for g in enumerate_signature(total):
            plus = sum(p.sign > 0 for p in g.saddle_points())
            by_sig[(plus, total - plus)].append(g)
        out.update(by_sig)
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

    by_sig = universe(max_saddles)
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
