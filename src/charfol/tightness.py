"""Deciding tightness of a foliated sphere.

:func:`decide_tightness` reads the point surplus first: a mismatch is
overtwisted.  Otherwise it looks for a simple taming order and verifies it
on the sphere itself, by one of two searches:

* :func:`synthesize_taming`, on a Morse–Smale sphere: recursively collapses
  allowable bottom events (joins and splits);
* :func:`prefix_taming`, on a sphere with an embryo or a saddle connection:
  searches the strict orders of the saddle-type values that respect the
  separatrices between saddle-type points, as sets of points below each one.

A sphere with no verified order is overtwisted, with a same-sign polygon
where one can be looked for.  :func:`oracle_tightness` runs the prefix
search on every sphere.  It shares only the assignment checkers with
synthesis, never the search strategy, so the two cross-check each other on
Morse–Smale spheres and enumerated universes (:func:`enumerate_foliations`).
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
    FREE_SLOTS,
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
from .moves import _fresh, eliminate_pair
from .taming import normalized_assignment, simplicity_check, stable_circles


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class TightnessCertificate:
    verdict: str  # "tight" | "overtwisted"
    reason: str
    saddle_order: tuple[str, ...] | None = None
    assignment: dict | None = None
    polygon: Polygon | None = None

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
        return out


# ------------------------------------------------------------ bottom collapse


@dataclass(frozen=True)
class AllowabilityVerdict:
    """Which of the two bottom-event patterns a saddle matches, if any."""

    point: str
    case: str  # "PosHypDistinctSources", "NegHypSameSource" or "NotAllowable"
    witnesses: tuple[str, ...]  # feeding positive elliptic points

    @property
    def allowable(self) -> bool:
        return self.case != "NotAllowable"


def classify_allowable(g: FoliationGraph, pid: str) -> AllowabilityVerdict:
    """Match a saddle against the bottom-event patterns.

    A saddle can open a simple taming order only if its feed comes straight
    from positive elliptic points in the right multiplicity: a positive
    saddle from two distinct ones, a negative saddle twice from one.
    """
    p = g.points.get(pid)
    if p is None:
        raise DecisionError(f"unknown point {pid}")
    if p.kind != HYPERBOLIC:
        raise DecisionError(f"only saddles carry an allowability case, not {p.kind} points")
    feeders = elliptic_feeders(g, pid)
    if feeders is not None:
        if p.sign > 0 and feeders[0] != feeders[1]:
            return AllowabilityVerdict(pid, "PosHypDistinctSources", tuple(sorted(feeders)))
        if p.sign < 0 and feeders[0] == feeders[1]:
            return AllowabilityVerdict(pid, "NegHypSameSource", feeders[:1])
    return AllowabilityVerdict(pid, "NotAllowable", ())


def allowable_candidates(g: FoliationGraph) -> list[AllowabilityVerdict]:
    """All saddles passing :func:`classify_allowable`, lowest id first."""
    out = []
    for pid in sorted(g.points):
        if g.points[pid].kind == HYPERBOLIC:
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
            marker = e.dst.slot in FREE_SLOTS
            edges[eid] = Separatrix(eid, EndRef(cap, None), e.dst, marker=marker)
        yield FoliationGraph(points, edges, rotation).marker_reduce()


def synthesize_taming(g: FoliationGraph) -> tuple[str, ...] | None:
    """Search a Morse–Smale sphere for a saddle order whose normalized
    assignment tames simply.

    Raises :class:`DecisionError` on a sphere with an embryo or a saddle
    connection, which :func:`prefix_taming` searches instead.

    Recursive bottom-up collapse with backtracking over allowable events.
    A node is keyed by the set of ids of its saddles, and the keys of nodes
    that admit no order are remembered.  Every key is looked up before its
    node is built.  Eliminating a saddle ``h`` leaves the key minus ``h``,
    so a dead child is skipped before its move is made.  A split's two side
    keys are the saddle ids of the two components of the complement of
    (source, saddle), because capping adds only an elliptic point and
    ``marker_reduce`` removes only edges (:func:`_side_keys`).  So a split
    with a dead side is skipped before any circle is traced, and side 1 is
    capped only once side 0 has an order.  The search computes no canonical
    form.  The returned order is always re-verified on the input graph by
    the caller.

    The memo rests on a lemma: within one call, a node is determined up to
    isomorphism by its set of saddle ids.

    * Every event is surgery on its saddle's stable manifold: a
      cancellation merges the saddle's two sources across it into one, and
      a split cuts along the annulus of the saddle and its source and caps
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
    if not is_morse_smale(g):
        raise DecisionError("synthesis searches Morse-Smale spheres only")
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
            # the site passes every guard of eliminate_pair: the pair is
            # positive, the witness feeds one stable slot since the feeders
            # differ, the other feeder is the anchor and an elliptic source,
            # and the re-route sink is a negative point; so a MoveError here
            # is a bug and is not caught
            sub = recurse(eliminate_pair(h, cand.witnesses[0], cand.point).graph, child)
            if sub is not None:
                return [cand.point] + sub
        dead.add(key)
        return None

    order = recurse(g, frozenset(p.id for p in g.saddle_points()))
    return None if order is None else tuple(order)


def verify_taming_order(g: FoliationGraph, order: tuple[str, ...]) -> dict | None:
    """Normalized assignment for the order if it tames simply, else None."""
    try:
        a = normalized_assignment(g, list(order))
    except GraphError:
        return None
    report = simplicity_check(g, a)
    return a if report.taming and report.circle_simple else None


def simple_taming(g: FoliationGraph) -> tuple[tuple[str, ...], dict] | None:
    """A saddle order and its verified assignment, or None: synthesized on a
    Morse–Smale sphere, found by :func:`prefix_taming` on any other."""
    if not is_morse_smale(g):
        return prefix_taming(g)
    order = synthesize_taming(g)
    assignment = verify_taming_order(g, order) if order is not None else None
    return (order, assignment) if assignment is not None else None


# ------------------------------------------------------------------- decide


def decide_tightness(g: FoliationGraph) -> TightnessCertificate:
    """Decide whether the foliated sphere bounds a tight structure.

    The point surplus comes first: no perturbation of an embryo or a saddle
    connection changes it, so a mismatch is overtwisted on the sphere and
    on every sphere near it.  Otherwise :func:`simple_taming` looks for an
    order, and a verified one is the certificate of tightness.  Without one
    the sphere is overtwisted, with a same-sign polygon when
    :func:`~charfol.invariants.witness_polygon` can look for one (up to the
    subset search's face limit, or on a Morse–Smale sphere).  Without a
    polygon the verdict rests on the exhaustion of every order, which the
    prefix search vouches for; on a Morse–Smale sphere it runs once more,
    as a cross-check of synthesis.
    """
    g.require_valid()
    morse_smale = is_morse_smale(g)
    searchable = morse_smale or len(g.face_table().orbits) <= MAX_POLYGON_FACES
    surplus = point_surplus(g)
    if surplus != (1, 1):
        # the surplus alone proves it; the polygon is evidence
        return TightnessCertificate(
            "overtwisted",
            f"point surplus {surplus} != (1, 1)",
            polygon=witness_polygon(g) if searchable else None,
        )

    tamed = simple_taming(g)
    if tamed is not None:
        order, assignment = tamed
        route = "synthesized" if morse_smale else "found by prefix search"
        reason = f"simple taming order {route} and verified"
        return TightnessCertificate("tight", reason, saddle_order=order, assignment=assignment)
    poly = witness_polygon(g) if searchable else None
    if poly is not None:
        return TightnessCertificate(
            "overtwisted",
            "no simple taming order exists",
            polygon=poly,
        )
    # no human-checkable polygon: fall back to search-relative evidence
    if morse_smale and prefix_taming(g) is not None:
        raise InternalCheckError(
            "synthesis missed a taming order the exhaustive search found"
        )
    return TightnessCertificate(
        "overtwisted",
        "no simple taming order exists "
        f"(all {math.factorial(len(g.saddle_points()))} orderings exhausted, "
        "no polygon found)",
    )


# ------------------------------------------------------------ prefix search

#: the most saddle-type points :func:`oracle_tightness` accepts
MAX_ORACLE_SADDLES = 15


def _complete(
    g: FoliationGraph,
    ids: list[str],
    sources: frozenset[str],
    feeds: dict[str, set[str]],
    order: list[str],
    dead: set[frozenset[str]],
    below: frozenset[str],
) -> bool:
    """Extend ``order``, whose points are ``below``, to a full order of
    ``ids`` in which each point comes after the points in ``feeds[pid]``;
    ``dead`` holds the sets already found to have no completion.  A
    module-level function, so the search leaves no reference cycle
    through ``g``."""
    if len(order) == len(ids):
        return True
    if below in dead:
        return False
    region = Region(g, sources | below)
    for pid in ids:
        if pid in below or not feeds[pid] <= below:
            continue
        p = g.points[pid]
        if p.kind == HYPERBOLIC:
            c0, c1 = stable_circles(region, pid)
            if (c0 != c1) != (p.sign > 0):
                continue
        order.append(pid)
        if _complete(g, ids, sources, feeds, order, dead, below | {pid}):
            return True
        order.pop()
    dead.add(below)
    return False


def prefix_taming(g: FoliationGraph) -> tuple[tuple[str, ...], dict] | None:
    """The first simple taming order in lexicographic order of sorted ids,
    with the assignment :func:`verify_taming_order` gives it, or None when
    no order tames simply.

    The search rests on a lemma, which ``tests/test_tightness.py`` checks:
    on any valid sphere, a strict order of the saddle-type points is
    Lyapunov exactly when it respects the feeds, that is, when each
    saddle-type point comes after every saddle-type point with a separatrix
    into it.  The normalized assignment puts positive elliptic points at 0,
    negative ones at 1 and each saddle-type point alone at a level between.
    Nothing enters a positive elliptic point and nothing leaves a negative
    one, so an edge with an elliptic end rises, and an edge between two
    saddle-type points rises exactly when its source comes first.  A zone
    leaf that returns to its own embryo feeds the embryo itself, so no
    order respects it, just as no order is Lyapunov.

    Below a saddle of a Lyapunov order lie the positive elliptic points and
    the points before it, and no edge enters that region, so each
    hyperbolic point's join or split, read by :func:`stable_circles`, still
    depends only on the set of points below it.  A level holds one point,
    so its joins always form a forest.  An order therefore tames simply
    exactly when it respects the feeds and each hyperbolic point joins if
    positive and splits if negative.  So the search runs depth first over
    order prefixes in sorted-id order and remembers the sets with no
    completion (Held and Karp's subset recursion): at most ``n * 2**(n - 1)``
    one-point readings for ``n`` saddle-type points, where a loop over the
    permutations makes ``n!`` full checks.  Its cost depends on the
    verdict: an overtwisted sphere with surplus (1, 1) makes it read every
    set.  It reads each set once, so its regions stay out of the graph's
    cache (:meth:`Region.of`), where 15 saddles left 8192 (about 55 MB).
    An order that :func:`verify_taming_order` rejects would refute the
    lemma, and raises :class:`InternalCheckError`.
    """
    ids = sorted(p.id for p in g.saddle_points())
    sources = frozenset(
        p.id for p in g.points.values() if p.kind == ELLIPTIC and p.sign > 0
    )
    feeds: dict[str, set[str]] = {pid: set() for pid in ids}
    for e in g.edges.values():
        if e.src.point in feeds and e.dst.point in feeds:
            feeds[e.dst.point].add(e.src.point)
    order: list[str] = []
    if not _complete(g, ids, sources, feeds, order, set(), frozenset()):
        return None
    assignment = verify_taming_order(g, tuple(order))
    if assignment is None:
        raise InternalCheckError("the prefix search's order fails verify_taming_order")
    return tuple(order), assignment


def oracle_tightness(g: FoliationGraph) -> dict:
    """Exhaustive search for a simple taming order of saddle and embryo
    values: :func:`prefix_taming`, on any valid sphere with at most
    :data:`MAX_ORACLE_SADDLES` saddle-type points, the points the search
    ranges over: the slowest family measured, overtwisted spheres grown
    from ``perfbench/seeds/untameable.fol`` by seeded births, took 0.6 s
    at 15 and 2.9–3.4 s at 17 (three runs, Python 3.11).

    Returns the lexicographically first order that passes, with its
    verified assignment, and ``orders_tried``: the order's lexicographic
    rank plus one, or ``n!`` when none passes, the count that a loop over
    the permutations would have made.
    """
    g.require_valid()
    ids = sorted(p.id for p in g.saddle_points())
    if len(ids) > MAX_ORACLE_SADDLES:
        raise DecisionError(
            f"instance has {len(ids)} saddle-type points, oracle bound is {MAX_ORACLE_SADDLES}"
        )
    tamed = prefix_taming(g)
    if tamed is None:
        return {
            "tight": False,
            "order": None,
            "assignment": None,
            "orders_tried": math.factorial(len(ids)),
        }
    order, assignment = tamed
    rank, rest = 0, list(ids)
    for pid in order:
        rank += rest.index(pid) * math.factorial(len(rest) - 1)
        rest.remove(pid)
    return {
        "tight": True,
        "order": list(order),
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
