"""Value assignments on singular points and what it takes for one to tame.

An assignment is a map from point ids to :class:`fractions.Fraction`
levels.  It is *Lyapunov* when every edge strictly increases.  It *tames*
the flow when, additionally, each hyperbolic point joins or splits the
sublevel boundary circles in agreement with its sign: just below the
saddle's level its two inbound separatrices must cross two different
circles for a positive point (a join) and the same circle for a negative
one (a split).  Embryos are neutral and only participate through the
Lyapunov condition.

*Simplicity* is a per-level condition on ties: the joins performed at one
critical level must form a forest.  Both the circle-level reading and the
refined component-level reading are computed; the refined one is what the
ball-extension construction consumes.  :func:`simplicity_check` reads all
three conditions in one edge scan and one walk of the levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Mapping, Sequence

from .invariants import Region, elliptic_feeders, positive_links, surplus
from .model import ELLIPTIC, HYPERBOLIC, FoliationGraph, GraphError, UnionFind

Assignment = Mapping[str, Fraction]


def check_assignment(g: FoliationGraph, a: Assignment) -> None:
    missing = sorted(set(g.points) - set(a))
    if missing:
        raise GraphError(f"assignment misses points {missing}")


def normalized_assignment(
    g: FoliationGraph, saddle_order: Sequence[str]
) -> dict[str, Fraction]:
    """Pin elliptic points to 0/1 and spread saddles by their order position."""
    saddles = {p.id for p in g.saddle_points()}
    if set(saddle_order) != saddles or len(saddle_order) != len(saddles):
        raise GraphError("saddle order must list every saddle-type point once")
    n = len(saddle_order)
    a: dict[str, Fraction] = {}
    for p in g.points.values():
        if p.kind == ELLIPTIC:
            a[p.id] = Fraction(0 if p.sign > 0 else 1)
    for k, pid in enumerate(saddle_order, start=1):
        a[pid] = Fraction(k, n + 1)
    return a


def lyapunov_violations(g: FoliationGraph, a: Assignment) -> list[str]:
    check_assignment(g, a)
    out = []
    for eid, e in sorted(g.edges.items()):
        if not a[e.src.point] < a[e.dst.point]:
            out.append(
                f"edge {eid}: value must increase ({e.src.point}={a[e.src.point]} "
                f"-> {e.dst.point}={a[e.dst.point]})"
            )
    return out


def is_lyapunov(g: FoliationGraph, a: Assignment) -> bool:
    return not lyapunov_violations(g, a)


def levels(g: FoliationGraph, a: Assignment) -> Iterator[tuple[Fraction, Region, tuple[str, ...]]]:
    """Each assigned value, lowest first, with the region of the points
    valued less and the points valued at it, in id order.

    The points are sorted by value once, so the walk reads every critical
    level of the assignment for the price of one sort; the regions come from
    the graph's region cache (:meth:`Region.of`).
    """
    below: list[str] = []
    for value, group in groupby(sorted(g.points, key=a.__getitem__), key=a.__getitem__):
        at = tuple(sorted(group))
        yield value, Region.of(g, below), at
        below += at


def sublevel_region(
    g: FoliationGraph, a: Assignment, t: Fraction, *, strict: bool = False
) -> Region:
    """The region of the points valued at most ``t`` (below ``t`` if ``strict``).

    The region comes from the graph's region cache (:meth:`Region.of`), so
    every query about one sublevel set of one graph gets the same object and
    shares its traced boundary circles and components.
    """
    if strict:
        return Region.of(g, [pid for pid in g.points if a[pid] < t])
    return Region.of(g, [pid for pid in g.points if a[pid] <= t])


def region_below(g: FoliationGraph, a: Assignment, value: Fraction) -> Region:
    """The sublevel region just below ``value``: the points valued less.

    No assigned value lies strictly between ``value`` and the next one below,
    so this is the sublevel set at every level in that gap.
    """
    region = sublevel_region(g, a, value, strict=True)
    if not region.inside:
        raise GraphError(f"no assigned value lies below {value}")
    return region


def stable_circles(region: Region, hid: str) -> tuple[int, int]:
    """The boundary circles of ``region`` that the stable separatrices ``s0``
    and ``s1`` of saddle ``hid`` cross: two circles when the saddle joins
    them, one circle twice when it splits it."""
    g = region.graph
    return (
        region.circle_of_edge(g.edge_at_slot(hid, "s0").id),
        region.circle_of_edge(g.edge_at_slot(hid, "s1").id),
    )


def is_taming(g: FoliationGraph, a: Assignment) -> bool:
    return simplicity_check(g, a).taming


# ------------------------------------------------------------------ simplicity


def _forest_ok(nodes: Iterable, links: Iterable[tuple]) -> bool:
    sets = UnionFind(nodes)
    return all(sets.union(u, v) for u, v in links)


@dataclass(frozen=True)
class LevelReport:
    """The saddles at one critical level and the region just below it.  The
    forest readings of the joins are computed on first use."""

    value: Fraction
    joins: tuple[str, ...]
    splits: tuple[str, ...]
    region: Region = field(repr=False, compare=False)

    def _links(self) -> list[tuple[int, int]]:
        return [stable_circles(self.region, hid) for hid in self.joins]

    @cached_property
    def circle_forest(self) -> bool:
        return _forest_ok(range(len(self.region.boundary_circles())), self._links())

    @cached_property
    def component_forest(self) -> bool:
        # refined reading: collapse circles to the component they bound
        g = self.region.graph
        comp = self.region.components()
        comp_of_circle = [
            comp[g.edges[circle.crossed_edges()[0]].src.point]
            for circle in self.region.boundary_circles()
        ]
        comp_links = [(comp_of_circle[u], comp_of_circle[v]) for u, v in self._links()]
        return _forest_ok(set(comp_of_circle), comp_links)


@dataclass(frozen=True)
class SimplicityReport:
    """One reading of an assignment.  A non-Lyapunov assignment has no
    levels and is neither taming nor simple."""

    lyapunov_violations: tuple[str, ...]
    levels: tuple[LevelReport, ...]
    mismatched: tuple[str, ...]  # saddles whose join or split disagrees with their sign

    @property
    def taming(self) -> bool:
        return not self.lyapunov_violations and not self.mismatched

    @property
    def circle_simple(self) -> bool:
        return not self.lyapunov_violations and all(l.circle_forest for l in self.levels)

    @property
    def component_simple(self) -> bool:
        return not self.lyapunov_violations and all(l.component_forest for l in self.levels)


def simplicity_check(g: FoliationGraph, a: Assignment) -> SimplicityReport:
    """Read the assignment in one Lyapunov scan and one walk of its levels:
    each saddle's join or split, and the saddles whose reading disagrees
    with their sign."""
    violations = tuple(lyapunov_violations(g, a))
    if violations:
        return SimplicityReport(violations, (), ())
    reports, mismatched = [], []
    for v, region, at in levels(g, a):
        joins, splits = [], []
        for hid in at:
            if g.points[hid].kind != HYPERBOLIC:
                continue
            c0, c1 = stable_circles(region, hid)
            joined = c0 != c1
            (joins if joined else splits).append(hid)
            if joined != (g.points[hid].sign > 0):
                mismatched.append(hid)
        if joins or splits:
            reports.append(LevelReport(v, tuple(joins), tuple(splits), region))
    return SimplicityReport((), tuple(reports), tuple(sorted(mismatched)))


# ------------------------------------------- path-inequality characterization


def eq_simplicity_violations(g: FoliationGraph, a: Assignment) -> list[str]:
    """Path-inequality reading of simplicity.

    Every negative saddle must sit strictly above the smallest positive-saddle
    value on the skeleton path between the two positive elliptic points that
    feed it.  Together with the Lyapunov condition this is equivalent to
    taming on tight connection-free instances whose skeleton is a tree.
    """
    check_assignment(g, a)
    adj: dict[str, list[tuple[str, str]]] = {}
    for u, v, hid in positive_links(g):
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


# ----------------------------------------------- sublevel component bookkeeping


def regular_thresholds(g: FoliationGraph, a: Assignment) -> list[Fraction]:
    """Midpoints between consecutive assigned values."""
    check_assignment(g, a)
    values = sorted(set(a.values()))
    return [(u + v) / 2 for u, v in zip(values, values[1:])]


def sublevel_component_surplus(
    g: FoliationGraph, a: Assignment, t: Fraction
) -> dict[str, tuple[int, int]]:
    """Elliptic-minus-saddle count per component of a sublevel set."""
    members: dict[str, list[str]] = {}
    for pid, root in sublevel_region(g, a, t).components().items():
        members.setdefault(root, []).append(pid)
    return {root: surplus(g.points[pid] for pid in pids) for root, pids in members.items()}
