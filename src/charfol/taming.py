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
critical level must form a forest on the boundary circles of the region
below that level.  :func:`simplicity_check` reads all three conditions in
one edge scan and one walk of the levels.

On the sphere that forest is also the forest on the region's components,
which the ball extension consumes.  A saddle at a level lies in one
component R of the complement of the region X below it, and its stable
separatrices enter R through circles that bound R.  A component of X is a
connected subsurface of the sphere, so the component of its complement
holding R is a disc bounded by one of its circles.  Hence a join's two
circles bound distinct components, and a cycle of circles, whose joins all
lie in R, is a cycle of components.  Conversely, the components and the
complement's regions form a tree whose edges are circles, so a cycle of
joins through components leaves and re-enters each component by one
circle: it lifts to a cycle of circles.

A sublevel set, the region of the points valued below a threshold, has two
readers: :func:`levels` reads every level in one walk, lowest first, and
:func:`sublevel_region` reads one threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Mapping, Sequence

from .invariants import Region
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
    the graph's region cache (:meth:`Region.of`).  Past the lowest value, each
    region is the sublevel set at the midpoint below its value.
    """
    below: list[str] = []
    for value, group in groupby(sorted(g.points, key=a.__getitem__), key=a.__getitem__):
        at = tuple(sorted(group))
        yield value, Region.of(g, below), at
        below += at


def sublevel_region(g: FoliationGraph, a: Assignment, t: Fraction) -> Region:
    """The region of the points valued below ``t``.  It comes from the graph's
    region cache (:meth:`Region.of`), so every query about one sublevel set of
    one graph gets the same object and shares its circles and components."""
    return Region.of(g, [pid for pid in g.points if a[pid] < t])


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


@dataclass(frozen=True)
class LevelReport:
    """The saddles at one critical level, read on the region just below it,
    and whether the level's joins form a forest on that region's boundary
    circles."""

    value: Fraction
    joins: tuple[str, ...]
    splits: tuple[str, ...]
    circle_forest: bool


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


def simplicity_check(g: FoliationGraph, a: Assignment) -> SimplicityReport:
    """Read the assignment in one Lyapunov scan and one walk of its levels:
    each saddle's join or split, and the saddles whose reading disagrees
    with their sign."""
    violations = tuple(lyapunov_violations(g, a))
    if violations:
        return SimplicityReport(violations, (), ())
    reports, mismatched = [], []
    for v, region, at in levels(g, a):
        joins, splits, links = [], [], []
        for hid in at:
            if g.points[hid].kind != HYPERBOLIC:
                continue
            c0, c1 = stable_circles(region, hid)
            joined = c0 != c1
            if joined:
                joins.append(hid)
                links.append((c0, c1))
            else:
                splits.append(hid)
            if joined != (g.points[hid].sign > 0):
                mismatched.append(hid)
        if joins or splits:
            sets = UnionFind(range(len(region.boundary_circles())))
            forest = all(sets.union(c0, c1) for c0, c1 in links)
            reports.append(LevelReport(v, tuple(joins), tuple(splits), forest))
    return SimplicityReport((), tuple(reports), tuple(sorted(mismatched)))
