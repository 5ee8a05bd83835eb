"""Extending a tamed foliated sphere to a handle decomposition of the ball.

A simple taming assignment on the sphere extends to a function on the ball
with no interior critical points.  Reading the assignment bottom-up, each
boundary critical point contributes one half-handle:

* positive elliptic point — ``ZeroCell``: a new ball component appears,
  bounded by one level circle;
* joining saddle — ``HalfHandle1``: bridges two level circles that bound
  *distinct* components; on the sphere a bridge within one component,
  which would force an interior critical point, never occurs, and
  simplicity rules out a cycle of bridges (:mod:`charfol.taming`);
* splitting saddle — ``HalfHandle2``: pinches one level circle into two,
  keeping the component connected;
* negative elliptic point — ``Cap``: fills one level circle;
* embryo — ``EmbryoStep``: a birth–death tangency, no handle attached.

:func:`verify_decomposition` replays the record list symbolically against
the graph and reports every discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar, Mapping

from .invariants import Region
from .model import ELLIPTIC, EMBRYO, HYPERBOLIC, FoliationGraph, GraphError, UnionFind
from .taming import levels, lyapunov_violations, simplicity_check, stable_circles, sublevel_region


class ExtensionError(GraphError):
    """The assignment does not extend to the ball."""


def _circle_tag(key: tuple) -> str:
    return "|".join(f"{kind}:{val}" for kind, val in key)


# ------------------------------------------------------------------- records


@dataclass(frozen=True)
class Record:
    """One critical point's step, at its value; ``kind`` names the step."""

    point: str
    value: Fraction

    kind: ClassVar[str]

    def to_data(self) -> dict:
        """``kind``, then the fields in order: a value as its string, a pair
        as a list."""
        data: dict = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = list(v)
            data[f.name] = v
        return data


@dataclass(frozen=True)
class ZeroCell(Record):
    kind = "zero-cell"


@dataclass(frozen=True)
class HalfHandle1(Record):
    circles: tuple[str, str]
    components: tuple[str, str]

    kind = "half-handle-1"


@dataclass(frozen=True)
class HalfHandle2(Record):
    circle: str
    component: str

    kind = "half-handle-2"


@dataclass(frozen=True)
class Cap(Record):
    circle: str

    kind = "cap"


@dataclass(frozen=True)
class EmbryoStep(Record):
    kind = "embryo-step"


# presentation order inside one critical level: new cells first, then
# splitting handles, then joining ones, then caps; embryo steps are neutral
_RANK = {"zero-cell": 0, "half-handle-2": 1, "half-handle-1": 2, "embryo-step": 3, "cap": 4}


@dataclass(frozen=True)
class HandleDecomposition:
    graph: FoliationGraph
    assignment: Mapping[str, Fraction]
    records: tuple[Record, ...]

    def to_data(self) -> dict:
        return {
            "assignment": {k: str(v) for k, v in sorted(self.assignment.items())},
            "records": [r.to_data() for r in self.records],
        }


# ----------------------------------------------------------------- extension


def _saddle_event(region: Region, hid: str, value: Fraction) -> Record:
    """The half-handle of saddle ``hid`` over ``region``, the points below it."""
    g = region.graph
    roots = region.components()
    circles = region.boundary_circles()
    i0, i1 = stable_circles(region, hid)
    r0 = roots[g.edge_at_slot(hid, "s0").src.point]
    if i0 != i1:  # a join, as simplicity_check reads it
        r1 = roots[g.edge_at_slot(hid, "s1").src.point]
        tags = (_circle_tag(circles[i0].key()), _circle_tag(circles[i1].key()))
        return HalfHandle1(hid, value, tags, (r0, r1))
    return HalfHandle2(hid, value, _circle_tag(circles[i0].key()), r0)


def _cap_event(region: Region, zid: str, value: Fraction) -> Cap:
    """The cap that sink ``zid`` puts on the circle of ``region`` around it."""
    circles = region.boundary_circles()
    keys = {
        _circle_tag(circles[region.circle_of_edge(eid)].key())
        for eid, end in region.graph.rotation[zid]
        if end == "tgt"
    }
    if len(keys) != 1:
        raise ExtensionError(f"sink {zid} is not enclosed by a single circle")
    return Cap(zid, value, keys.pop())


def extend_to_ball(g: FoliationGraph, a: Mapping[str, Fraction]) -> HandleDecomposition:
    """Handle decomposition of the ball induced by a simple taming assignment."""
    g.require_valid()
    report = simplicity_check(g, a)
    if not report.taming:
        raise ExtensionError("assignment is not taming; no extension exists")
    if not report.circle_simple:
        raise ExtensionError("assignment is not simple; half-handles would collide")
    records: list[Record] = []
    for value, region, at in levels(g, a):
        for pid in at:
            p = g.points[pid]
            if p.kind == ELLIPTIC and p.sign > 0:
                records.append(ZeroCell(pid, value))
            elif p.kind == ELLIPTIC:
                records.append(_cap_event(region, pid, value))
            elif p.kind == HYPERBOLIC:
                records.append(_saddle_event(region, pid, value))
            else:
                records.append(EmbryoStep(pid, value))
    records.sort(key=lambda r: (r.value, _RANK[r.kind], r.point))
    return HandleDecomposition(g, dict(a), tuple(records))


# -------------------------------------------------------------- verification


def verify_decomposition(dec: HandleDecomposition) -> list[str]:
    """Replay the records against the graph; empty list means the
    decomposition builds the ball."""
    g = dec.graph
    a = dec.assignment
    # the replay reads regions, which need every edge to climb: a forged
    # assignment that is not Lyapunov is reported, not replayed
    try:
        problems = lyapunov_violations(g, a)
    except GraphError as ex:  # a point the assignment misses
        return [str(ex)]
    if problems:
        return problems
    below = {value: region for value, region, _ in levels(g, a)}

    def joins(hid: str) -> bool:
        c0, c1 = stable_circles(below[a[hid]], hid)
        return c0 != c1

    expected = {p.id for p in g.points.values()}
    listed = [r.point for r in dec.records]
    if sorted(listed) != sorted(expected):
        problems.append("records do not list every singular point exactly once")
        return problems

    # records must come in level order; inside one level any order is fine
    last = None
    for r in dec.records:
        if last is not None and r.value < last:
            problems.append(f"record for {r.point} is out of order")
        last = r.value

    # independent replay: count components and level circles
    components = 0
    circles = 0
    zero_cells = UnionFind()  # ball components, named by their zero-cells
    for r in dec.records:
        pid = r.point
        p = g.points[pid]
        if isinstance(r, ZeroCell):
            if not (p.kind == ELLIPTIC and p.sign > 0):
                problems.append(f"zero-cell at non-source {pid}")
            zero_cells.add(pid)
            components += 1
            circles += 1
        elif isinstance(r, HalfHandle1):
            if not (p.kind == HYPERBOLIC and joins(pid)):
                problems.append(f"half-handle-1 at non-joining point {pid}")
                continue
            if _saddle_event(below[a[pid]], pid, a[pid]) != r:
                problems.append(f"half-handle-1 data for {pid} does not replay")
            # the record's own value, which a forgery may have moved
            region = sublevel_region(g, a, r.value)
            if not region.inside:
                problems.append(f"half-handle-1 {pid}: no assigned value lies below {r.value}")
                return problems
            comp = region.components()
            reps = []
            for root in r.components:
                cells = [q for q in region.inside if q in zero_cells and comp[q] == comp.get(root)]
                if not cells:
                    problems.append(f"component {root} holds no zero-cell")
                    return problems
                reps.append(min(cells))
            if zero_cells.union(*reps):
                components -= 1
            else:
                problems.append(f"half-handle-1 {pid} joins a component to itself")
            circles -= 1
        elif isinstance(r, HalfHandle2):
            if not (p.kind == HYPERBOLIC and not joins(pid)):
                problems.append(f"half-handle-2 at non-splitting point {pid}")
                continue
            if _saddle_event(below[a[pid]], pid, a[pid]) != r:
                problems.append(f"half-handle-2 data for {pid} does not replay")
            circles += 1
        elif isinstance(r, Cap):
            if not (p.kind == ELLIPTIC and p.sign < 0):
                problems.append(f"cap at non-sink {pid}")
                continue
            if _cap_event(below[a[pid]], pid, a[pid]) != r:
                problems.append(f"cap data for {pid} does not replay")
            circles -= 1
        else:
            if p.kind != EMBRYO:
                problems.append(f"embryo step at non-embryo {pid}")
        if components < 1 or circles < 0:
            problems.append(f"state went negative at {pid}")
            return problems
    if components != 1:
        problems.append(f"replay ends with {components} ball components")
    if circles != 0:
        problems.append(f"replay ends with {circles} open circles")
    return problems
