"""Command-line front end: text format, reports, rendering.

One instance per document, line oriented, ``#`` starts a comment::

    foliation v1
    point a elliptic +
    point h hyperbolic +
    point z elliptic -
    sep e0 a h:s0
    sep u0 h:u0 z
    rot h: e0.tgt u0.src e1.tgt u1.src
    value h 1/2

``point`` lines name the singular points (kinds ``elliptic``,
``hyperbolic``, ``embryo`` with sign ``+``/``-``).  ``sep`` lines are
directed edges; an endpoint is a point id, optionally ``:slot``-qualified;
the trailing words ``marker`` and ``homoclinic`` flag a free leaf and
assert a saddle-saddle connection.  ``rot`` lines give the full
counterclockwise order of edge ends (``<edge-id>.src`` or
``<edge-id>.tgt``) around a point.  ``value`` lines attach a rational level
to a point.  A ``transcript`` line may carry one canonical-JSON payload
(certificates travel with their instance).

Exit codes: 0 success (``decide``: Tight), 1 negative verdict
(``decide``: Overtwisted; ``tame``/``extend``/``oracle``: no taming), 2
invalid input, 3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .handles import ExtensionError, extend_to_ball, verify_decomposition
from .invariants import (
    find_same_sign_polygon,
    point_surplus,
    positive_tree,
    skeleton_decomposition,
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
)
from .taming import simplicity_check
from .tightness import (
    InternalCheckError,
    decide_tightness,
    enumerate_foliations,
    oracle_tightness,
    synthesize_taming,
    verify_taming_order,
)

HEADER = "foliation v1"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class FoliationDocument:
    graph: FoliationGraph
    values: dict[str, Fraction] | None = None
    transcript: object | None = None


# ------------------------------------------------------------------ parsing


def _column(raw: str, token: str) -> int:
    i = raw.find(token)
    return i + 1 if i >= 0 else 1


#: an optionally signed run of ASCII digits, then optionally ``/`` and another
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def _parse_fraction(token: str, lineno: int, raw: str) -> Fraction:
    m = _RATIONAL.fullmatch(token)
    try:
        if m is None:
            raise ValueError(token)
        n, d = int(m[1]), int(m[2] or 1)
    except ValueError:  # not a rational, or more digits than int() converts
        raise ParseError(
            f"malformed rational {token!r}", lineno, _column(raw, token)
        ) from None
    if d == 0:
        raise ParseError("zero denominator", lineno, _column(raw, token))
    return Fraction(n, d)


def _parse_endpoint(token: str, lineno: int, raw: str) -> EndRef:
    pid, colon, slot = token.partition(":")
    if not pid:
        raise ParseError(f"empty point id in {token!r}", lineno, _column(raw, token))
    if colon and not slot:
        raise ParseError(f"empty slot in {token!r}", lineno, _column(raw, token))
    return EndRef(pid, slot if colon else None)


_SIGNS = {"+": 1, "-": -1}


def parse(text: str) -> FoliationDocument:
    """Parse one document; delegates structural rules to ``validate``."""
    points: dict[str, SingularPoint] = {}
    edges: dict[str, Separatrix] = {}
    rotation: dict[str, tuple] = {}
    values: dict[str, Fraction] = {}
    value_lines: dict[str, int] = {}
    transcript: object | None = None
    claimed_connections: list[tuple[str, int, str]] = []
    seen_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line != HEADER:
                raise ParseError(f"expected {HEADER!r} header", lineno)
            seen_header = True
            continue
        tokens = line.split()
        key = tokens[0]

        if key == "point":
            if len(tokens) != 4:
                raise ParseError("point line needs: id kind sign", lineno)
            _, pid, kind, sign_tok = tokens
            if sign_tok not in _SIGNS:
                raise ParseError(
                    f"sign must be + or -, got {sign_tok!r}",
                    lineno,
                    _column(raw, sign_tok),
                )
            if pid in points:
                raise ParseError(f"duplicate point {pid}", lineno, _column(raw, pid))
            try:
                points[pid] = SingularPoint(pid, kind, _SIGNS[sign_tok])
            except GraphError as exc:
                raise ParseError(str(exc), lineno, _column(raw, kind)) from None

        elif key == "sep":
            if len(tokens) < 4:
                raise ParseError("sep line needs: id src dst [marker] [homoclinic]", lineno)
            _, eid, src_tok, dst_tok, *flags = tokens
            if eid in edges:
                raise ParseError(f"duplicate separatrix {eid}", lineno, _column(raw, eid))
            marker = False
            for flag in flags:
                if flag == "marker":
                    marker = True
                elif flag == "homoclinic":
                    claimed_connections.append((eid, lineno, raw))
                else:
                    raise ParseError(
                        f"unknown separatrix flag {flag!r}", lineno, _column(raw, flag)
                    )
            edges[eid] = Separatrix(
                eid,
                _parse_endpoint(src_tok, lineno, raw),
                _parse_endpoint(dst_tok, lineno, raw),
                marker,
            )

        elif key == "rot":
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise ParseError("rot line needs: <point-id>: <edge-end> ...", lineno)
            pid = tokens[1][:-1]
            if pid in rotation:
                raise ParseError(f"duplicate rotation for {pid}", lineno, _column(raw, pid))
            darts = []
            for tok in tokens[2:]:
                eid, dot, end = tok.rpartition(".")
                if not dot or end not in ("src", "tgt"):
                    raise ParseError(
                        f"edge end must look like <edge-id>.src or .tgt, got {tok!r}",
                        lineno,
                        _column(raw, tok),
                    )
                darts.append((eid, end))
            rotation[pid] = tuple(darts)

        elif key == "value":
            if len(tokens) != 3:
                raise ParseError("value line needs: point-id numerator/denominator", lineno)
            _, pid, frac_tok = tokens
            if pid in values:
                raise ParseError(f"duplicate value for {pid}", lineno, _column(raw, pid))
            values[pid] = _parse_fraction(frac_tok, lineno, raw)
            value_lines[pid] = lineno

        elif key == "transcript":
            if transcript is not None:
                raise ParseError("duplicate transcript line", lineno)
            payload = line[len("transcript") :].strip()
            try:
                transcript = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad transcript JSON: {exc.msg}", lineno) from None

        else:
            raise ParseError(f"unknown key {key!r}", lineno, _column(raw, key))

    if not seen_header:
        raise ParseError(f"empty document (missing {HEADER!r} header)", 1)

    graph = FoliationGraph(points, edges, rotation)
    for eid, lineno, raw in claimed_connections:
        both_saddle = all(
            points.get(ref.point) is not None
            and points[ref.point].kind in (HYPERBOLIC, EMBRYO)
            for ref in (edges[eid].src, edges[eid].dst)
        )
        if not both_saddle:
            raise ParseError(
                f"separatrix {eid} is flagged homoclinic but does not join "
                "two saddle-type points",
                lineno,
                _column(raw, "homoclinic"),
            )
    for pid, lineno in value_lines.items():
        if pid not in points:
            raise ParseError(f"value for unknown point {pid}", lineno)
    return FoliationDocument(graph, values or None, transcript)


# ----------------------------------------------------------------- emission


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _endpoint(ref: EndRef) -> str:
    return ref.point if ref.slot is None else f"{ref.point}:{ref.slot}"


_SIGN_TOKENS = {1: "+", -1: "-"}


def emit(doc: FoliationDocument | FoliationGraph) -> str:
    """Canonical text for a document: sorted ids, explicit denominators."""
    if isinstance(doc, FoliationGraph):
        doc = FoliationDocument(doc)
    g = doc.graph
    lines = [HEADER]
    for pid in sorted(g.points):
        p = g.points[pid]
        lines.append(f"point {pid} {p.kind} {_SIGN_TOKENS[p.sign]}")
    for eid in sorted(g.edges):
        e = g.edges[eid]
        words = ["sep", eid, _endpoint(e.src), _endpoint(e.dst)]
        if e.marker:
            words.append("marker")
        if g.is_homoclinic(eid):
            words.append("homoclinic")
        lines.append(" ".join(words))
    for pid in sorted(g.rotation):
        ends = " ".join(f"{eid}.{end}" for eid, end in g.rotation[pid])
        lines.append(f"rot {pid}: {ends}")
    if doc.values:
        for pid in sorted(doc.values):
            lines.append(f"value {pid} {_frac(doc.values[pid])}")
    if doc.transcript is not None:
        lines.append(
            "transcript "
            + json.dumps(doc.transcript, sort_keys=True, separators=(",", ":"))
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- rendering


_DOT_SHAPES = {ELLIPTIC: "circle", HYPERBOLIC: "diamond", EMBRYO: "doublecircle"}


def render_dot(g: FoliationGraph) -> str:
    """Graphviz text: one node per point, one arc per separatrix, basin clusters."""
    out = ["digraph foliation {", "  rankdir=LR;", '  node [fontsize=11];']
    clustered: set[str] = set()
    decomposition = None
    if g.is_valid:
        decomposition = skeleton_decomposition(g)
        for label, groups in (("basin", decomposition.basins), ("semibasin", decomposition.semibasins)):
            for center, members in groups:
                out.append(f'  subgraph "cluster_{label}_{center}" {{')
                out.append(f'    label="{label} {center} (faces {" ".join(map(str, members))})";')
                out.append(f'    "{center}";')
                out.append("  }")
                clustered.add(center)
    for pid in sorted(g.points):
        p = g.points[pid]
        style = "solid" if p.sign > 0 else "dashed"
        fill = {1: "white", -1: "gray88"}[p.sign]
        out.append(
            f'  "{pid}" [shape={_DOT_SHAPES[p.kind]}, style="{style},filled", '
            f'fillcolor={fill}, label="{pid} {_SIGN_TOKENS[p.sign]}"];'
        )
    skeleton = set(decomposition.skeleton) if decomposition else set()
    for eid in sorted(g.edges):
        e = g.edges[eid]
        attrs = [f'label="{eid}"']
        if e.src.slot:
            attrs.append(f'taillabel="{e.src.slot}"')
        if e.dst.slot:
            attrs.append(f'headlabel="{e.dst.slot}"')
        if e.marker:
            attrs.append("style=dotted")
        elif eid in skeleton:
            attrs.append("penwidth=2")
        if g.is_homoclinic(eid):
            attrs.append("color=red")
        out.append(f'  "{e.src.point}" -> "{e.dst.point}" [{", ".join(attrs)}];')
    out.append("}")
    return "\n".join(out) + "\n"


def _layout(g: FoliationGraph) -> dict[str, tuple[float, float]]:
    """Planar-ish positions: outer face on a circle, interior relaxed."""
    faces = g.faces()
    outer = max(faces, key=lambda f: (len(f.darts), -f.index))
    ring: list[str] = []
    for c in outer.corners:
        if c.point not in ring:
            ring.append(c.point)
    cx = cy = 200.0
    radius = 150.0
    pos: dict[str, tuple[float, float]] = {}
    for i, pid in enumerate(ring):
        ang = 2 * math.pi * i / len(ring) - math.pi / 2
        pos[pid] = (cx + radius * math.cos(ang), cy + radius * math.sin(ang))
    inner = [pid for pid in sorted(g.points) if pid not in pos]
    for k, pid in enumerate(inner):
        ang = 2 * math.pi * k / max(len(inner), 1)
        pos[pid] = (cx + 20 * math.cos(ang), cy + 20 * math.sin(ang))
    neighbors = {
        pid: [g.dart_point(g.theta(d)) for d in g.rotation.get(pid, ())]
        for pid in g.points
    }
    for _ in range(300):
        shift = 0.0
        for pid in inner:
            ns = neighbors[pid]
            if not ns:
                continue
            nx = sum(pos[q][0] for q in ns) / len(ns)
            ny = sum(pos[q][1] for q in ns) / len(ns)
            ox, oy = pos[pid]
            pos[pid] = (nx, ny)
            shift += abs(nx - ox) + abs(ny - oy)
        if shift < 1e-9:
            break
    # spread coincident points apart (degree-1 chains collapse onto anchors)
    ids = sorted(g.points)
    movable = set(inner)
    for _ in range(30):
        bumped = False
        for i, p in enumerate(ids):
            for q in ids[i + 1 :]:
                dx = pos[q][0] - pos[p][0]
                dy = pos[q][1] - pos[p][1]
                dist = math.hypot(dx, dy)
                if dist >= 42 or not ({p, q} & movable):
                    continue
                if dist < 1e-9:
                    # no direction between them: push radially from the center
                    dx = pos[q][0] - cx or 1.0
                    dy = pos[q][1] - cy
                    dist = math.hypot(dx, dy)
                push = (42 - dist) / 2 + 1
                ux, uy = dx / dist, dy / dist
                if p in movable:
                    pos[p] = (pos[p][0] - ux * push, pos[p][1] - uy * push)
                if q in movable:
                    pos[q] = (pos[q][0] + ux * push, pos[q][1] + uy * push)
                bumped = True
        if not bumped:
            break
    return {pid: (round(x, 2), round(y, 2)) for pid, (x, y) in pos.items()}


def render_svg(g: FoliationGraph) -> str:
    """SVG drawing honoring the layout; elements carry point-/edge- ids."""
    pos = _layout(g)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 400 400" '
        'width="400" height="400">',
        "  <defs>",
        '    <marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker>',
        "  </defs>",
    ]
    groups: dict[tuple[str, str], list[str]] = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        key = tuple(sorted((e.src.point, e.dst.point)))
        groups.setdefault(key, []).append(eid)
    for key, eids in sorted(groups.items()):
        fan = len(eids)
        for i, eid in enumerate(eids):
            e = g.edges[eid]
            x0, y0 = pos[e.src.point]
            x1, y1 = pos[e.dst.point]
            classes = ["edge"]
            if e.marker:
                classes.append("marker")
            if g.is_homoclinic(eid):
                classes.append("homoclinic")
            dash = ' stroke-dasharray="4 3"' if e.marker else ""
            color = "#c0392b" if g.is_homoclinic(eid) else "#333333"
            if e.src.point == e.dst.point:
                d = (
                    f"M {x0} {y0} C {x0 + 40} {y0 - 45 - 24 * i}, "
                    f"{x0 - 40} {y0 - 45 - 24 * i}, {x0} {y0}"
                )
            else:
                offset = (i - (fan - 1) / 2) * 36.0
                if (e.src.point, e.dst.point) != key:
                    offset = -offset
                mx, my = (x0 + x1) / 2, (y0 + y1) / 2
                dx, dy = x1 - x0, y1 - y0
                norm = math.hypot(dx, dy) or 1.0
                cxq = round(mx - dy / norm * offset, 2)
                cyq = round(my + dx / norm * offset, 2)
                d = f"M {x0} {y0} Q {cxq} {cyq} {x1} {y1}"
            parts.append(
                f'  <path id="edge-{eid}" class="{" ".join(classes)}" d="{d}" '
                f'fill="none" stroke="{color}"{dash} marker-end="url(#arrow)"/>'
            )
    for pid in sorted(g.points):
        p = g.points[pid]
        x, y = pos[pid]
        fill = {1: "#ffffff", -1: "#cfd8dc"}[p.sign]
        parts.append(
            f'  <circle id="point-{pid}" class="point kind-{p.kind}" '
            f'cx="{x}" cy="{y}" r="9" fill="{fill}" stroke="#111111"/>'
        )
        parts.append(
            f'  <text x="{x}" y="{round(y - 12, 2)}" text-anchor="middle" '
            f'font-size="11">{pid} {_SIGN_TOKENS[p.sign]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------- commands


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _InvalidDocument(Exception):
    """A parsed document whose graph breaks the structural rules, listed in ``args[0]``."""


def _load(args: argparse.Namespace) -> FoliationDocument:
    """Read and parse the input document; raises unless its graph is valid."""
    doc = parse(_read_text(args.input))
    problems = doc.graph.validate()
    if problems:
        raise _InvalidDocument(problems)
    return doc


def _assignment_from(doc: FoliationDocument) -> dict[str, Fraction] | None:
    return dict(doc.values) if doc.values else None


def _fail_invalid(args: argparse.Namespace, problems: list[str]) -> int:
    payload = {"valid": False, "problems": problems}
    if args.json:
        _write_text(args.output, _emit_json(payload))
    else:
        lines = ["invalid"] + [f"  {p}" for p in problems]
        _write_text(args.output, "\n".join(lines) + "\n")
    return 2


def cmd_validate(args: argparse.Namespace) -> int:
    _load(args)
    if args.json:
        _write_text(args.output, _emit_json({"valid": True, "problems": []}))
    else:
        _write_text(args.output, "valid\n")
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    doc = _load(args)
    g = doc.graph
    decomposition = skeleton_decomposition(g)
    dp, dm = point_surplus(g)
    polygon = find_same_sign_polygon(g)
    payload: dict = {
        "points": len(g.points),
        "separatrices": len(g.edges),
        "faces": len(g.faces()),
        "surplus": [dp, dm],
        "homoclinic": g.homoclinic_edges(),
        "skeleton": list(decomposition.skeleton),
        "basins": [[c, list(ms)] for c, ms in decomposition.basins],
        "semibasins": [[c, list(ms)] for c, ms in decomposition.semibasins],
        "same_sign_polygon": polygon.describe() if polygon else None,
    }
    if not g.homoclinic_edges():
        tree = positive_tree(g)
        payload["positive_tree"] = {
            "nodes": list(tree.nodes),
            "links": [list(l) for l in tree.links],
            "is_tree": tree.is_tree(),
        }
    if args.json:
        _write_text(args.output, _emit_json(payload))
        return 0
    lines = [
        f"points: {payload['points']}  separatrices: {payload['separatrices']}  "
        f"faces: {payload['faces']}",
        f"surplus: d+ = {dp}, d- = {dm}",
        f"skeleton: {' '.join(payload['skeleton']) or '(empty)'}",
    ]
    for center, members in decomposition.basins:
        lines.append(f"basin {center}: faces {' '.join(map(str, members))}")
    for center, members in decomposition.semibasins:
        lines.append(f"semibasin {center}: faces {' '.join(map(str, members))}")
    if payload["homoclinic"]:
        lines.append(f"connections: {' '.join(payload['homoclinic'])}")
    if "positive_tree" in payload:
        t = payload["positive_tree"]
        lines.append(
            f"positive tree: {len(t['nodes'])} nodes, {len(t['links'])} links, "
            f"{'a tree' if t['is_tree'] else 'not a tree'}"
        )
    lines.append(
        "same-sign polygon: "
        + (
            f"faces {' '.join(map(str, polygon.describe()['faces']))}"
            if polygon
            else "none"
        )
    )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _describe_certificate(cert) -> list[str]:
    lines = [f"verdict: {cert.verdict}", f"reason: {cert.reason}"]
    if cert.saddle_order is not None:
        lines.append(f"order: {' '.join(cert.saddle_order)}")
    if cert.assignment is not None:
        for pid in sorted(cert.assignment):
            lines.append(f"value {pid} = {cert.assignment[pid]}")
    if cert.polygon is not None:
        d = cert.polygon.describe()
        corner_text = " ".join(
            f"{c['point']}{'+' if c['sign'] > 0 else '-'}" for c in d["corners"]
        )
        lines.append(
            f"polygon: faces {' '.join(map(str, d['faces']))}; "
            f"corners {corner_text or '(none)'}; sides {d['sides']}"
        )
    return lines


def cmd_decide(args: argparse.Namespace) -> int:
    doc = _load(args)
    cert = decide_tightness(doc.graph)
    if args.json:
        _write_text(args.output, _emit_json(cert.to_data()))
    else:
        _write_text(args.output, "\n".join(_describe_certificate(cert)) + "\n")
    return 0 if cert.tight else 1


def cmd_tame(args: argparse.Namespace) -> int:
    doc = _load(args)
    g = doc.graph
    values = _assignment_from(doc)
    if values is not None:
        report = simplicity_check(g, values)
        lyapunov = not report.lyapunov_violations
        payload = {"mode": "verify", "lyapunov": lyapunov, "taming": report.taming}
        if lyapunov:  # simplicity is read for Lyapunov assignments only
            payload["circle_simple"] = report.circle_simple
            payload["component_simple"] = report.component_simple
        payload["tames_simply"] = report.taming and report.circle_simple
        if args.json:
            _write_text(args.output, _emit_json(payload))
        else:
            lines = [f"{k}: {'yes' if v else 'no'}" for k, v in payload.items() if k != "mode"]
            _write_text(args.output, "\n".join(lines) + "\n")
        return 0 if payload["tames_simply"] else 1

    order = synthesize_taming(g)
    assignment = verify_taming_order(g, order) if order is not None else None
    if assignment is None:
        message = "no simple taming order exists"
        if args.json:
            _write_text(args.output, _emit_json({"mode": "synthesize", "order": None}))
        else:
            _write_text(args.output, message + "\n")
        return 1
    if args.json:
        payload = {
            "mode": "synthesize",
            "order": list(order),
            "assignment": {k: _frac(v) for k, v in sorted(assignment.items())},
        }
        _write_text(args.output, _emit_json(payload))
    else:
        _write_text(args.output, emit(FoliationDocument(g, dict(assignment))))
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    doc = _load(args)
    g = doc.graph
    values = _assignment_from(doc)
    if values is None:
        order = synthesize_taming(g)
        values = verify_taming_order(g, order) if order is not None else None
        if values is None:
            _write_text(args.output, "no simple taming order exists\n")
            return 1
    try:
        decomposition = extend_to_ball(g, values)
    except ExtensionError as exc:
        _write_text(args.output, f"not extendable: {exc}\n")
        return 1
    failures = verify_decomposition(decomposition)
    if failures:
        raise InternalCheckError(
            "replay rejected a freshly built decomposition: " + "; ".join(failures)
        )
    if args.json:
        _write_text(args.output, _emit_json(decomposition.to_data()))
    else:
        lines = []
        for r in decomposition.records:
            d = r.to_data()
            extras = ", ".join(
                f"{k}={v}" for k, v in sorted(d.items()) if k not in ("kind", "point", "value")
            )
            lines.append(
                f"{d['value']:>6}  {d['kind']:<14} {d['point']}"
                + (f"  ({extras})" if extras else "")
            )
        _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    instances = list(
        enumerate_foliations(
            args.max_saddles,
            allow_embryos=args.embryos,
            allow_homoclinics=args.homoclinics,
        )
    )
    if args.json:
        _write_text(args.output, _emit_json([g.to_data() for g in instances]))
    else:
        _write_text(args.output, "\n".join(emit(g) for g in instances))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    doc = _load(args)
    result = oracle_tightness(doc.graph)
    payload = {
        "tight": result["tight"],
        "orders_tried": result["orders_tried"],
        "order": list(result["order"]) if result["order"] else None,
        "assignment": (
            {k: _frac(v) for k, v in sorted(result["assignment"].items())}
            if result["assignment"]
            else None
        ),
    }
    if args.json:
        _write_text(args.output, _emit_json(payload))
    else:
        lines = [
            f"tight: {'yes' if payload['tight'] else 'no'}",
            f"orders tried: {payload['orders_tried']}",
        ]
        if payload["order"]:
            lines.append(f"order: {' '.join(payload['order'])}")
        _write_text(args.output, "\n".join(lines) + "\n")
    return 0 if payload["tight"] else 1


def cmd_render(args: argparse.Namespace) -> int:
    doc = _load(args)
    text = render_dot(doc.graph) if args.format == "dot" else render_svg(doc.graph)
    _write_text(args.output, text)
    return 0


# --------------------------------------------------------------- entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    ``parse_args`` only reads the parser and returns a fresh namespace, and
    it looks up ``sys.stdout``, ``sys.stderr`` and the terminal width when it
    prints, so one parser serves any number of :func:`main` calls.
    """
    parser = argparse.ArgumentParser(
        prog="charfol",
        description="characteristic foliations on the 2-sphere: "
        "validate, decide tightness, tame, extend, enumerate, render",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("--input", "-i", default="-", help="document path or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    for name, fn, blurb in (
        ("validate", cmd_validate, "check the structural rules"),
        ("invariants", cmd_invariants, "surplus, skeleton, basins, polygons"),
        ("decide", cmd_decide, "tight or overtwisted, with certificate"),
        ("tame", cmd_tame, "synthesize a taming assignment, or verify value lines"),
        ("extend", cmd_extend, "extend a tamed sphere to a ball handle decomposition"),
        ("oracle", cmd_oracle, "exhaustive taming-order search (cross-check)"),
    ):
        p = sub.add_parser(name, help=blurb)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("enumerate", help="stream the instance universe")
    p.add_argument("--max-saddles", type=int, required=True)
    p.add_argument("--embryos", action="store_true", help="append embryo patterns")
    p.add_argument("--homoclinics", action="store_true", help="append connection patterns")
    common(p, needs_input=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("render", help="draw the instance")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    common(p)
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except _InvalidDocument as exc:
            return _fail_invalid(args, exc.args[0])
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
