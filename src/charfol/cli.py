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

Every command but ``render`` takes ``--json``.  Under it, exits 0 and 1
print one JSON value (a list for ``enumerate``, an object otherwise); a
refusal of ``extend`` is ``{"extendable": false, "reason": ...}``.  A
document that parses but breaks the structural rules exits 2 with
``{"valid": false, "problems": [...]}`` (text: ``invalid`` and one problem
a line).  A syntax or domain error exits 2, and exit 3 follows a failed
cross-check; each prints one line on stderr, and under ``--json`` also one
object on stdout: ``{"error": "syntax", "message", "line", "column"}``, or
``{"error": kind, "message"}`` with kind ``domain``, ``io`` or
``internal``.
"""

from __future__ import annotations

import argparse
import functools
import html
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .handles import ExtensionError, extend_to_ball, verify_decomposition
from .invariants import (
    point_surplus,
    positive_tree,
    skeleton_decomposition,
    witness_polygon,
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
    simple_taming,
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


def _column(raw: str, tokens: Sequence[str], k: int) -> int:
    """The column of ``tokens[k]``, the k-th whitespace-split token of ``raw``."""
    end = 0
    for tok in tokens[: k + 1]:
        end = raw.index(tok, end) + len(tok)
    return end - len(tokens[k]) + 1


#: an optionally signed run of ASCII digits, then optionally ``/`` and another
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def _parse_fraction(lineno: int, raw: str, tokens: Sequence[str], k: int) -> Fraction:
    token = tokens[k]
    m = _RATIONAL.fullmatch(token)
    try:
        if m is None:
            raise ValueError(token)
        n, d = int(m[1]), int(m[2] or 1)
    except ValueError:  # not a rational, or more digits than int() converts
        raise ParseError(
            f"malformed rational {token!r}", lineno, _column(raw, tokens, k)
        ) from None
    if d == 0:
        raise ParseError("zero denominator", lineno, _column(raw, tokens, k))
    return Fraction(n, d)


def _parse_endpoint(lineno: int, raw: str, tokens: Sequence[str], k: int) -> EndRef:
    token = tokens[k]
    pid, colon, slot = token.partition(":")
    if not pid:
        raise ParseError(f"empty point id in {token!r}", lineno, _column(raw, tokens, k))
    if colon and not slot:
        raise ParseError(f"empty slot in {token!r}", lineno, _column(raw, tokens, k))
    return EndRef(pid, slot if colon else None)


_SIGNS = {"+": 1, "-": -1}


def parse(text: str) -> FoliationDocument:
    """Parse one document; delegates structural rules to ``validate``."""
    points: dict[str, SingularPoint] = {}
    edges: dict[str, Separatrix] = {}
    rotation: dict[str, tuple] = {}
    values: dict[str, Fraction] = {}
    value_lines: dict[str, tuple[int, str, list[str]]] = {}
    transcript: object | None = None
    claimed_connections: list[tuple[str, int, str, list[str], int]] = []
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
                    f"sign must be + or -, got {sign_tok!r}", lineno, _column(raw, tokens, 3)
                )
            if pid in points:
                raise ParseError(f"duplicate point {pid}", lineno, _column(raw, tokens, 1))
            try:
                points[pid] = SingularPoint(pid, kind, _SIGNS[sign_tok])
            except GraphError as exc:
                raise ParseError(str(exc), lineno, _column(raw, tokens, 2)) from None

        elif key == "sep":
            if len(tokens) < 4:
                raise ParseError("sep line needs: id src dst [marker] [homoclinic]", lineno)
            _, eid, _, _, *flags = tokens
            if eid in edges:
                raise ParseError(f"duplicate separatrix {eid}", lineno, _column(raw, tokens, 1))
            marker = False
            for k, flag in enumerate(flags, start=4):
                if flag == "marker":
                    marker = True
                elif flag == "homoclinic":
                    claimed_connections.append((eid, lineno, raw, tokens, k))
                else:
                    raise ParseError(
                        f"unknown separatrix flag {flag!r}", lineno, _column(raw, tokens, k)
                    )
            edges[eid] = Separatrix(
                eid,
                _parse_endpoint(lineno, raw, tokens, 2),
                _parse_endpoint(lineno, raw, tokens, 3),
                marker,
            )

        elif key == "rot":
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise ParseError("rot line needs: <point-id>: <edge-end> ...", lineno)
            pid = tokens[1][:-1]
            if not pid:
                raise ParseError(
                    f"empty point id in {tokens[1]!r}", lineno, _column(raw, tokens, 1)
                )
            if pid in rotation:
                raise ParseError(f"duplicate rotation for {pid}", lineno, _column(raw, tokens, 1))
            darts = []
            for k, tok in enumerate(tokens[2:], start=2):
                eid, dot, end = tok.rpartition(".")
                if not dot or end not in ("src", "tgt"):
                    raise ParseError(
                        f"edge end must look like <edge-id>.src or .tgt, got {tok!r}",
                        lineno,
                        _column(raw, tokens, k),
                    )
                darts.append((eid, end))
            rotation[pid] = tuple(darts)

        elif key == "value":
            if len(tokens) != 3:
                raise ParseError("value line needs: point-id numerator/denominator", lineno)
            pid = tokens[1]
            if pid in values:
                raise ParseError(f"duplicate value for {pid}", lineno, _column(raw, tokens, 1))
            values[pid] = _parse_fraction(lineno, raw, tokens, 2)
            value_lines[pid] = (lineno, raw, tokens)

        elif key == "transcript":
            if transcript is not None:
                raise ParseError("duplicate transcript line", lineno)
            payload = line[len("transcript") :].strip()
            try:
                transcript = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad transcript JSON: {exc.msg}", lineno) from None

        else:
            raise ParseError(f"unknown key {key!r}", lineno, _column(raw, tokens, 0))

    if not seen_header:
        raise ParseError(f"empty document (missing {HEADER!r} header)", 1)

    graph = FoliationGraph(points, edges, rotation)
    for eid, lineno, raw, tokens, k in claimed_connections:
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
                _column(raw, tokens, k),
            )
    for pid, (lineno, raw, tokens) in value_lines.items():
        if pid not in points:
            raise ParseError(f"value for unknown point {pid}", lineno, _column(raw, tokens, 1))
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
        # a "#" starts a comment, and in compact JSON one occurs only inside
        # a string, where its escape reads back as the same character
        payload = json.dumps(doc.transcript, sort_keys=True, separators=(",", ":"))
        lines.append("transcript " + payload.replace("#", "\\u0023"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- rendering


_DOT_SHAPES = {ELLIPTIC: "circle", HYPERBOLIC: "diamond", EMBRYO: "doublecircle"}


def _quoted(text: str) -> str:
    """A DOT quoted string, with each backslash and quote inside escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(g: FoliationGraph) -> str:
    """Graphviz text: one node per point, one arc per separatrix, basin clusters."""
    out = ["digraph foliation {", "  rankdir=LR;", '  node [fontsize=11];']
    clustered: set[str] = set()
    decomposition = None
    if g.is_valid:
        decomposition = skeleton_decomposition(g)
        for label, groups in (("basin", decomposition.basins), ("semibasin", decomposition.semibasins)):
            for center, members in groups:
                faces = " ".join(map(str, members))
                out.append(f"  subgraph {_quoted(f'cluster_{label}_{center}')} {{")
                out.append(f"    label={_quoted(f'{label} {center} (faces {faces})')};")
                out.append(f"    {_quoted(center)};")
                out.append("  }")
                clustered.add(center)
    for pid in sorted(g.points):
        p = g.points[pid]
        style = "solid" if p.sign > 0 else "dashed"
        fill = {1: "white", -1: "gray88"}[p.sign]
        out.append(
            f'  {_quoted(pid)} [shape={_DOT_SHAPES[p.kind]}, style="{style},filled", '
            f"fillcolor={fill}, label={_quoted(f'{pid} {_SIGN_TOKENS[p.sign]}')}];"
        )
    skeleton = set(decomposition.skeleton) if decomposition else set()
    for eid in sorted(g.edges):
        e = g.edges[eid]
        attrs = [f"label={_quoted(eid)}"]
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
        out.append(f'  {_quoted(e.src.point)} -> {_quoted(e.dst.point)} [{", ".join(attrs)}];')
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
    # the far end of each dart, in rotation order
    neighbors = {
        pid: [
            g.edges[eid].dst.point if end == "src" else g.edges[eid].src.point
            for eid, end in g.rotation.get(pid, ())
        ]
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
                f'  <path id="edge-{html.escape(eid)}" class="{" ".join(classes)}" d="{d}" '
                f'fill="none" stroke="{color}"{dash} marker-end="url(#arrow)"/>'
            )
    for pid in sorted(g.points):
        p = g.points[pid]
        x, y = pos[pid]
        fill = {1: "#ffffff", -1: "#cfd8dc"}[p.sign]
        parts.append(
            f'  <circle id="point-{html.escape(pid)}" class="point kind-{p.kind}" '
            f'cx="{x}" cy="{y}" r="9" fill="{fill}" stroke="#111111"/>'
        )
        parts.append(
            f'  <text x="{x}" y="{round(y - 12, 2)}" text-anchor="middle" '
            f'font-size="11">{html.escape(pid)} {_SIGN_TOKENS[p.sign]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------- commands

#: what a command returns, given the parsed arguments and the document,
#: parsed and valid (``None`` for ``enumerate``): the exit code, the payload
#: ``--json`` prints, and the text printed without it.  Only main() reads the
#: document and writes the report.
Report = tuple[int, object, str]


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


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _invalid(problems: list[str]) -> Report:
    text = _text(["invalid"] + [f"  {p}" for p in problems])
    return 2, {"valid": False, "problems": problems}, text


def cmd_validate(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    return 0, {"valid": True, "problems": []}, "valid\n"


def cmd_invariants(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    g = doc.graph
    decomposition = skeleton_decomposition(g)
    dp, dm = point_surplus(g)
    polygon = witness_polygon(g)
    payload: dict = {
        "points": len(g.points),
        "separatrices": len(g.edges),
        "faces": len(g.face_table().orbits),
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
    lines = [
        f"points: {payload['points']}  separatrices: {payload['separatrices']}  "
        f"faces: {payload['faces']}",
        f"surplus: d+ = {dp}, d- = {dm}",
        f"skeleton: {' '.join(payload['skeleton']) or '(empty)'}",
    ]
    for label, groups in (("basin", decomposition.basins), ("semibasin", decomposition.semibasins)):
        for center, members in groups:
            lines.append(f"{label} {center}: faces {' '.join(map(str, members))}")
    if payload["homoclinic"]:
        lines.append(f"connections: {' '.join(payload['homoclinic'])}")
    if "positive_tree" in payload:
        t = payload["positive_tree"]
        lines.append(
            f"positive tree: {len(t['nodes'])} nodes, {len(t['links'])} links, "
            f"{'a tree' if t['is_tree'] else 'not a tree'}"
        )
    faces = " ".join(map(str, payload["same_sign_polygon"]["faces"])) if polygon else ""
    lines.append(f"same-sign polygon: faces {faces}" if polygon else "same-sign polygon: none")
    return 0, payload, _text(lines)


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


def cmd_decide(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    cert = decide_tightness(doc.graph)
    return (0 if cert.tight else 1), cert.to_data(), _text(_describe_certificate(cert))


def cmd_tame(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    g = doc.graph
    if doc.values:
        report = simplicity_check(g, doc.values)
        lyapunov = not report.lyapunov_violations
        payload = {"mode": "verify", "lyapunov": lyapunov, "taming": report.taming}
        if lyapunov:  # simplicity is read for Lyapunov assignments only
            payload["circle_simple"] = report.circle_simple
            payload["component_simple"] = report.circle_simple  # one reading on the sphere
        payload["tames_simply"] = report.taming and report.circle_simple
        lines = [f"{k}: {'yes' if v else 'no'}" for k, v in payload.items() if k != "mode"]
        return (0 if payload["tames_simply"] else 1), payload, _text(lines)

    tamed = simple_taming(g)
    if tamed is None:
        return 1, {"mode": "synthesize", "order": None}, "no simple taming order exists\n"
    order, assignment = tamed
    payload = {
        "mode": "synthesize",
        "order": list(order),
        "assignment": {k: _frac(v) for k, v in sorted(assignment.items())},
    }
    return 0, payload, emit(FoliationDocument(g, assignment))


def cmd_extend(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    g = doc.graph
    values = doc.values
    if not values:
        tamed = simple_taming(g)
        if tamed is None:
            reason = "no simple taming order exists"
            return 1, {"extendable": False, "reason": reason}, reason + "\n"
        values = tamed[1]
    try:
        decomposition = extend_to_ball(g, values)
    except ExtensionError as exc:
        return 1, {"extendable": False, "reason": str(exc)}, f"not extendable: {exc}\n"
    failures = verify_decomposition(decomposition)
    if failures:
        raise InternalCheckError(
            "replay rejected a freshly built decomposition: " + "; ".join(failures)
        )
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
    return 0, decomposition.to_data(), _text(lines)


def cmd_enumerate(args: argparse.Namespace, doc: None) -> Report:
    instances = list(
        enumerate_foliations(
            args.max_saddles,
            allow_embryos=args.embryos,
            allow_homoclinics=args.homoclinics,
        )
    )
    return 0, [g.to_data() for g in instances], "\n".join(emit(g) for g in instances)


def cmd_oracle(args: argparse.Namespace, doc: FoliationDocument) -> Report:
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
    lines = [
        f"tight: {'yes' if payload['tight'] else 'no'}",
        f"orders tried: {payload['orders_tried']}",
    ]
    if payload["order"]:
        lines.append(f"order: {' '.join(payload['order'])}")
    return (0 if payload["tight"] else 1), payload, _text(lines)


def cmd_render(args: argparse.Namespace, doc: FoliationDocument) -> Report:
    render = render_dot if args.format == "dot" else render_svg
    return 0, None, render(doc.graph)


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

    def common(p: argparse.ArgumentParser, needs_input: bool = True, takes_json: bool = True) -> None:
        if needs_input:
            p.add_argument("--input", "-i", default="-", help="document path or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        if takes_json:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        else:
            p.set_defaults(json=False)

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
    common(p, takes_json=False)
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = None if args.command == "enumerate" else parse(_read_text(args.input))
        problems = doc.graph.validate() if doc else []
        code, payload, text = _invalid(problems) if problems else args.fn(args, doc)
        _write_text(args.output, _emit_json(payload) if args.json else text)
        return code
    except ParseError as exc:
        return _refuse(args.json, "syntax", "syntax error", exc, line=exc.line, column=exc.column)
    except InternalCheckError as exc:
        return _refuse(args.json, "internal", "internal check failed", exc, code=3)
    except GraphError as exc:
        return _refuse(args.json, "domain", "error", exc)
    except OSError as exc:
        return _refuse(args.json, "io", "io error", exc)


def _refuse(
    as_json: bool, kind: str, prefix: str, exc: Exception, code: int = 2, **where: int
) -> int:
    """Print the refusal's line on stderr and, under ``--json``, one object
    ``{"error": kind, "message": ...}`` (with ``where``) on stdout."""
    print(f"{prefix}: {exc}", file=sys.stderr)
    if as_json:
        sys.stdout.write(_emit_json({"error": kind, "message": str(exc), **where}))
    return code


if __name__ == "__main__":
    sys.exit(main())
