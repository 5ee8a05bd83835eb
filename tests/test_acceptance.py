"""Acceptance suite: twelve exact, end-to-end checks of the whole pipeline.

Each test is one criterion and reports one pass/fail line under ``pytest -v``;
run with ``-s`` to also see the tallies behind each verdict.  Everything here
is exact (rational arithmetic, frozen counts) — no tolerances.
"""

import itertools
import json
import time
from fractions import Fraction

from charfol import ELLIPTIC, EMBRYO, HYPERBOLIC, zoo
from charfol.cli import FoliationDocument, emit, main as cli_main
from charfol.handles import HalfHandle1, extend_to_ball, verify_decomposition
from charfol.invariants import point_surplus, positive_tree, surplus, trace_polygon
from charfol.moves import (
    MoveError,
    create_pair,
    eliminate_embryo,
    eliminate_pair,
    resolve_connection,
    resolve_embryo,
)
from charfol.taming import (
    is_lyapunov,
    is_taming,
    levels,
    normalized_assignment,
    simplicity_check,
)
from charfol.tightness import (
    allowable_candidates,
    decide_tightness,
    oracle_tightness,
    universe,
)
from references import eq_simplicity_check

F = Fraction


def saddle_ids(g):
    return sorted(p.id for p in g.points.values() if p.kind == HYPERBOLIC)


def ordering_sweep(instances):
    """Yield (graph, assignment, is_taming) for every strict saddle ordering."""
    for g in instances:
        for perm in itertools.permutations(saddle_ids(g)):
            a = normalized_assignment(g, list(perm))
            yield g, a, is_taming(g, a)


def test_c01_euler_identity_on_the_whole_universe(universe_list):
    for g in universe_list:
        dp, dm = point_surplus(g)
        assert dp + dm == 2, g.canonical_form()
    assert len(universe_list) == 106
    print(f"\nC1 pass: d+ + d- = 2 on all {len(universe_list)} instances (exact)")


def test_c02_tight_spheres_have_unit_surplus(universe_list):
    tight = 0
    for g in universe_list:
        if decide_tightness(g).tight:
            tight += 1
            assert point_surplus(g) == (1, 1), g.canonical_form()
    assert tight == 23
    print(f"\nC2 pass: all {tight} tight instances have d+ = d- = 1 (exact)")


def test_c03_decision_procedure_matches_the_oracle(universe_list):
    start = time.monotonic()
    for g in universe_list:
        assert decide_tightness(g).tight == oracle_tightness(g)["tight"], (
            g.canonical_form()
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"\nC3 pass: decide == oracle on {len(universe_list)} connection-free "
        f"instances in {elapsed:.1f}s (exact, budget 300s)"
    )


def test_c04_every_tight_instance_offers_an_allowable_vertex(tight_instances):
    pool = list(tight_instances)
    pool.append(zoo.example("embryo_positive"))
    pool.append(zoo.example("embryo_negative"))
    conn = zoo.example("tight_saddle_connection")
    cert = decide_tightness(conn)
    assert cert.tight and cert.resolved_connection == "conn"
    for side in ("left", "right"):
        pool.append(resolve_connection(conn, cert.resolved_connection, side).graph)

    checked = 0
    for g in pool:
        if all(p.kind == ELLIPTIC for p in g.points.values()):
            continue
        checked += 1
        assert allowable_candidates(g), g.canonical_form()
    assert checked == 26
    print(
        f"\nC4 pass: allowable_candidates names a vertex on all {checked} tight "
        "instances with saddle-type points, embryos and resolved connections "
        "included (exact)"
    )


def test_c05_taming_implies_simplicity(universe_list):
    orderings = taming = 0
    for g, a, tame in ordering_sweep(universe_list):
        orderings += 1
        if not tame:
            continue
        taming += 1
        report = simplicity_check(g, a)
        assert report.circle_simple, (g.canonical_form(), a)
    assert (orderings, taming) == (559, 86)
    print(
        f"\nC5 pass: every one of the {taming} taming orderings (of {orderings} "
        "strict orderings) is simple (exact)"
    )


def test_c06_path_inequality_characterizes_taming(tight_instances):
    trees = orderings = 0
    for g in tight_instances:
        if g.homoclinic_edges() or not positive_tree(g).is_tree():
            continue
        trees += 1
        for perm in itertools.permutations(saddle_ids(g)):
            orderings += 1
            a = normalized_assignment(g, list(perm))
            lhs = is_taming(g, a)
            rhs = is_lyapunov(g, a) and eq_simplicity_check(g, a)
            assert lhs == rhs, (g.canonical_form(), perm)
    assert (trees, orderings) == (23, 107)
    print(
        f"\nC6 pass: taming <=> Lyapunov + path inequality on all {orderings} "
        f"orderings over {trees} tight tree instances (exact)"
    )


def test_c07_taming_sublevel_components_have_unit_source_surplus(universe_list):
    taming = thresholds = 0
    for g, a, tame in ordering_sweep(universe_list):
        if not tame:
            continue
        taming += 1
        # the region below each level but the lowest is the sublevel set at
        # one regular threshold, the midpoint between two consecutive values
        for v, region, _ in itertools.islice(levels(g, a), 1, None):
            thresholds += 1
            members = {}
            for pid, root in region.components().items():
                members.setdefault(root, []).append(g.points[pid])
            for root, points in members.items():
                assert surplus(points)[0] == 1, (g.canonical_form(), a, v, root)
    assert (taming, thresholds) == (86, 330)
    print(
        f"\nC7 pass: d+ = 1 in every sublevel component at all {thresholds} "
        f"regular thresholds of {taming} taming assignments (exact)"
    )


def test_c08_every_tight_instance_extends_to_the_ball(tight_instances):
    extended = 0
    for g in tight_instances:
        cert = decide_tightness(g)
        assert cert.assignment is not None
        dec = extend_to_ball(g, cert.assignment)
        assert verify_decomposition(dec) == [], g.canonical_form()
        for r in dec.records:
            if isinstance(r, HalfHandle1):
                assert r.components[0] != r.components[1], g.canonical_form()
        extended += 1
    assert extended == 23
    print(
        f"\nC8 pass: ball extension built and replay-verified for all "
        f"{extended} tight instances; every join names two distinct "
        "components (exact)"
    )


def applicable_moves(g):
    for p in sorted(g.points.values(), key=lambda p: p.id):
        if p.kind == HYPERBOLIC:
            partners = [g.edge_at_slot(p.id, s).src for s in ("s0", "s1")]
            partners += [g.edge_at_slot(p.id, s).dst for s in ("u0", "u1")]
            seen = set()
            for ref in partners:
                q = g.points[ref.point]
                if ref.slot is None and q.kind == ELLIPTIC and ref.point not in seen:
                    seen.add(ref.point)
                    try:
                        yield eliminate_pair(g, ref.point, p.id).graph
                    except MoveError:
                        pass
        elif p.kind == EMBRYO:
            for mv in (eliminate_embryo, resolve_embryo):
                try:
                    yield mv(g, p.id).graph
                except MoveError:
                    pass
    for f in g.faces():
        for sign in (1, -1):
            try:
                yield create_pair(g, f.index, sign).graph
            except MoveError:
                pass
    for eid in g.homoclinic_edges():
        for side in ("left", "right"):
            try:
                yield resolve_connection(g, eid, side).graph
            except MoveError:
                pass


def test_c09_moves_preserve_the_verdict(universe_list):
    instances = list(universe_list) + [zoo.example(n) for n in sorted(zoo.ZOO)]
    applied = 0
    for g in instances:
        before = decide_tightness(g).tight
        for moved in applicable_moves(g):
            applied += 1
            assert moved.validate() == []
            assert decide_tightness(moved).tight == before, g.canonical_form()
    assert (len(instances), applied) == (117, 1613)
    print(
        f"\nC9 pass: verdict unchanged under {applied} applicable moves "
        f"across {len(instances)} instances (exact)"
    )


def test_c10_duality_under_flow_reversal(universe_list):
    checked = taming = 0
    for g in universe_list:
        rev = g.reverse()
        assert decide_tightness(g).tight == decide_tightness(rev).tight
        for perm in itertools.permutations(saddle_ids(g)):
            checked += 1
            a = normalized_assignment(g, list(perm))
            dual = {k: 1 - v for k, v in a.items()}
            tame = is_taming(g, a)
            assert is_taming(rev, dual) == tame, (g.canonical_form(), perm)
            if tame:
                taming += 1
                r0, r1 = simplicity_check(g, a), simplicity_check(rev, dual)
                assert r0.circle_simple == r1.circle_simple
    assert (checked, taming) == (559, 86)
    print(
        f"\nC10 pass: verdict, taming and simplicity invariant under reversal "
        f"with negated values ({checked} orderings, {taming} taming) (exact)"
    )


def test_c11_certificates_reverify_through_the_cli(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    instances = [g for graphs in universe(2).values() for g in graphs]
    instances += [
        zoo.example(n) for n in sorted(zoo.ZOO) if n != "trivial"
    ]

    reverified = 0
    for i, g in enumerate(instances):
        path = tmp_path / f"i{i}.fol"
        path.write_text(emit(g))
        code1, out1 = run("decide", "-i", str(path), "--json")
        code2, out2 = run("decide", "-i", str(path), "--json")
        assert out1 == out2, "decide --json must be byte-identical across runs"
        cert = json.loads(out1)

        # leaf certificates: (graph, certificate) pairs, connections resolved
        leaves = [(g, cert)]
        while leaves and "branches" in leaves[0][1]:
            graph, c = leaves.pop(0)
            sides = ("left", "right")
            if any(graph.points[pid].kind == EMBRYO
                   for e in [graph.edges[c["resolved_connection"]]]
                   for pid in (e.src.point, e.dst.point)):
                embryo = next(
                    pid
                    for e in [graph.edges[c["resolved_connection"]]]
                    for pid in (e.src.point, e.dst.point)
                    if graph.points[pid].kind == EMBRYO
                )
                resolved = [
                    eliminate_embryo(graph, embryo).graph,
                    resolve_embryo(graph, embryo).graph,
                ]
            else:
                resolved = [
                    resolve_connection(graph, c["resolved_connection"], s).graph
                    for s in sides
                ]
            leaves.extend(zip(resolved, c["branches"]))

        for graph, c in leaves:
            if c["verdict"] == "tight" and "assignment" in c:
                values = {k: F(v) for k, v in c["assignment"].items()}
                doc = tmp_path / f"i{i}t.fol"
                doc.write_text(emit(FoliationDocument(graph, values)))
                code, out = run("tame", "-i", str(doc), "--json")
                assert code == 0 and json.loads(out)["tames_simply"] is True
                reverified += 1
            elif c["verdict"] == "overtwisted" and c.get("polygon"):
                poly = trace_polygon(graph, frozenset(c["polygon"]["faces"]))
                assert poly is not None and poly.same_sign and poly.embedded
                reverified += 1
            else:
                # exhaustion-style certificates: re-check the verdict itself
                exit_code, _ = run("decide", "-i", str(path))
                assert exit_code == (0 if cert["verdict"] == "tight" else 1)
                reverified += 1
    assert reverified >= len(instances)
    print(
        f"\nC11 pass: {reverified} certificates re-verified through the CLI; "
        "decide --json byte-identical on repeated runs (exact)"
    )


def test_c12_fixture_regressions():
    loop = decide_tightness(zoo.example("overtwisted_loop_positive"))
    assert not loop.tight
    assert loop.polygon is not None
    assert loop.polygon.signs == {1} and loop.polygon.embedded

    one = decide_tightness(zoo.example("tight_one_saddle"))
    assert one.tight
    assert sorted(one.assignment.values()) == [F(0), F(0), F(1, 2), F(1)]
    assert one.assignment["h"] == F(1, 2)

    neg = decide_tightness(zoo.example("tight_one_saddle_negative"))
    assert neg.tight
    print(
        "\nC12 pass: positive loop -> overtwisted with an all-positive "
        "polygon; one-saddle sphere -> tight at (0, 0, 1/2, 1); "
        "negative one-saddle sphere -> tight (exact)"
    )
