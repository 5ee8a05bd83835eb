"""End-to-end CLI: document grammar, exit codes, rendering."""

import hashlib
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from charfol import FoliationGraph, cli, zoo
from charfol.cli import FoliationDocument, ParseError, emit, main, parse, render_dot, render_svg
from charfol.invariants import MAX_POLYGON_FACES, point_surplus
from charfol.moves import create_pair
from charfol.tightness import universe_cached

ZOO_NAMES = sorted(zoo.ZOO)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, text, name="doc.fol"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------ parse and emit


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_emit_parse_round_trip(name):
    g = zoo.example(name)
    text = emit(g)
    doc = parse(text)
    assert doc.graph.canonical_form() == g.canonical_form()
    assert doc.values is None and doc.transcript is None
    assert emit(doc) == text  # canonical form is a fixed point


def test_round_trip_keeps_values_and_transcript():
    g = zoo.example("tight_one_saddle")
    from fractions import Fraction

    doc = FoliationDocument(
        g,
        {"a": Fraction(0), "b": Fraction(0), "h": Fraction(1, 2), "z": Fraction(1)},
        {"note": ["resolved", 2]},
    )
    text = emit(doc)
    again = parse(text)
    assert again.values == doc.values
    assert again.transcript == doc.transcript
    assert emit(again) == text


def test_round_trip_on_enumerated_universe():
    for graphs in universe_cached(2).values():
        for g in graphs:
            assert parse(emit(g)).graph.canonical_form() == g.canonical_form()


def test_parse_accepts_comments_and_blank_lines():
    doc = parse(
        "foliation v1\n"
        "# two elliptic points and the marker leaf\n"
        "\n"
        "point p elliptic +\n"
        "point q elliptic -\n"
        "sep m0 p q marker\n"
        "rot p: m0.src\n"
        "rot q: m0.tgt\n"
    )
    assert doc.graph.is_isomorphic(zoo.trivial())


SYNTAX_ERRORS = [
    ("foliation v2\npoint p elliptic +\n", "header", 1),
    ("point p elliptic +\n", "header", 1),
    ("foliation v1\npoint p parabolic +\n", "kind", 2),
    ("foliation v1\npoint p elliptic\n", "point line needs", 2),
    ("foliation v1\npoint p elliptic +\npoint p elliptic -\n", "duplicate point", 3),
    ("foliation v1\nsep e a\n", "sep line needs", 2),
    ("foliation v1\nsep e a b extra words here\n", "unknown separatrix flag", 2),
    ("foliation v1\nwibble p\n", "unknown key", 2),
    ("foliation v1\npoint p elliptic +\nvalue p 1/0\n", "zero denominator", 3),
    ("foliation v1\npoint p elliptic +\nvalue p one\n", "malformed rational", 3),
    ("foliation v1\npoint p elliptic +\nvalue p 1_0/3\n", "malformed rational", 3),
    ("foliation v1\npoint p elliptic +\nvalue p \u0661/\u0662\n", "malformed rational", 3),
    ("foliation v1\npoint h corner 0\n", "sign must be + or -, got '0'", 2),
    ("foliation v1\npoint h corner +\n", "unknown point kind 'corner'", 2),
    ("foliation v1\npoint p elliptic +\nvalue q 1/2\n", "unknown point", 3),
    ("foliation v1\npoint p elliptic +\nrot p m0.src\n", "rot line needs", 3),
    ("foliation v1\ntranscript {not json}\n", "bad transcript", 2),
]


def test_value_lines_take_signed_ascii_rationals():
    doc = parse("foliation v1\npoint p elliptic +\npoint q elliptic -\nvalue p -2/4\nvalue q +3/-1\n")
    assert doc.values == {"p": Fraction(-1, 2), "q": Fraction(-3)}


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts any number of digits here",
)
def test_a_value_past_the_int_digit_limit_is_malformed():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match="line 3, column 9: malformed rational"):
        parse(f"foliation v1\npoint p elliptic +\nvalue p {digits}\n")


@pytest.mark.parametrize("text,needle,line", SYNTAX_ERRORS)
def test_syntax_errors_carry_line_numbers(text, needle, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    message = str(err.value)
    assert needle in message
    assert f"line {line}" in message


def test_homoclinic_flag_must_match_endpoints():
    text = (
        "foliation v1\n"
        "point p elliptic +\n"
        "point q elliptic -\n"
        "sep m0 p q marker homoclinic\n"
        "rot p: m0.src\n"
        "rot q: m0.tgt\n"
    )
    with pytest.raises(ParseError, match="homoclinic"):
        parse(text)


# ----------------------------------------------------------------- commands


def test_validate_exit_codes(tmp_path, capsys):
    good = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "validate", "-i", good)
    assert code == 0 and out == "valid\n"

    broken = emit(zoo.example("tight_one_saddle")).replace("rot h:", "rot_bad h:")
    bad = write_doc(tmp_path, broken, "bad.fol")
    code, out, err = run(capsys, "validate", "-i", bad)
    assert code == 2 and "syntax error" in err

    # structurally wrong but parseable: drop one rotation line entirely
    lines = [l for l in emit(zoo.example("tight_one_saddle")).splitlines() if not l.startswith("rot z")]
    code, out, _ = run(capsys, "validate", "-i", write_doc(tmp_path, "\n".join(lines), "inv.fol"), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False and payload["problems"]


def test_decide_exit_codes_and_json(tmp_path, capsys):
    tight = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "decide", "-i", tight)
    assert code == 0 and "verdict: tight" in out and "value h = 1/2" in out

    loop = write_doc(tmp_path, emit(zoo.example("overtwisted_loop_positive")), "l.fol")
    code, out, _ = run(capsys, "decide", "-i", loop, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "overtwisted"
    assert payload["polygon"]["same_sign"] is True


def test_decide_json_is_byte_identical_between_runs(tmp_path, capsys):
    for name in ZOO_NAMES:
        path = write_doc(tmp_path, emit(zoo.example(name)), f"{name}.fol")
        _, first, _ = run(capsys, "decide", "-i", path, "--json")
        _, second, _ = run(capsys, "decide", "-i", path, "--json")
        assert first == second


def test_tame_synthesize_then_verify_pipeline(tmp_path, capsys):
    bare = write_doc(tmp_path, emit(zoo.example("three_basin_chain")))
    code, out, _ = run(capsys, "tame", "-i", bare)
    assert code == 0
    assert "value h0 1/3" in out and "value h1 2/3" in out

    tamed = write_doc(tmp_path, out, "tamed.fol")
    code, verify_out, _ = run(capsys, "tame", "-i", tamed)
    assert code == 0
    assert "tames_simply: yes" in verify_out

    code, out, _ = run(capsys, "tame", "-i", tamed, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "mode": "verify",
        "lyapunov": True,
        "taming": True,
        "circle_simple": True,
        "component_simple": True,
        "tames_simply": True,
    }


def test_tame_reports_untamable_inputs(tmp_path, capsys):
    loop = write_doc(tmp_path, emit(zoo.example("overtwisted_loop_positive")))
    code, out, _ = run(capsys, "tame", "-i", loop)
    assert code == 1 and "no simple taming order" in out


def test_tame_answers_values_that_are_not_lyapunov(tmp_path, capsys):
    # b -> h does not increase: a valid document whose values do not tame
    text = emit(zoo.example("tight_one_saddle")) + "value a 0\nvalue b 0\nvalue h 2\nvalue z 1\n"
    path = write_doc(tmp_path, text)
    code, out, err = run(capsys, "tame", "-i", path)
    assert (code, err) == (1, "")
    assert out == "lyapunov: no\ntaming: no\ntames_simply: no\n"

    code, out, _ = run(capsys, "tame", "-i", path, "--json")
    assert code == 1
    assert json.loads(out) == {
        "mode": "verify", "lyapunov": False, "taming": False, "tames_simply": False,
    }
    code, _, _ = run(capsys, "extend", "-i", path)
    assert code == 1


LYAPUNOV_NOT_TAMING = emit(zoo.example("overtwisted_loop_positive")) + (
    "value p 0\nvalue h 1/2\nvalue y 1\nvalue z 1\n"
)
TAMING_NOT_SIMPLE = emit(zoo.example("double_join_cycle")) + (
    "value p0 0\nvalue p1 0\nvalue h0 1/2\nvalue h1 1/2\nvalue z0 1\nvalue z1 1\n"
)


@pytest.mark.parametrize(
    "text, verdict, reason",
    [
        # a positive saddle fed twice by one source splits at its level
        (LYAPUNOV_NOT_TAMING, (True, False, True, True), "not taming; no extension exists"),
        # both joins of the double join at one level close a cycle
        (TAMING_NOT_SIMPLE, (True, True, False, False), "not simple; half-handles would collide"),
    ],
    ids=["lyapunov-not-taming", "taming-not-simple"],
)
def test_tame_and_extend_on_values_that_do_not_tame_simply(tmp_path, capsys, text, verdict, reason):
    # outputs pinned from the commit that read Lyapunov, taming and
    # simplicity in three separate passes
    path = write_doc(tmp_path, text)
    keys = ("lyapunov", "taming", "circle_simple", "component_simple")
    code, out, err = run(capsys, "tame", "-i", path)
    assert (code, err) == (1, "")
    yes_no = {True: "yes", False: "no"}
    assert out == "".join(f"{k}: {yes_no[v]}\n" for k, v in zip(keys, verdict)) + "tames_simply: no\n"

    code, out, err = run(capsys, "tame", "-i", path, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"mode": "verify", **dict(zip(keys, verdict)), "tames_simply": False}

    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "extend", "-i", path, *flags)
        assert (code, out, err) == (1, f"not extendable: assignment is {reason}\n", "")


def test_extend_outputs_records(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "extend", "-i", path)
    assert code == 0
    assert "zero-cell" in out and "half-handle-1" in out and "cap" in out

    code, out, _ = run(capsys, "extend", "-i", path, "--json")
    payload = json.loads(out)
    assert [r["kind"] for r in payload["records"]] == [
        "zero-cell", "zero-cell", "half-handle-1", "cap",
    ]

    loop = write_doc(tmp_path, emit(zoo.example("overtwisted_loop_positive")), "l.fol")
    code, out, _ = run(capsys, "extend", "-i", loop)
    assert code == 1 and "no simple taming order" in out


def test_oracle_command(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "oracle", "-i", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tight"] is True and payload["order"] == ["h"]

    cyc = write_doc(tmp_path, emit(zoo.example("double_join_cycle")), "c.fol")
    code, out, _ = run(capsys, "oracle", "-i", cyc)
    assert code == 1 and "tight: no" in out

    conn = write_doc(tmp_path, emit(zoo.example("tight_saddle_connection")), "h.fol")
    code, _, err = run(capsys, "oracle", "-i", conn)
    assert code == 2 and "connection-free" in err


# a sphere with a degenerate two-slot point, which no kind of the model allows
CORNER_DOCUMENT = (
    "foliation v1\n"
    "point b elliptic +\n"
    "point h corner 0\n"
    "point z elliptic -\n"
    "sep eb b h:in\n"
    "sep f1 h:out z\n"
    "rot b: eb.src\n"
    "rot h: eb.tgt f1.src\n"
    "rot z: f1.tgt\n"
)


@pytest.mark.parametrize(
    "values", ["", "value b 0\nvalue h 1/2\nvalue z 1\n"], ids=["bare", "valued"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("decide",),
        ("oracle",),
        ("tame",),
        ("tame", "--json"),
        ("extend",),
        ("validate",),
        ("invariants",),
        ("render",),
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_corner_remnants_are_refused_by_every_command_alike(tmp_path, capsys, argv, values):
    path = write_doc(tmp_path, CORNER_DOCUMENT + values)
    assert run(capsys, *argv, "-i", path) == (
        2,
        "",
        "syntax error: line 3, column 16: sign must be + or -, got '0'\n",
    )


def test_enumerate_streams_documents(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-saddles", "1")
    assert code == 0
    docs = [d for d in out.split("foliation v1") if d.strip()]
    assert len(docs) == 5
    code, out2, _ = run(capsys, "enumerate", "--max-saddles", "1")
    assert out == out2  # deterministic stream

    code, out, _ = run(capsys, "enumerate", "--max-saddles", "1", "--embryos", "--homoclinics", "--json")
    payload = json.loads(out)
    assert len(payload) == 7
    for data in payload:
        assert FoliationGraph.from_data(data).validate() == []


@pytest.mark.parametrize("bound", ["5", "-1"])
def test_enumerate_rejects_a_bound_outside_the_enumerated_range(capsys, bound):
    code, out, err = run(capsys, "enumerate", "--max-saddles", bound)
    assert (code, out, err) == (2, "", f"error: enumeration bounded to 0..4 saddles, got {bound}\n")


# sha256 of `charfol enumerate --max-saddles 3 --embryos --homoclinics`
# stdout, text and --json, taken before the sink rotations were derived from
# the source ones: they pin the representatives and their order
ENUMERATE3_GOLDEN = {
    False: "801666ff956ca22d7820f838e9f429580f110bf70037d985195dd9fc1b911adc",
    True: "33ffb40bf185497a694d2c11c5cef03f40719e597937fa819e69f63e6f103ddc",
}


@pytest.mark.parametrize("as_json", [False, True])
def test_enumerate_three_saddles_golden(capsys, as_json):
    argv = ["enumerate", "--max-saddles", "3", "--embryos", "--homoclinics"]
    code, out, _ = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE3_GOLDEN[as_json]


def test_invariants_command(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("three_basin_chain")))
    code, out, _ = run(capsys, "invariants", "-i", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["surplus"] == [1, 1]
    assert payload["basins"] == [["p0", [0]], ["p1", [1, 2]], ["p2", [3]]]
    assert payload["positive_tree"]["is_tree"] is True
    assert payload["same_sign_polygon"] is None

    loop = write_doc(tmp_path, emit(zoo.example("overtwisted_loop_positive")), "l.fol")
    code, out, _ = run(capsys, "invariants", "-i", loop)
    assert code == 0 and "same-sign polygon: faces 0" in out


def test_unknown_file_is_an_io_error(capsys):
    code, _, err = run(capsys, "decide", "-i", "/nonexistent/only/in/tests.fol")
    assert code == 2 and "io error" in err


# ----------------------------------------------------------------- rendering


def test_render_dot_structure(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "render", "-i", path, "--format", "dot")
    assert code == 0
    assert out.count('subgraph "cluster_basin_') == 2
    assert '"h" [' in out and "diamond" in out
    # unstable separatrices form the skeleton and draw heavier
    assert out.count("penwidth=2") == 2

    conn = write_doc(tmp_path, emit(zoo.example("tight_saddle_connection")), "c.fol")
    code, out, _ = run(capsys, "render", "-i", conn, "--format", "dot")
    assert code == 0 and "color=red" in out


def test_render_svg_structure(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    code, out, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert code == 0
    for pid in ("a", "b", "h", "z"):
        assert f'id="point-{pid}"' in out
    for eid in ("ea", "eb", "f0", "f1"):
        assert f'id="edge-{eid}"' in out
    code, again, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert again == out  # layout is deterministic


def test_render_svg_draws_the_bigon_with_two_arcs(tmp_path, capsys):
    path = write_doc(tmp_path, emit(zoo.example("overtwisted_loop_positive")))
    code, out, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert code == 0
    arcs = {}
    for eid in ("g0", "g1"):
        m = re.search(rf'id="edge-{eid}"[^>]*?\sd="([^"]+)"', out)
        assert m, eid
        arcs[eid] = m.group(1)
    # the two separatrices share endpoints but must not overlap
    assert arcs["g0"] != arcs["g1"]


def test_render_rejects_invalid_documents(tmp_path, capsys):
    lines = [l for l in emit(zoo.example("trivial")).splitlines() if not l.startswith("rot q")]
    path = write_doc(tmp_path, "\n".join(lines))
    code, _, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert code == 2


def test_library_render_matches_cli(tmp_path, capsys):
    g = zoo.example("trivial")
    path = write_doc(tmp_path, emit(g))
    _, out, _ = run(capsys, "render", "-i", path, "--format", "dot")
    assert out == render_dot(g)
    _, out, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert out == render_svg(g)


def test_surplus_mismatch_past_the_polygon_limit_still_decides(tmp_path, capsys):
    # the surplus proves the verdict; only the optional polygon needs the search
    rng = random.Random(22)
    g = zoo.example("overtwisted_loop_positive")
    while len(g.faces()) <= MAX_POLYGON_FACES:
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    assert point_surplus(g) != (1, 1)
    path = write_doc(tmp_path, emit(g))
    code, out, err = run(capsys, "decide", "-i", path, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "verdict": "overtwisted",
        "reason": f"point surplus {point_surplus(g)} != (1, 1)",
    }
    code, out, err = run(capsys, "invariants", "-i", path)
    assert (code, out) == (2, "")
    assert f"<= {MAX_POLYGON_FACES} faces" in err


# ---------------------------------------------------------------- one parser

COMMANDS = ("validate", "invariants", "decide", "tame", "extend", "oracle", "enumerate", "render")
HELP_ARGVS = [("--help",)] + [(name, "--help") for name in COMMANDS]

# sha256 of the texts of HELP_ARGVS joined in order at 80 columns, taken while
# every main() call built its own parser; the texts are the same on Python
# 3.10 to 3.12, and 3.13's argparse reformats options
HELP_GOLDEN = "0c2d5cf25fb57b5b9fa6f4164a6d8e7a28afc576013412a0d3561828ed73222a"


def call(capsys, argv):
    """Exit code, stdout and stderr of one main() call, ``SystemExit`` included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses == 1


def test_one_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    doc = write_doc(tmp_path, emit(zoo.example("three_basin_chain")))
    usage_error = ("decide", "-i", doc, "--format", "svg")
    argvs = [
        ("enumerate", "--max-saddles", "1"),
        ("decide", "-i", doc, "--json"),
        ("tame", "-i", doc),
        ("extend", "-i", doc),
        ("render", "-i", doc),
        usage_error,
        *HELP_ARGVS,
    ]
    shared, fresh = [], []
    for _ in range(2):
        for argv in argvs:
            shared.append(call(capsys, argv))
            with monkeypatch.context() as m:
                m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
                fresh.append(call(capsys, argv))
    assert shared == fresh
    assert cli._build_parser.cache_info().misses == 1
    first = dict(zip(argvs, shared))
    code, _, err = first[usage_error]
    assert code == 2 and "error: unrecognized arguments: --format svg" in err
    helps = [first[argv] for argv in HELP_ARGVS]
    assert all(code == 0 and err == "" for code, _, err in helps)
    if sys.version_info < (3, 13):
        text = "".join(out for _, out, _ in helps)
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_GOLDEN
