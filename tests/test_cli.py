"""End-to-end CLI: document grammar, exit codes, rendering."""

import hashlib
import json
import random
import re
import sys
import xml.dom.minidom
from collections import Counter
from fractions import Fraction

import pytest

from charfol import FoliationGraph, cli, zoo
from charfol.cli import FoliationDocument, ParseError, emit, main, parse, render_dot, render_svg
from charfol.invariants import MAX_POLYGON_FACES, is_morse_smale, point_surplus, trace_polygon
from charfol.moves import create_pair
from charfol.taming import normalized_assignment
from charfol.tightness import universe
from references import from_data
from test_moves import EMBRYO_FED_BY_SADDLE

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


def test_a_transcript_holding_a_comment_sign_round_trips():
    # "#" starts a comment, so emit escapes it inside the transcript JSON
    doc = FoliationDocument(zoo.example("trivial"), None, {"note": "step #1", "#": 1})
    text = emit(doc)
    again = parse(text)
    assert again.transcript == doc.transcript
    assert emit(again) == text and "#" not in text


def test_round_trip_on_enumerated_universe():
    for graphs in universe(2).values():
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
    ("foliation v1\npoint p elliptic +\nrot : m0.src\n", "column 5: empty point id in ':'", 3),
    ("foliation v1\nrot   :  # p\n", "column 7: empty point id in ':'", 2),
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


ONE_POINT = "foliation v1\npoint p elliptic +\n"
ONE_SADDLE = emit(zoo.example("tight_one_saddle"))


@pytest.mark.parametrize(
    "text, out, err",
    [
        (ONE_POINT + "sep e0 :s0 p\n", "", "line 3, column 8: empty point id in ':s0'"),
        (ONE_POINT + "sep e0 p h:\n", "", "line 3, column 10: empty slot in 'h:'"),
        (
            "foliation v1\nsep e0 p q marker\nsep e0 p q marker\n",
            "",
            "line 3, column 5: duplicate separatrix e0",
        ),
        (
            ONE_POINT + "rot p: m0.src\nrot p: m0.src\n",
            "",
            "line 4, column 5: duplicate rotation for p",
        ),
        (
            ONE_POINT + "rot p: m0.mid\n",
            "",
            "line 3, column 8: edge end must look like <edge-id>.src or .tgt, got 'm0.mid'",
        ),
        (
            ONE_POINT + "value p 1 2\n",
            "",
            "line 3, column 1: value line needs: point-id numerator/denominator",
        ),
        (ONE_POINT + "value p 0\nvalue p 1\n", "", "line 4, column 7: duplicate value for p"),
        (
            "foliation v1\ntranscript {}\ntranscript []\n",
            "",
            "line 3, column 1: duplicate transcript line",
        ),
        ("", "", "line 1, column 1: empty document (missing 'foliation v1' header)"),
        (
            "# only a comment\n\n",
            "",
            "line 1, column 1: empty document (missing 'foliation v1' header)",
        ),
        (
            ONE_SADDLE.replace("sep eb b h:s1", "sep eb b h:s0"),
            "invalid\n  slot h.s0 occupied 2 times\n  slot h.s1 is vacant\n",
            None,
        ),
        (ONE_SADDLE + "rot r:\n", "invalid\n  rotation for unknown point r\n", None),
        # a column names the token itself, also where its text occurs earlier
        (
            "foliation v1\npoint o elliptic +\nrot o: m0.src\nrot o: m0.src\n",
            "",
            "line 4, column 5: duplicate rotation for o",
        ),
        (
            "foliation v1\npoint e elliptic +\nvalue e 1\nvalue e 2\n",
            "",
            "line 4, column 7: duplicate value for e",
        ),
        (ONE_POINT + "value q 1/2\n", "", "line 3, column 7: value for unknown point q"),
        (
            ONE_SADDLE.replace("rot a: ea.src", "rot a: ea.src ea.src"),
            "invalid\n  point a: repeated dart in rotation\n",
            None,
        ),
    ],
    ids=[
        "empty-point-id", "empty-slot", "duplicate-separatrix", "duplicate-rotation",
        "malformed-edge-end", "value-line-length", "duplicate-value", "duplicate-transcript",
        "empty-document", "comment-only-document", "slot-occupied-twice",
        "rotation-for-unknown-point", "duplicate-rotation-for-o", "duplicate-value-for-e",
        "value-for-unknown-point", "repeated-dart",
    ],
)
def test_validate_pins_each_refusal(tmp_path, capsys, text, out, err):
    stderr = "" if err is None else f"syntax error: {err}\n"
    assert run(capsys, "validate", "-i", write_doc(tmp_path, text)) == (2, out, stderr)


def test_validate_json_reports_a_repeated_dart(tmp_path, capsys):
    text = ONE_SADDLE.replace("rot a: ea.src", "rot a: ea.src ea.src")
    code, out, err = run(capsys, "validate", "--json", "-i", write_doc(tmp_path, text))
    assert (code, err) == (2, "")
    assert json.loads(out) == {"valid": False, "problems": ["point a: repeated dart in rotation"]}


@pytest.mark.parametrize(
    "argv, text",
    [
        (("decide",), ONE_SADDLE),
        (("decide", "--json"), ONE_SADDLE),
        (("validate", "--json"), ONE_SADDLE + "rot r:\n"),
    ],
    ids=["text", "json", "invalid"],
)
def test_output_file_gets_what_stdout_gets(tmp_path, capsys, argv, text):
    path = write_doc(tmp_path, text)
    code, out, err = run(capsys, *argv, "-i", path)
    assert out and err == ""
    target = tmp_path / "report.out"
    assert run(capsys, *argv, "-i", path, "-o", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


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


def test_an_embryo_fed_by_a_saddle_gets_a_verdict(tmp_path, capsys):
    # the embryo's death keeps the saddle's u0 slot filled, so both
    # perturbations are decided, on the sphere and on its reversal
    g = parse(EMBRYO_FED_BY_SADDLE).graph
    for text in (EMBRYO_FED_BY_SADDLE, emit(g.reverse())):
        code, out, err = run(capsys, "decide", "-i", write_doc(tmp_path, text), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "tight"
    values = "value a 0\nvalue b 0\nvalue h 1/3\nvalue B 2/3\nvalue z 1\n"
    code, out, _ = run(capsys, "tame", "-i", write_doc(tmp_path, EMBRYO_FED_BY_SADDLE + values))
    assert code == 0 and "tames_simply: yes" in out.splitlines()


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
    # simplicity in three separate passes; under --json, extend refuses
    # with one JSON object that carries the reason
    path = write_doc(tmp_path, text)
    keys = ("lyapunov", "taming", "circle_simple", "component_simple")
    code, out, err = run(capsys, "tame", "-i", path)
    assert (code, err) == (1, "")
    yes_no = {True: "yes", False: "no"}
    assert out == "".join(f"{k}: {yes_no[v]}\n" for k, v in zip(keys, verdict)) + "tames_simply: no\n"

    code, out, err = run(capsys, "tame", "-i", path, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"mode": "verify", **dict(zip(keys, verdict)), "tames_simply": False}

    code, out, err = run(capsys, "extend", "-i", path)
    assert (code, out, err) == (1, f"not extendable: assignment is {reason}\n", "")
    code, out, err = run(capsys, "extend", "-i", path, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"extendable": False, "reason": f"assignment is {reason}"}


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


def test_a_rejected_fresh_decomposition_exits_3(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, emit(zoo.example("tight_one_saddle")))
    monkeypatch.setattr(cli, "verify_decomposition", lambda dec: ["forged", "twice"])
    message = "replay rejected a freshly built decomposition: forged; twice"
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "extend", "-i", path, *flags)
        assert (code, err) == (3, f"internal check failed: {message}\n")
        if flags:
            assert json.loads(out) == {"error": "internal", "message": message}
        else:
            assert out == ""


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
    message = "line 3, column 16: sign must be + or -, got '0'"
    code, out, err = run(capsys, *argv, "-i", path)
    assert (code, err) == (2, f"syntax error: {message}\n")
    if "--json" in argv:
        error = {"error": "syntax", "message": message, "line": 3, "column": 16}
        assert json.loads(out) == error
    else:
        assert out == ""


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
        assert from_data(data).validate() == []


@pytest.mark.parametrize("bound", ["5", "-1"])
def test_enumerate_rejects_a_bound_outside_the_enumerated_range(capsys, bound):
    code, out, err = run(capsys, "enumerate", "--max-saddles", bound)
    assert (code, out, err) == (2, "", f"error: enumeration bounded to 0..4 saddles, got {bound}\n")


# sha256 of `charfol enumerate --max-saddles 3 --embryos --homoclinics`
# stdout, text and --json, taken before the sink rotations were derived from
# the source ones, and again while each signature still made its own pass
# over the source rotations: they pin the representatives and their order
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


#: classes per (positive, negative) saddle signature in that output
ENUMERATE3_CLASSES = {
    (0, 0): 1, (0, 1): 2, (0, 2): 4, (0, 3): 14, (1, 0): 2,
    (1, 1): 5, (1, 2): 30, (2, 0): 4, (2, 1): 30, (3, 0): 14,
}


def test_enumerate_three_saddles_lists_its_classes_signature_by_signature(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-saddles", "3", "--embryos", "--homoclinics")
    assert code == 0
    graphs = [parse("foliation v1" + doc).graph for doc in out.split("foliation v1")[1:]]
    signatures = [
        (sum(p.sign > 0 for p in g.saddle_points()), sum(p.sign < 0 for p in g.saddle_points()))
        for g in graphs[:-4]  # the embryo and connection patterns close the stream
    ]
    assert signatures == sorted(signatures)
    assert Counter(signatures) == ENUMERATE3_CLASSES


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


def test_polygons_and_basins_build_no_faces(tmp_path, capsys, monkeypatch):
    # faces() objects are for render and for naming a bad face; the polygon
    # search, the basins and the face count read the face table
    paths = {
        name: write_doc(tmp_path, emit(zoo.example(name)), f"{name}.fol") for name in ZOO_NAMES
    }
    argvs = [("invariants", "-i", paths[name], "--json") for name in ZOO_NAMES]
    argvs += [
        ("decide", "-i", paths[name], "--json")
        for name in ("overtwisted_loop_positive", "double_join_cycle")
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def refuse(self):
        raise AssertionError("Face objects built on a polygon path")

    monkeypatch.setattr(FoliationGraph, "faces", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected


def test_unknown_file_is_an_io_error(capsys):
    code, _, err = run(capsys, "decide", "-i", "/nonexistent/only/in/tests.fol")
    assert code == 2 and "io error" in err
    code, out, err = run(capsys, "decide", "-i", "/nonexistent/only/in/tests.fol", "--json")
    assert code == 2 and err.startswith("io error: ")
    assert json.loads(out) == {"error": "io", "message": err[len("io error: ") : -1]}


def _mutate(text: str, rng: random.Random) -> str:
    """Zero to three seeded edits: a line dropped or duplicated, two rotation
    darts swapped or one deleted, a sign flipped, a kind changed, an end retargeted."""
    lines = text.splitlines()
    points = [line.split()[1] for line in lines if line.startswith("point ")]
    for _ in range(rng.randrange(4)):
        i = rng.randrange(1, len(lines))
        words = lines[i].split()
        edit = rng.choice(("drop", "duplicate", "swap", "delete", "sign", "kind", "retarget"))
        if edit == "drop" and len(lines) > 2:
            del lines[i]
            continue
        if edit == "duplicate":
            lines.insert(i, lines[i])
            continue
        if edit in ("swap", "delete") and words[0] == "rot" and len(words) > 3:
            j, k = rng.sample(range(2, len(words)), 2)
            if edit == "swap":
                words[j], words[k] = words[k], words[j]
            else:
                del words[j]
        elif edit == "sign" and words[0] == "point":
            words[3] = "-" if words[3] == "+" else "+"
        elif edit == "kind" and words[0] == "point":
            words[2] = rng.choice(("elliptic", "hyperbolic", "embryo"))
        elif edit == "retarget" and words[0] == "sep":
            j = rng.choice((2, 3))
            _, colon, slot = words[j].partition(":")
            words[j] = rng.choice(points) + colon + slot
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _mutants() -> list[str]:
    graphs = [zoo.example(name) for name in ZOO_NAMES]
    graphs += [g for gs in universe(2).values() for g in gs]
    rng = random.Random(0)
    docs = []
    for g in graphs:
        order = sorted(p.id for p in g.saddle_points())
        for k in range(14):
            # every other copy carries value lines, for the verifying walks
            values = normalized_assignment(g, order) if k % 2 else None
            docs.append(_mutate(emit(FoliationDocument(g, values)), rng))
    return docs


def test_every_command_keeps_the_json_contract_on_edited_documents(tmp_path, capsys):
    # under --json, every exit prints one JSON object: exit 2 prints the
    # invalid-document object, or a syntax or domain error object beside its
    # one line on stderr
    refusal = re.compile(r"(syntax error|error): ([^\n]*)\n")
    commands = ("validate", "invariants", "decide", "tame", "extend", "oracle")
    seen = Counter()
    for n, text in enumerate(_mutants()):
        path = write_doc(tmp_path, text, f"m{n}.fol")
        for command in commands:
            code, out, err = run(capsys, command, "-i", path, "--json")
            seen[command, code] += 1
            assert code in (0, 1, 2), (command, text, err)
            payload = json.loads(out)
            if code == 2 and err:
                match = refusal.fullmatch(err)
                assert match, (command, text, err)
                kind = "syntax" if match[1] == "syntax error" else "domain"
                where = {"line", "column"} if kind == "syntax" else set()
                assert payload["error"] == kind and payload["message"] == match[2], (command, text)
                assert set(payload) == {"error", "message"} | where, (command, text, payload)
                seen[kind] += 1
                continue
            assert isinstance(payload, dict) and err == "", (command, text)
            assert (code == 2) == (payload.get("valid") is False), (command, text, payload)
        code, out, err = run(capsys, "render", "-i", path)
        assert code in (0, 2), (text, err)
        if code == 2 and out:
            assert out.startswith("invalid\n") and err == "", (text, out, err)
        elif code == 2:
            assert refusal.fullmatch(err), (text, err)
    # every exit code of every command is reached, refusals of extend
    # included, and exit 2 prints both kinds of error object
    assert all(seen[c, 0] and seen[c, 2] for c in commands)
    assert all(seen[c, 1] for c in ("decide", "tame", "extend", "oracle"))
    assert seen["syntax"] and seen["domain"]


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


def test_render_escapes_markup_in_ids(tmp_path, capsys):
    # ids are any non-space token, so one may hold markup or a DOT escape
    odd, sink = 'p<&"x', "q\\"
    text = (
        f"foliation v1\npoint {odd} elliptic +\npoint {sink} elliptic -\n"
        f"sep m0 {odd} {sink} marker\nrot {odd}: m0.src\nrot {sink}: m0.tgt\n"
    )
    path = write_doc(tmp_path, text)
    assert run(capsys, "validate", "-i", path)[:2] == (0, "valid\n")
    code, out, _ = run(capsys, "render", "-i", path, "--format", "svg")
    assert code == 0
    svg = xml.dom.minidom.parseString(out)
    circles = [c.getAttribute("id") for c in svg.getElementsByTagName("circle")]
    assert circles == [f"point-{odd}", f"point-{sink}"]
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert labels == [f"{odd} +", f"{sink} -"]
    code, out, _ = run(capsys, "render", "-i", path, "--format", "dot")
    assert code == 0
    # every quoted string closes on its line, and the node ids read back
    quoted = r'"((?:[^"\\]|\\.)*)"'
    for line in out.splitlines():
        assert '"' not in re.sub(quoted, "", line), line
    names = [re.sub(r"\\(.)", r"\1", m) for m in re.findall(quoted + r" \[shape=", out)]
    assert names == [odd, sink]


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
    # the surplus proves the verdict; past the subset search's face limit a
    # Morse-Smale sphere's polygon comes from a cycle of its separatrix graphs
    rng = random.Random(22)
    g = zoo.example("overtwisted_loop_positive")
    while len(g.faces()) <= MAX_POLYGON_FACES:
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    assert point_surplus(g) != (1, 1) and is_morse_smale(g)
    path = write_doc(tmp_path, emit(g))
    code, out, err = run(capsys, "decide", "-i", path, "--json")
    assert (code, err) == (1, "")
    cert = json.loads(out)
    polygon = cert.pop("polygon")
    assert cert == {
        "verdict": "overtwisted",
        "reason": f"point surplus {point_surplus(g)} != (1, 1)",
    }
    assert polygon["embedded"] and polygon["same_sign"]
    assert trace_polygon(g, frozenset(polygon["faces"])).describe() == polygon
    code, out, err = run(capsys, "invariants", "-i", path, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["same_sign_polygon"] == polygon

    # a sphere with an embryo is no Morse-Smale sphere: past the limit its
    # polygon search still refuses, with exit 2
    g = zoo.example("embryo_positive")
    while len(g.faces()) <= MAX_POLYGON_FACES:
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    assert not is_morse_smale(g)
    code, out, err = run(capsys, "invariants", "-i", write_doc(tmp_path, emit(g), "e.fol"))
    assert (code, out) == (2, "")
    assert f"<= {MAX_POLYGON_FACES} faces" in err


# the first seed class of perfbench/seeds/untameable.fol: surplus (1, 1),
# and no saddle order tames it
UNTAMEABLE_CLASS_0 = """foliation v1
point h0 hyperbolic +
point h1 hyperbolic -
point p0 elliptic +
point p1 elliptic +
point z0 elliptic -
point z1 elliptic -
sep e0 p0 h0:s0
sep e1 h0:u0 z0
sep e2 p0 h0:s1
sep e3 h0:u1 z1
sep e4 p0 h1:s0
sep e5 h1:u0 z0
sep e6 p1 h1:s1
sep e7 h1:u1 z0
rot h0: e0.tgt e1.src e2.tgt e3.src
rot h1: e4.tgt e5.src e6.tgt e7.src
rot p0: e0.src e2.src e4.src
rot p1: e6.src
rot z0: e1.tgt e7.tgt e5.tgt
rot z1: e3.tgt
"""


def test_an_untameable_sphere_past_the_polygon_limit_decides_with_a_polygon(tmp_path, capsys):
    # ten create_pair steps give 12 saddles and 24 faces; synthesis fails,
    # and the polygon comes from a cycle of the separatrix graphs, where the
    # subset search refused with exit 2
    rng = random.Random(5)
    g = parse(UNTAMEABLE_CLASS_0).graph
    for _ in range(10):
        g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
    assert (len(g.saddle_points()), len(g.face_table().orbits)) == (12, 24)
    assert point_surplus(g) == (1, 1) and is_morse_smale(g)
    code, out, err = run(capsys, "decide", "-i", write_doc(tmp_path, emit(g)), "--json")
    assert (code, err) == (1, "")
    cert = json.loads(out)
    assert (cert["verdict"], cert["reason"]) == ("overtwisted", "no simple taming order exists")
    assert trace_polygon(g, frozenset(cert["polygon"]["faces"])).describe() == cert["polygon"]
    assert cert["polygon"]["embedded"] and cert["polygon"]["same_sign"]


# ---------------------------------------------------------------- one parser

COMMANDS = ("validate", "invariants", "decide", "tame", "extend", "oracle", "enumerate", "render")
HELP_ARGVS = [("--help",)] + [(name, "--help") for name in COMMANDS]

# sha256 of the texts of HELP_ARGVS joined in order at 80 columns, taken while
# every main() call built its own parser and re-taken when render lost its
# --json flag; the texts are the same on Python 3.10 to 3.12, and 3.13's
# argparse reformats options
HELP_GOLDEN = "3d4611de048d4256752182a30519b036d511ae90e7c5e7749ed848af5e89b556"


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
