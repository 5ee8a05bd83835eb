"""Seeded instances, the command pipeline each workload runs, and its checks.

Every command goes through ``charfol.cli.main`` in-process, with the document
on standard input and the report read back from standard output, the way a
user pipes a document file into ``charfol``.  The program only ever sees
document text; the seed stays in the benchmark.

A check that fails raises :class:`CheckFailure`, which aborts the run.  An
instance whose pipeline ends in exit code 2 (a domain error) is not wrong; it
is counted as failed.
"""

from __future__ import annotations

import importlib
import io
import json
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

HEADER = "foliation v1\n"
SEEDS = pathlib.Path(__file__).resolve().parent / "seeds"
MODULES = ("cli", "model", "invariants", "taming", "moves", "tightness", "handles", "zoo")

# fixtures that C12 and the universe survey fix as tight, free of embryos and
# connections (growth from those creates connections and branching decisions)
TIGHT_FIXTURES = ("tight_one_saddle", "tight_one_saddle_negative", "three_basin_chain")
MISMATCH_FIXTURES = ("overtwisted_loop_positive", "overtwisted_loop_negative", "double_join_cycle")
UNIVERSE_PATTERNS = ("embryo_positive", "embryo_negative", "tight_saddle_connection", "chained_saddles")
UNIVERSE_CLASSES, UNIVERSE_TIGHT = 106, 23


class CheckFailure(Exception):
    """The program gave a wrong answer or failed an internal cross-check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass
class Instance:
    name: str
    text: str
    expect: str  # "tight", "overtwisted" or "universe"
    faces: int = 0


@dataclass
class Outcome:
    instance: Instance
    steps: list = field(default_factory=list)  # (argv, exit code, stdout, stderr)
    start: float = 0.0
    end: float = 0.0

    @property
    def failed(self) -> bool:
        return any(step[1] == 2 for step in self.steps)


def load_charfol(src: pathlib.Path) -> SimpleNamespace:
    """Import charfol afresh, so that no module-level cache survives a pass."""
    for name in [n for n in sys.modules if n == "charfol" or n.startswith("charfol.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"charfol.{m}") for m in MODULES})
    origin = pathlib.Path(lib.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"charfol was imported from {origin}, not from {src}")
    return lib


def run_cli(lib, argv: tuple, text: str = "") -> tuple:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(list(argv))
    finally:
        sys.stdin = saved
    return argv, code, out.getvalue(), err.getvalue()


def split_documents(text: str) -> list[str]:
    return [HEADER + body for body in text.split(HEADER)[1:]]


def value_lines(assignment: dict) -> str:
    return "".join(f"value {pid} {value}\n" for pid, value in sorted(assignment.items()))


# ------------------------------------------------------------------ set-up


def _seed_graphs(lib, name: str) -> list:
    text = (SEEDS / f"{name}.fol").read_text(encoding="utf-8")
    return [lib.cli.parse(doc).graph for doc in split_documents(text)]


def _add_pair(lib, g, rng: random.Random):
    """One step of the walk: ``create_pair`` in a random face with a random sign."""
    return lib.moves.create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph


def _grow(lib, g, rng: random.Random, done):
    while not done(g):
        g = _add_pair(lib, g, rng)
    return g


def _instance(lib, name: str, g, expect: str) -> Instance:
    return Instance(name, lib.cli.emit(g), expect, len(g.faces()))


# Sizes of the grown instances.  Tight spheres without connections have two
# faces per saddle.  Faces above 20 hit the polygon search's limit (exit 2).
# The cost of one instance depends on its random walk (by a factor of two at
# one size, far more for an early-exit polygon search), so each workload
# repeats one middle size: the pass time averages over many walks and the
# median instance falls inside that block.  A pass is sized to take about
# 5 to 10 s, so that a 25 s run makes two or three passes.
TIGHT_SADDLES = (10, 12) + (14,) * 20 + (16, 18)
UNTAMEABLE_PAIRS = ((3, 3, 3, 3, 2), (3, 3, 3, 3, 4))  # alternating over the 13 classes
MISMATCH_FACES = (8, 10, 12, 14)
MISMATCH_FACES_OVER = (22, 26)
REPORT_TIGHT_FACES = (12,) + (14,) * 8 + (16,)
REPORT_OVERTWISTED_FACES = (8, 12, 16)
REPORT_TIGHT_FACES_OVER = (22, 24)


def setup_universe3(lib, rng):
    return []


def setup_tight_growth(lib, rng):
    pool = [lib.zoo.example(n) for n in TIGHT_FIXTURES] + _seed_graphs(lib, "tight")
    out = []
    for target in TIGHT_SADDLES:
        g = _grow(lib, rng.choice(pool), rng, lambda h: len(h.saddle_points()) >= target)
        out.append(_instance(lib, f"tight/{target}", g, "tight"))
    return out


def setup_overtwisted_growth(lib, rng):
    out = []
    for i, start in enumerate(_seed_graphs(lib, "untameable")):
        for pairs in UNTAMEABLE_PAIRS[i % 2]:
            g = start
            for _ in range(pairs):
                g = _add_pair(lib, g, rng)
            out.append(_instance(lib, f"untameable{i}+{pairs}", g, "overtwisted"))
    mismatch = [lib.zoo.example(n) for n in MISMATCH_FIXTURES]
    for faces in MISMATCH_FACES + MISMATCH_FACES_OVER:
        for name, start in zip(MISMATCH_FIXTURES, mismatch):
            g = _grow(lib, start, rng, lambda h: len(h.faces()) >= faces)
            out.append(_instance(lib, f"{name}/{faces}", g, "overtwisted"))
    return out


def setup_invariants_report(lib, rng):
    tight = [lib.zoo.example(n) for n in TIGHT_FIXTURES] + _seed_graphs(lib, "tight")
    overtwisted = [lib.zoo.example(n) for n in MISMATCH_FIXTURES] + _seed_graphs(lib, "untameable")
    out = []
    for faces in REPORT_TIGHT_FACES + REPORT_TIGHT_FACES_OVER:
        g = _grow(lib, rng.choice(tight), rng, lambda h: len(h.faces()) >= faces)
        out.append(_instance(lib, f"tight/{faces}", g, "tight"))
    for faces in REPORT_OVERTWISTED_FACES:
        g = _grow(lib, rng.choice(overtwisted), rng, lambda h: len(h.faces()) >= faces)
        out.append(_instance(lib, f"overtwisted/{faces}", g, "overtwisted"))
    return out


# ---------------------------------------------------------------- pipelines


def _decide(lib, outcome: Outcome, text: str) -> dict | None:
    step = run_cli(lib, ("decide", "--json"), text)
    outcome.steps.append(step)
    return json.loads(step[2]) if step[1] in (0, 1) else None


def _extend(lib, outcome: Outcome, text: str, cert: dict) -> None:
    if cert and cert["verdict"] == "tight" and "assignment" in cert:
        outcome.steps.append(
            run_cli(lib, ("extend", "--json"), text + value_lines(cert["assignment"]))
        )


def pipe_universe(lib, outcome: Outcome) -> None:
    text = outcome.instance.text
    cert = _decide(lib, outcome, text)
    if cert is None:
        return
    if " homoclinic" not in text:
        outcome.steps.append(run_cli(lib, ("oracle", "--json"), text))
    _extend(lib, outcome, text, cert)


def pipe_tight_growth(lib, outcome: Outcome) -> None:
    text = outcome.instance.text
    _extend(lib, outcome, text, _decide(lib, outcome, text))


def pipe_decide(lib, outcome: Outcome) -> None:
    _decide(lib, outcome, outcome.instance.text)


def pipe_invariants(lib, outcome: Outcome) -> None:
    outcome.steps.append(run_cli(lib, ("invariants", "--json"), outcome.instance.text))


ENUMERATE = ("enumerate", "--max-saddles", "3", "--embryos", "--homoclinics")


def universe_instances(lib, step, seed: int) -> list[Instance]:
    """The enumerated documents, in an order drawn from the seed."""
    require(step[1] == 0, f"enumerate exited {step[1]}: {step[3].strip()}")
    docs = split_documents(step[2])
    instances = [Instance(f"universe/{i}", doc, "universe") for i, doc in enumerate(docs)]
    random.Random(f"universe3/{seed}").shuffle(instances)
    return instances


# ------------------------------------------------------------------ checks


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True)


def check_polygon(lib, g, cert: dict, where: str) -> None:
    """Re-trace an overtwistedness polygon on the graph it was found on."""
    if "resolved_connection" in cert:
        eid = cert["resolved_connection"]
        i = next(i for i, b in enumerate(cert["branches"]) if b["verdict"] == "overtwisted")
        e = g.edges[eid]
        embryo = next(
            (p for p in (e.src.point, e.dst.point) if g.points[p].kind == "embryo"), None
        )
        if embryo is not None:
            moves = (lib.moves.eliminate_embryo, lib.moves.resolve_embryo)
            branch = moves[i](g, embryo).graph
        else:
            branch = lib.moves.resolve_connection(g, eid, ("left", "right")[i]).graph
        check_polygon(lib, branch, cert["branches"][i], where)
        return
    desc = cert.get("polygon")
    if desc is None:
        return
    poly = lib.invariants.trace_polygon(g, frozenset(desc["faces"]))
    require(poly is not None, f"{where}: polygon faces {desc['faces']} are not a disc")
    require(poly.embedded and poly.same_sign, f"{where}: polygon is not embedded and same-sign")
    require(
        canonical_json(poly.describe()) == canonical_json(desc),
        f"{where}: re-traced polygon differs from the certificate",
    )


def check_outcome(lib, outcome: Outcome) -> None:
    inst = outcome.instance
    where = inst.name
    for argv, code, out, err in outcome.steps:
        require(code != 3, f"{where}: {argv[0]} failed its internal check: {err.strip()}")
        require(code in (0, 1, 2), f"{where}: {argv[0]} exited {code}")
    if outcome.failed:
        return
    g = lib.cli.parse(inst.text).graph
    by_command = {argv[0]: (code, out) for argv, code, out, _ in outcome.steps}
    if "decide" in by_command:
        code, out = by_command["decide"]
        cert = json.loads(out)
        require(code == (0 if cert["verdict"] == "tight" else 1), f"{where}: decide exit {code}")
        if inst.expect != "universe":
            require(cert["verdict"] == inst.expect, f"{where}: verdict {cert['verdict']}, seed is {inst.expect}")
        if cert["verdict"] == "overtwisted":
            check_polygon(lib, g, cert, where)
        if "oracle" in by_command:
            oracle = json.loads(by_command["oracle"][1])
            require(oracle["tight"] == (cert["verdict"] == "tight"), f"{where}: decide and oracle disagree")
        if "assignment" in cert:
            require(by_command.get("extend", (None,))[0] == 0, f"{where}: extend did not exit 0")
    if "invariants" in by_command:
        report = json.loads(by_command["invariants"][1])
        require(report["faces"] == inst.faces, f"{where}: {report['faces']} faces, expected {inst.faces}")
        polygon = report["same_sign_polygon"]
        if inst.expect == "tight":
            require(report["surplus"] == [1, 1], f"{where}: tight sphere with surplus {report['surplus']}")
            require(polygon is None, f"{where}: same-sign polygon on a tight sphere")
        elif polygon is not None:
            check_polygon(lib, g, {"polygon": polygon}, where)


def check_universe(lib, outcomes: list[Outcome]) -> None:
    """The frozen universe counts: 106 classes, 23 tight, four zoo patterns."""
    ordered = sorted(outcomes, key=lambda o: int(o.instance.name.split("/")[1]))
    require(
        len(ordered) == UNIVERSE_CLASSES + len(UNIVERSE_PATTERNS),
        f"enumerate printed {len(ordered)} documents",
    )
    classes, patterns = ordered[:UNIVERSE_CLASSES], ordered[UNIVERSE_CLASSES:]
    graphs = [lib.cli.parse(o.instance.text).graph for o in classes]
    require(
        len({g.canonical_form() for g in graphs}) == UNIVERSE_CLASSES,
        "enumerated classes are not pairwise non-isomorphic",
    )
    require(
        not any(g.homoclinic_edges() or g.points_of_kind("embryo") for g in graphs),
        "a saddle class carries an embryo or a connection",
    )
    tight = sum(json.loads(o.steps[0][2])["verdict"] == "tight" for o in classes if not o.failed)
    require(tight == UNIVERSE_TIGHT, f"{tight} tight classes, expected {UNIVERSE_TIGHT}")
    for o, name in zip(patterns, UNIVERSE_PATTERNS):
        g = lib.cli.parse(o.instance.text).graph
        require(g.is_isomorphic(lib.zoo.example(name)), f"enumerate does not end with {name}")


SETUP = {
    "universe3": setup_universe3,
    "tight_growth": setup_tight_growth,
    "overtwisted_growth": setup_overtwisted_growth,
    "invariants_report": setup_invariants_report,
}
PIPELINE = {
    "universe3": pipe_universe,
    "tight_growth": pipe_tight_growth,
    "overtwisted_growth": pipe_decide,
    "invariants_report": pipe_invariants,
}
