"""Validation counts corners on the face table; the face-building check
it replaced is the reference.

``reference_check`` is ``FoliationGraph._check`` as it read when the face
rule traced every face to count its corners, with the faces traced by
``references.TupleReference``.  ``validate()``
must return exactly its problem list, message by message and in order, on
every graph below: the <=3-saddle universe and its reversals, the zoo, the
seeded walks, every enumeration candidate at <=3 saddles, and systematic
corruptions of them (each adjacent transposition in each rotation, the
rotation edits of :func:`rotation_edits`, each sign flipped, each marker
flag flipped, each edge dropped).
"""

import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from charfol import FoliationGraph, GraphError, SingularPoint, zoo
from charfol import tightness
from charfol.cli import emit
from charfol.model import EMBRYO, HYPERBOLIC, HYPERBOLIC_SLOTS, Dart, end_direction
from references import TupleReference, relabel, without_edge


def reference_check(self: FoliationGraph) -> list[str]:
    """The face-building check, as ``FoliationGraph._check`` read before it
    counted corners on the dart table."""
    problems: list[str] = []
    for pid, p in self.points.items():
        if pid != p.id:
            problems.append(f"point key {pid} != id {p.id}")
    for eid, e in self.edges.items():
        if eid != e.id:
            problems.append(f"edge key {eid} != id {e.id}")
        for ref in (e.src, e.dst):
            if ref.point not in self.points:
                problems.append(f"edge {eid}: unknown point {ref.point}")
    if problems:
        return problems

    # end directions and slot discipline
    for eid, e in self.edges.items():
        try:
            d_src = end_direction(self.points[e.src.point], e.src.slot)
            d_dst = end_direction(self.points[e.dst.point], e.dst.slot)
        except GraphError as exc:
            problems.append(f"edge {eid}: {exc}")
            continue
        if d_src != "out":
            problems.append(f"edge {eid}: src end sits in an absorbing slot")
        if d_dst != "in":
            problems.append(f"edge {eid}: dst end sits in an emitting slot")
        free = {None, "zone"}
        if e.marker and not (e.src.slot in free and e.dst.slot in free):
            problems.append(f"edge {eid}: marker leaves may not occupy named slots")
        if not e.marker and e.src.slot in free and e.dst.slot in free:
            problems.append(f"edge {eid}: slot-free edge must be a marker leaf")

    # named slots occupied exactly once, with the full complement present
    occupancy: dict[tuple[str, str], int] = {}
    for e in self.edges.values():
        for ref in (e.src, e.dst):
            if ref.slot not in (None, "zone"):
                occupancy[(ref.point, ref.slot)] = occupancy.get((ref.point, ref.slot), 0) + 1
    for (pid, slot), n in occupancy.items():
        if n > 1:
            problems.append(f"slot {pid}.{slot} occupied {n} times")
    for pid, p in self.points.items():
        if p.kind == HYPERBOLIC:
            needed = HYPERBOLIC_SLOTS
        elif p.kind == EMBRYO:
            needed = ("in" if p.sign > 0 else "out", "b0", "b1")
        else:
            needed = ()
        for slot in needed:
            if (pid, slot) not in occupancy:
                problems.append(f"slot {pid}.{slot} is vacant")
    if problems:
        return problems

    # rotation tuples are exactly the incident darts, each point nonempty
    incident: dict[str, set[Dart]] = {pid: set() for pid in self.points}
    for eid, e in self.edges.items():
        incident[e.src.point].add((eid, "src"))
        incident[e.dst.point].add((eid, "tgt"))
    for pid in self.points:
        seq = self.rotation.get(pid)
        if seq is None:
            problems.append(f"point {pid}: missing rotation")
            continue
        if len(set(seq)) != len(seq):
            problems.append(f"point {pid}: repeated dart in rotation")
        if set(seq) != incident[pid]:
            problems.append(f"point {pid}: rotation does not list its incident ends")
        if not seq:
            problems.append(f"point {pid}: isolated (no incident ends)")
    for pid in self.rotation:
        if pid not in self.points:
            problems.append(f"rotation for unknown point {pid}")
    if problems:
        return problems

    # local cyclic patterns at saddle-type points
    for pid, p in self.points.items():
        seq = self.rotation[pid]
        slots = [self.dart_slot(d) for d in seq]
        if p.kind == HYPERBOLIC:
            if len(seq) != 4:
                problems.append(f"hyperbolic {pid}: degree {len(seq)} != 4")
                continue
            rolled = [
                tuple(slots[(i + k) % 4] for k in range(4)) for i in range(4)
            ]
            if tuple(HYPERBOLIC_SLOTS) not in rolled:
                problems.append(f"hyperbolic {pid}: rotation must read s0,u0,s1,u1")
        elif p.kind == EMBRYO:
            anchor = "in" if p.sign > 0 else "out"
            if anchor not in slots:
                problems.append(f"embryo {pid}: missing {anchor} end")
                continue
            i = slots.index(anchor)
            rolled = [slots[(i + k) % len(slots)] for k in range(len(slots))]
            ok = (
                len(rolled) >= 3
                and rolled[0] == anchor
                and rolled[1] == "b0"
                and rolled[-1] == "b1"
                and all(s == "zone" for s in rolled[2:-1])
            )
            if not ok:
                problems.append(
                    f"embryo {pid}: rotation must read {anchor},b0,zone...,b1"
                )
        else:
            if any(s is not None for s in slots):
                problems.append(f"elliptic {pid}: ends must be slot-free")
    if problems:
        return problems

    # connectivity; the rotation checks above make the rotation system a
    # permutation of the darts, so the dart table builds
    if self.points:
        _, index, _, _, point = self.dart_table()
        seen = {next(iter(sorted(self.points)))}
        frontier = list(seen)
        while frontier:
            pid = frontier.pop()
            for d in self.rotation[pid]:
                q = point[index[d] ^ 1]
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        if seen != set(self.points):
            problems.append("graph is not connected")
    if problems:
        return problems

    # sphere closure and flow-coherent faces
    faces = TupleReference(self).faces()
    euler = len(self.points) - len(self.edges) + len(faces)
    if euler != 2:
        problems.append(f"Euler count V-E+F = {euler} != 2 (not a sphere)")
    for f in faces:
        ns, nk = len(f.corners_of("source")), len(f.corners_of("sink"))
        if (ns, nk) != (1, 1):
            problems.append(
                f"face {f.index}: {ns} source / {nk} sink corners (need 1/1)"
            )
    return problems


def _copy(g: FoliationGraph) -> FoliationGraph:
    """The same graph with empty caches."""
    return FoliationGraph(g.points, g.edges, g.rotation)


def rotation_edits(g: FoliationGraph):
    """For each point: its first dart listed twice, its first dart dropped,
    its first dart listed again in place of its second, its first dart
    moved into the next point's rotation, its first dart swapped with the
    next point's first dart, each of its darts replaced by a dart of an
    unknown edge, its rotation deleted and its rotation emptied; and one
    rotation for an unknown point."""
    rotation = g.rotation
    pids = list(rotation)
    for k, pid in enumerate(pids):
        seq = rotation[pid]
        if seq:
            yield {**rotation, pid: seq + seq[:1]}
            yield {**rotation, pid: seq[1:]}
            if len(seq) > 1:
                yield {**rotation, pid: seq[:1] + seq[:1] + seq[2:]}
            nxt = pids[(k + 1) % len(pids)]
            theirs = rotation[nxt]
            if nxt != pid:
                yield {**rotation, pid: seq[1:], nxt: theirs + seq[:1]}
                if theirs:
                    yield {**rotation, pid: theirs[:1] + seq[1:], nxt: seq[:1] + theirs[1:]}
        for j in range(len(seq)):
            yield {**rotation, pid: seq[:j] + (("no such edge", "src"),) + seq[j + 1 :]}
        yield {q: v for q, v in rotation.items() if q != pid}
        yield {**rotation, pid: ()}
    yield {**rotation, "no such point": ()}


def corruptions(g: FoliationGraph):
    """Each adjacent transposition in each rotation, each rotation edit of
    :func:`rotation_edits`, each sign flipped, each marker flag flipped and
    each edge dropped, one at a time."""
    for pid, seq in g.rotation.items():
        if len(seq) < 2:
            continue
        for i in range(len(seq)):
            j = (i + 1) % len(seq)
            swapped = list(seq)
            swapped[i], swapped[j] = seq[j], seq[i]
            yield FoliationGraph(g.points, g.edges, {**g.rotation, pid: swapped})
    for rotation in rotation_edits(g):
        yield FoliationGraph(g.points, g.edges, rotation)
    for pid, p in g.points.items():
        flipped = SingularPoint(pid, p.kind, -p.sign)
        yield FoliationGraph({**g.points, pid: flipped}, g.edges, g.rotation)
    for eid, e in g.edges.items():
        toggled = replace(e, marker=not e.marker)
        yield FoliationGraph(g.points, {**g.edges, eid: toggled}, g.rotation)
        yield without_edge(g, eid)


@pytest.fixture(scope="module")
def valid_graphs(universe_list, walked_spheres):
    graphs = list(universe_list) + [g.reverse() for g in universe_list]
    graphs += [zoo.example(name) for name in sorted(zoo.ZOO)]
    graphs += [g for _, g in walked_spheres]
    return graphs


@pytest.fixture(scope="module")
def accepted_rotation_systems():
    """The graph that enumerate_signature assembles and validates for each
    rotation system that passes its filter at <=3 saddles."""
    built = []
    assemble = tightness._assemble
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tightness, "_assemble", lambda *args: built.append(assemble(*args)) or built[-1])
        for saddles in range(1, 4):
            tightness.enumerate_signature(saddles)
    return built


def signings(g: FoliationGraph) -> list[FoliationGraph]:
    """Each signed copy of an assembled candidate, made as enumerate_signature
    makes it, with empty caches."""
    return [
        FoliationGraph({**g.points, **signing}, g.edges, g.rotation)
        for signing in tightness._signings(len(g.edges) // 4)
    ]


@pytest.fixture(scope="module")
def enumeration_candidates(accepted_rotation_systems):
    """Every signed candidate that enumerate_signature reads at <=3 saddles:
    each signing of each accepted rotation system."""
    return [signed for g in accepted_rotation_systems for signed in signings(g)]


def test_validate_matches_the_face_building_check_on_valid_graphs(valid_graphs):
    for g in valid_graphs:
        assert _copy(g).validate() == reference_check(_copy(g)) == []


def test_validate_matches_the_face_building_check_on_enumeration_candidates(
    enumeration_candidates,
):
    assert len(enumeration_candidates) == 1786
    for g in enumeration_candidates:
        assert g.validate() == reference_check(_copy(g)) == []


def test_every_signing_reads_as_the_validated_one(accepted_rotation_systems):
    # the lemma behind enumerate_signature's one pass over the rotations: the
    # signing that was validated speaks for all, since validity, the dart
    # table and the face walk read no saddle's sign
    assert len(accepted_rotation_systems) == 2 + 18 + 432  # 1786 signed candidates
    for g in accepted_rotation_systems:
        assert g.validate() == []
        copies = signings(g)
        n = len(g.edges) // 4
        assert [sum(p.sign > 0 for p in c.saddle_points()) for c in copies] == list(range(n + 1))
        for signed in copies:
            assert signed.validate() == reference_check(_copy(signed)) == []
            assert signed.dart_table() == g.dart_table()
            assert signed.face_table() == g.face_table()


#: the first message of each stage of the check after the key check
STAGES = {
    "end directions": re.compile(r"edge \S+: "),
    "slot occupancy": re.compile(r"slot "),
    "rotation lists": re.compile(r"point \S+: |rotation for unknown point"),
    "local patterns": re.compile(r"(hyperbolic|embryo|elliptic) \S+: "),
    "connectivity": re.compile(r"graph is not connected$"),
    "Euler count": re.compile(r"Euler count "),
    "face corners": re.compile(r"face \d+: "),
}


#: every message of the stage that reads the rotation system
ROTATION_MESSAGES = [
    re.compile(r"^point \S+: missing rotation$"),
    re.compile(r"^point \S+: repeated dart in rotation$"),
    re.compile(r"^point \S+: rotation does not list its incident ends$"),
    re.compile(r"^point \S+: isolated \(no incident ends\)$"),
    re.compile(r"^rotation for unknown point "),
]


def _stages_reached(problem_lists) -> set[str]:
    return {
        stage
        for problems in problem_lists
        for msg in problems
        for stage, pattern in STAGES.items()
        if pattern.match(msg)
    }


def test_validate_matches_the_face_building_check_on_corruptions(valid_graphs):
    problem_lists = []
    for g in valid_graphs:
        for bad in corruptions(g):
            problems = bad.validate()
            assert problems == reference_check(_copy(bad))
            problem_lists.append(problems)
    # a sphere next to a relabelled copy of itself is the one graph here
    # that only the connectivity check rejects
    for name in sorted(zoo.ZOO):
        g = zoo.example(name)
        twin = relabel(g, {p: f"{p}'" for p in g.points}, {e: f"{e}'" for e in g.edges})
        pair = FoliationGraph(
            {**g.points, **twin.points}, {**g.edges, **twin.edges}, {**g.rotation, **twin.rotation}
        )
        assert pair.validate() == reference_check(_copy(pair)) == ["graph is not connected"]
        problem_lists.append(pair.validate())
    # most corruptions break the sphere (a saddle's sign flip does not),
    # and between them they reach every stage of the check
    assert sum(not problems for problems in problem_lists) < len(problem_lists) // 10
    assert _stages_reached(problem_lists) == set(STAGES)
    # and the rotation edits reach every message of the rotation stage
    reached = {msg for problems in problem_lists for msg in problems}
    for message in ROTATION_MESSAGES:
        assert any(message.search(msg) for msg in reached), message.pattern


def test_a_bad_face_is_named_by_its_index_among_faces():
    # swapping the last two leaves at the sink of the three-basin chain
    # keeps slots and rotations well formed and merges three faces into one
    g = zoo.example("three_basin_chain")
    swapped = [("u0", "tgt"), ("u1", "tgt"), ("v0", "tgt"), ("v1", "tgt")]
    assert list(g.rotation["z"]) == swapped[:2] + swapped[:1:-1]
    bad = FoliationGraph(g.points, g.edges, {**g.rotation, "z": swapped})
    assert bad.validate() == [
        "Euler count V-E+F = 0 != 2 (not a sphere)",
        "face 1: 3 source / 3 sink corners (need 1/1)",
    ]
    faces = TupleReference(bad).faces()
    assert [(len(f.corners_of("source")), len(f.corners_of("sink"))) for f in faces] == [
        (1, 1),
        (3, 3),
    ]
    # the face table names no corner of a face that is no flow box
    table = bad.face_table()
    assert [s >= 0 for s in table.source] == [s >= 0 for s in table.sink] == [True, False]


def test_vacant_slots_are_reported_in_one_order_under_every_hash_seed(tmp_path):
    # the one-saddle sphere with the saddle's two stable leaves dropped
    lines = emit(zoo.example("tight_one_saddle")).splitlines()
    doc = tmp_path / "vacant.fol"
    doc.write_text("\n".join(l for l in lines if not l.startswith(("sep ea ", "sep eb "))) + "\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "charfol.cli", "validate", "-i", str(doc)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == (2, "invalid\n  slot h.s0 is vacant\n  slot h.s1 is vacant\n", "")
    assert runs[1] == runs[0] and runs[2] == runs[0]
