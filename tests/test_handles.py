"""Ball extension: record sequences, replay verification, duality."""

import dataclasses
from fractions import Fraction

import pytest

from charfol import zoo
from charfol.handles import (
    Cap,
    ExtensionError,
    HalfHandle1,
    HalfHandle2,
    HandleDecomposition,
    ZeroCell,
    extend_to_ball,
    verify_decomposition,
)
from charfol.tightness import decide_tightness

F = Fraction

FROZEN_RECORD_KINDS = {
    "trivial": ["zero-cell", "cap"],
    "tight_one_saddle": ["zero-cell", "zero-cell", "half-handle-1", "cap"],
    "tight_one_saddle_negative": ["zero-cell", "half-handle-2", "cap", "cap"],
    "embryo_positive": ["zero-cell", "embryo-step", "cap"],
    "embryo_negative": ["zero-cell", "embryo-step", "cap"],
    "three_basin_chain": [
        "zero-cell", "zero-cell", "zero-cell",
        "half-handle-1", "half-handle-1", "cap",
    ],
}


def decomposition_of(name):
    g = zoo.example(name)
    cert = decide_tightness(g)
    assert cert.tight and cert.assignment is not None
    return extend_to_ball(g, cert.assignment)


@pytest.mark.parametrize("name", sorted(FROZEN_RECORD_KINDS))
def test_record_kinds_frozen(name):
    dec = decomposition_of(name)
    assert [r.kind for r in dec.records] == FROZEN_RECORD_KINDS[name]
    assert verify_decomposition(dec) == []


def test_one_saddle_join_names_both_components():
    dec = decomposition_of("tight_one_saddle")
    join = dec.records[2]
    assert join.saddle == "h" and join.value == F(1, 2)
    assert len(set(join.components)) == 2
    assert len(set(join.circles)) == 2


def test_split_reuses_one_circle():
    dec = decomposition_of("tight_one_saddle_negative")
    split = dec.records[1]
    assert split.kind == "half-handle-2"
    assert split.saddle == "h" and split.value == F(1, 2)
    caps = [r for r in dec.records if isinstance(r, Cap)]
    assert {c.point for c in caps} == {"y", "z"}
    assert len({c.circle for c in caps}) == 2


def test_to_data_is_json_friendly():
    data = decomposition_of("tight_one_saddle").to_data()
    assert data["assignment"] == {"a": "0", "b": "0", "h": "1/2", "z": "1"}
    assert [r["kind"] for r in data["records"]] == FROZEN_RECORD_KINDS["tight_one_saddle"]


# ------------------------------------------------------------- verification


def test_verify_detects_missing_record():
    dec = decomposition_of("tight_one_saddle")
    cut = HandleDecomposition(dec.graph, dec.assignment, dec.records[:-1])
    assert any("every singular point" in p for p in verify_decomposition(cut))


def test_verify_detects_cross_level_reordering():
    dec = decomposition_of("tight_one_saddle")
    swapped = HandleDecomposition(
        dec.graph, dec.assignment, dec.records[::-1]
    )
    problems = verify_decomposition(swapped)
    assert any("out of order" in p for p in problems)


def test_verify_accepts_reordering_within_a_level():
    dec = decomposition_of("tight_one_saddle")
    records = list(dec.records)
    assert records[0].value == records[1].value == F(0)
    records[0], records[1] = records[1], records[0]
    within = HandleDecomposition(dec.graph, dec.assignment, tuple(records))
    assert verify_decomposition(within) == []


def test_verify_detects_tampered_values():
    dec = decomposition_of("tight_one_saddle")
    records = list(dec.records)
    join = records[2]
    records[2] = dataclasses.replace(join, value=F(7, 8))
    forged = HandleDecomposition(dec.graph, dec.assignment, tuple(records))
    problems = verify_decomposition(forged)
    assert any("does not replay" in p for p in problems)


def test_verify_detects_forged_components():
    dec = decomposition_of("tight_one_saddle")
    records = list(dec.records)
    join = records[2]
    records[2] = dataclasses.replace(join, components=(join.components[0],) * 2)
    forged = HandleDecomposition(dec.graph, dec.assignment, tuple(records))
    problems = verify_decomposition(forged)
    assert problems != []


def _join_as_split(join):
    return HalfHandle2(join.saddle, join.value, join.circles[0], join.components[0])


def _split_as_join(split):
    return HalfHandle1(
        split.saddle, split.value, (split.circle,) * 2, (split.component,) * 2
    )


@pytest.mark.parametrize(
    "name, index, forge, problems",
    [
        (
            "tight_one_saddle", 2, _join_as_split,
            [
                "half-handle-2 at non-splitting point h",
                "replay ends with 2 ball components",
                "replay ends with 1 open circles",
            ],
        ),
        (
            "tight_one_saddle_negative", 1, _split_as_join,
            ["half-handle-1 at non-joining point h", "state went negative at z"],
        ),
        (
            "tight_one_saddle", 3, lambda cap: dataclasses.replace(cap, circle="x:e0"),
            ["cap data for z does not replay"],
        ),
        (
            "trivial", 1, lambda cap: ZeroCell(cap.point, cap.value),
            [
                "zero-cell at non-source q",
                "replay ends with 2 ball components",
                "replay ends with 2 open circles",
            ],
        ),
        (
            "tight_one_saddle", 2, lambda join: dataclasses.replace(join, value=F(0)),
            [
                "half-handle-1 data for h does not replay",
                "half-handle-1 h: no assigned value lies below 0",
            ],
        ),
    ],
    ids=["join-as-split", "split-as-join", "cap-circle", "zero-cell-on-sink", "join-at-bottom"],
)
def test_verify_names_each_forged_record(name, index, forge, problems):
    dec = decomposition_of(name)
    records = list(dec.records)
    records[index] = forge(records[index])
    forged = HandleDecomposition(dec.graph, dec.assignment, tuple(records))
    assert verify_decomposition(forged) == problems


# ------------------------------------------------------------------- duality


@pytest.mark.parametrize("name", sorted(FROZEN_RECORD_KINDS))
def test_reversal_swaps_cells_with_caps_and_joins_with_splits(name):
    dec = decomposition_of(name)
    g = dec.graph
    dual = extend_to_ball(g.reverse(), {k: 1 - v for k, v in dec.assignment.items()})
    assert verify_decomposition(dual) == []

    def tally(d):
        out = {}
        for r in d.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    t0, t1 = tally(dec), tally(dual)
    assert t0.get("zero-cell", 0) == t1.get("cap", 0)
    assert t0.get("cap", 0) == t1.get("zero-cell", 0)
    assert t0.get("half-handle-1", 0) == t1.get("half-handle-2", 0)
    assert t0.get("half-handle-2", 0) == t1.get("half-handle-1", 0)
    assert t0.get("embryo-step", 0) == t1.get("embryo-step", 0)


# ------------------------------------------------------------------ refusals


def test_extension_needs_a_taming_assignment():
    g = zoo.example("overtwisted_loop_positive")
    a = {"p": F(0), "h": F(1, 2), "y": F(1), "z": F(1)}
    with pytest.raises(ExtensionError, match="not taming"):
        extend_to_ball(g, a)


def test_extension_needs_simplicity():
    g = zoo.example("double_join_cycle")
    a = {
        "p0": F(0), "p1": F(0),
        "h0": F(1, 2), "h1": F(1, 2),
        "z0": F(1), "z1": F(1),
    }
    with pytest.raises(ExtensionError, match="not simple"):
        extend_to_ball(g, a)
