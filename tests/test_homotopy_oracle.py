"""``check_homotopy`` against the full-cut oracle in ``_homotopy_oracle``."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _homotopy_oracle as oracle

from crossing_ledger import (
    CrossingLedgerError,
    DrawingSpec,
    build_map,
    check_homotopy,
    generate_optimal,
    parse_text,
    restrict,
)

FIXTURES = (
    "triangle_spec",
    "square_diagonals_spec",
    "ladder_spec",
    "bigon_spec",
    "one_sided_parallel_spec",
    "crossing_parallel_spec",
    "lonely_loop_spec",
    "pierced_loop_spec",
    "double_crossing_spec",
    "uncrossed_stick_spec",
    "far_middle_spec",
    "four_stick_triangle_spec",
    "mutual_stick_triangle_spec",
)


def _buildable_golden_inputs() -> dict:
    maps = {}
    for path in sorted((Path(__file__).parent / "golden" / "inputs").glob("*.json")):
        try:
            maps[path.stem] = build_map(parse_text(path.read_text(encoding="utf-8")))
        except CrossingLedgerError:
            continue  # a rejected input has no map to check
    return maps


GOLDEN_INPUTS = _buildable_golden_inputs()


def _agree(pmap) -> dict:
    got = check_homotopy(pmap).to_dict()
    assert got == oracle.check_homotopy(pmap).to_dict()
    return got


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name, request):
    _agree(build_map(request.getfixturevalue(name)))


@pytest.mark.parametrize("stem", list(GOLDEN_INPUTS))
def test_golden_input(stem):
    _agree(GOLDEN_INPUTS[stem])


def test_tight_family():
    for n in range(6, 60, 2):
        assert _agree(build_map(generate_optimal(n)))["ok"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_subsets_of_tight_drawings(data):
    # Dropping edges empties regions between parallel edges, which is how
    # the generated family reaches the violation path.
    n = data.draw(st.sampled_from((6, 10, 14)))
    full = build_map(generate_optimal(n))
    subset = data.draw(st.sets(st.sampled_from(full.edge_ids)))
    _agree(restrict(full, subset))


def test_pair_crossing_once_has_three_regions(crossing_parallel_spec):
    report = _agree(build_map(crossing_parallel_spec))
    assert report["warnings"] == [
        "parallel edges e1,e2 cross each other; the closed curve is not simple "
        "(3 regions); verdict skipped"
    ]


def test_pair_crossing_twice_has_four_regions():
    # e1 and e2 weave around each other between u and v, crossing at x then y.
    spec = DrawingSpec.build(
        vertices=["u", "v"],
        edges=[("e1", "u", "v"), ("e2", "u", "v")],
        chains={"e1": ["x", "y"], "e2": ["x", "y"]},
        crossings={"x": ["e1", "e2"], "y": ["e1", "e2"]},
        rotations={
            "u": [("e1", "+"), ("e2", "+")],
            "v": [("e1", "-"), ("e2", "-")],
            "x": [("e2", "+"), ("e1", "-"), ("e2", "-"), ("e1", "+")],
            "y": [("e1", "+"), ("e2", "-"), ("e1", "-"), ("e2", "+")],
        },
    )
    report = _agree(build_map(spec))
    assert report["warnings"] == [
        "parallel edges e1,e2 cross each other; the closed curve is not simple "
        "(4 regions); verdict skipped"
    ]


def test_bundle_of_three_with_one_empty_gap():
    # Around u: e1, g1, e2, e3, g3.  The gap between e2 and e3 holds nothing.
    spec = DrawingSpec.build(
        vertices=["u", "v", "w1", "w3"],
        edges=[
            ("e1", "u", "v"),
            ("e2", "u", "v"),
            ("e3", "u", "v"),
            ("g1", "u", "w1"),
            ("g3", "u", "w3"),
        ],
        rotations={
            "u": [("e1", "+"), ("g1", "+"), ("e2", "+"), ("e3", "+"), ("g3", "+")],
            "v": [("e1", "-"), ("e3", "-"), ("e2", "-")],
            "w1": [("g1", "-")],
            "w3": [("g3", "-")],
        },
    )
    report = _agree(build_map(spec))
    assert [(v["rule"], v["subjects"]) for v in report["violations"]] == [
        ("homotopic-parallel", ["e2", "e3"])
    ]


def test_loops_reach_both_verdicts(lonely_loop_spec, pierced_loop_spec):
    assert [v["rule"] for v in _agree(build_map(lonely_loop_spec))["violations"]] == [
        "homotopic-loop"
    ]
    assert _agree(build_map(pierced_loop_spec))["ok"]
