from __future__ import annotations

import pytest

from crossing_ledger import (
    CrossingLedgerError,
    build_map,
    check_homotopy,
    check_k_planar,
    check_sanity,
    restrict,
    validate_drawing,
)
from crossing_ledger.drawing import DrawingSpec
from crossing_ledger.generator import generate_optimal


def test_planar_triangulation_passes_k3(triangle_spec):
    report = check_k_planar(build_map(triangle_spec), 3)
    assert report.ok
    assert set(report.per_edge_crossings.values()) == {0}


def test_overloaded_edge_is_named(ladder_spec):
    pmap = build_map(ladder_spec)
    report = check_k_planar(pmap, 3)
    assert not report.ok
    assert [v.subjects for v in report.violations] == [("e",)]
    assert report.per_edge_crossings["e"] == 4


def test_k_planarity_is_monotone(ladder_spec):
    pmap = build_map(ladder_spec)
    assert not check_k_planar(pmap, 3).ok
    assert check_k_planar(pmap, 4).ok
    assert check_k_planar(pmap, 5).ok


def test_generated_family_validates(square_diagonals_spec):
    for n in (6, 10, 14):
        pmap = build_map(generate_optimal(n))
        report = validate_drawing(pmap, 3)
        assert report.ok
        assert max(report.per_edge_crossings.values()) == 3


def test_empty_bigon_fails_homotopy(bigon_spec):
    report = check_homotopy(build_map(bigon_spec))
    assert not report.ok
    assert report.violations[0].rule == "homotopic-parallel"
    assert set(report.violations[0].subjects) == {"e1", "e2"}


def test_one_sided_parallel_pair_fails(one_sided_parallel_spec):
    report = check_homotopy(build_map(one_sided_parallel_spec))
    assert not report.ok
    assert report.violations[0].rule == "homotopic-parallel"


def test_inhabited_parallel_pair_passes(one_sided_parallel_spec):
    # add a second witness vertex in the empty region: rotation at u places
    # g2 between e2 and e1 (the other side)
    spec = DrawingSpec.build(
        vertices=["u", "v", "w", "x"],
        edges=[("e1", "u", "v"), ("e2", "u", "v"), ("g", "u", "w"), ("g2", "u", "x")],
        rotations={
            "u": [("e1", "+"), ("g", "+"), ("e2", "+"), ("g2", "+")],
            "v": [("e1", "-"), ("e2", "-")],
            "w": [("g", "-")],
            "x": [("g2", "-")],
        },
    )
    assert check_homotopy(build_map(spec)).ok


def test_generated_parallel_edges_are_non_homotopic():
    pmap = build_map(generate_optimal(10))
    parallel = [e for e in pmap.edge_ids if set(pmap.endpoints(e)) == {"u", "w"}]
    assert len(parallel) == 4
    assert check_homotopy(pmap).ok


def test_simple_graph_is_vacuously_fine(square_diagonals_spec):
    report = check_homotopy(build_map(square_diagonals_spec))
    assert report.ok and not report.warnings


def test_self_loop_needs_both_sides_inhabited(lonely_loop_spec):
    # loop at u with one vertex inside and none outside
    report = check_homotopy(build_map(lonely_loop_spec))
    assert not report.ok
    assert report.violations[0].rule == "homotopic-loop"

    # same loop with a witness on each side passes
    fine = DrawingSpec.build(
        vertices=["u", "w", "x"],
        edges=[("loop", "u", "u"), ("g", "u", "w"), ("h", "u", "x")],
        rotations={
            "u": [("loop", "+"), ("g", "+"), ("loop", "-"), ("h", "+")],
            "w": [("g", "-")],
            "x": [("h", "-")],
        },
    )
    assert check_homotopy(build_map(fine)).ok


def test_sanity_clean_map(triangle_spec):
    report = check_sanity(build_map(triangle_spec))
    assert report.ok and not report.warnings


def test_sanity_warns_on_double_crossing(double_crossing_spec):
    pmap = build_map(double_crossing_spec)
    report = check_sanity(pmap)
    assert report.ok  # warning, not violation
    assert any("cross each other 2 times" in w for w in report.warnings)


def test_crossing_parallel_pair_warns_instead_of_guessing(crossing_parallel_spec):
    # a parallel pair whose members cross each other once: the joint curve is
    # a figure-eight, so no two-region verdict is possible
    report = check_homotopy(build_map(crossing_parallel_spec))
    assert report.ok
    assert any("cross each other" in w for w in report.warnings)


def test_self_loop_with_a_crossing(pierced_loop_spec):
    # loop at u pierced by an ordinary edge; the loop's two sides hold w and x
    pmap = build_map(pierced_loop_spec)
    report = check_homotopy(pmap)
    assert report.ok
    assert check_k_planar(pmap, 1).ok


def test_tight_family_at_scale_passes_every_check():
    pmap = build_map(generate_optimal(802))
    for report in (check_sanity(pmap), check_homotopy(pmap), check_k_planar(pmap, 3)):
        assert report.ok and not report.warnings


def test_removing_an_edge_never_adds_violations(ladder_spec):
    pmap = build_map(ladder_spec)
    before = {v.subjects for v in validate_drawing(pmap, 3).violations}
    sub = restrict(pmap, [e for e in pmap.edge_ids if e != "h0"])
    after = {v.subjects for v in validate_drawing(sub, 3).violations}
    assert after <= before


@pytest.mark.parametrize("k", [0, -3])
def test_budget_below_one_is_a_typed_error(triangle_spec, k):
    with pytest.raises(CrossingLedgerError, match=f"positive integer; got {k}"):
        check_k_planar(build_map(triangle_spec), k)
