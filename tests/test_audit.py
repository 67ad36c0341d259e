from __future__ import annotations

import pytest

from crossing_ledger import (
    InvariantError,
    UnsupportedK,
    associate,
    bounds_table,
    build_map,
    decompose,
    density_report,
    extract_skeleton,
    face_profiles,
    k_bound,
    overfull_triangles,
    structural_predicates,
    validate_drawing,
)
from crossing_ledger.generator import generate_optimal


def _pipeline(spec):
    dec = extract_skeleton(build_map(spec), "exact")
    pieces = decompose(dec)
    return dec, pieces, face_profiles(dec, pieces)


# -- stick cap -------------------------------------------------------------


def test_generated_family_within_cap():
    for n in (6, 10):
        _, _, profiles = _pipeline(generate_optimal(n))
        assert overfull_triangles(profiles) == []


def test_planar_input_within_cap(triangle_spec):
    _, _, profiles = _pipeline(triangle_spec)
    assert overfull_triangles(profiles) == []


def test_four_stick_triangle_flagged(four_stick_triangle_spec):
    pmap = build_map(four_stick_triangle_spec)
    assert not validate_drawing(pmap, 3).ok  # base side carries four crossings
    assert validate_drawing(pmap, 4).ok
    dec, pieces, profiles = _pipeline(four_stick_triangle_spec)
    flagged = overfull_triangles(profiles)
    assert len(flagged) == 1
    prof = next(p for p in profiles if p.face == flagged[0])
    assert sorted(prof.type_tuple, reverse=True) == [4, 0, 0]
    assert set(prof.walk_nodes) == {"v1", "v2", "v3"}


# -- association -----------------------------------------------------------


def test_association_on_generated_family():
    for n in (6, 10, 14):
        _, pieces, profiles = _pipeline(generate_optimal(n))
        result = associate(profiles, pieces)
        assert result.ok
        sources = {p.face for p in profiles if p.size == 3 and p.stick_count == 3}
        assert set(result.mapping) == sources
        targets = list(result.mapping.values())
        assert len(set(targets)) == len(targets)  # injective
        by_face = {p.face: p for p in profiles}
        for dst in targets:
            assert by_face[dst].stick_count <= 2
        # conflicts arise in every hexagon and are re-routed
        assert len(result.notes) == (n - 2) // 2


def test_association_empty_without_heavy_triangles(triangle_spec):
    _, pieces, profiles = _pipeline(triangle_spec)
    result = associate(profiles, pieces)
    assert result.ok and result.mapping == {}


def test_association_inapplicable_on_non_triangulated(far_middle_spec):
    _, pieces, profiles = _pipeline(far_middle_spec)
    result = associate(profiles, pieces)
    assert not result.applicable


def test_mutually_crossing_sticks_diagnosed(mutual_stick_triangle_spec):
    pmap = build_map(mutual_stick_triangle_spec)
    assert validate_drawing(pmap, 3).ok
    dec, pieces, profiles = _pipeline(mutual_stick_triangle_spec)
    assert len(dec.skeleton_edges) == 12
    assert all(p.size == 3 for p in profiles)
    inner = next(p for p in profiles if p.type_tuple == (1, 1, 1))
    result = associate(profiles, pieces)
    assert result.applicable and not result.ok
    diag = result.diagnoses[0]
    assert diag.kind == "optimality-violation"
    assert diag.faces == (inner.face,)


# -- density report ----------------------------------------------------------


def test_density_report_tight_on_generated():
    for n in (6, 10, 14):
        dec, pieces, profiles = _pipeline(generate_optimal(n))
        report = density_report(dec, profiles, pieces, k=3)
        assert report.ok
        assert report.bound_verdict == "tight"
        assert report.triangular_face_count == 2 * n - 4
        assert report.stick_identity_holds
        assert report.chain_applicable
        assert all(step.holds for step in report.ledger)


def test_ledger_chains_consistently():
    dec, pieces, profiles = _pipeline(generate_optimal(10))
    report = density_report(dec, profiles, pieces, k=3)
    for prev, nxt in zip(report.ledger, report.ledger[1:]):
        if prev.rhs == nxt.lhs:
            assert prev.rhs_value == nxt.lhs_value
    for step in report.ledger:
        if step.relation == "<=":
            assert step.rhs_value - step.lhs_value == step.slack


def test_density_report_on_plain_triangulation():
    # planar octahedron-like fixture: no sticks at all
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    sub_map = dec.skeleton_map  # the triangulated skeleton alone is planar
    dec2 = extract_skeleton(sub_map, "exact")
    pieces2 = decompose(dec2)
    profiles2 = face_profiles(dec2, pieces2)
    report = density_report(dec2, profiles2, pieces2, k=3)
    assert report.ok
    assert report.bound_verdict == "within"
    assert report.triangle_counts[0] == report.triangular_face_count


def test_density_report_k4_conditional():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    report = density_report(dec, pieces=pieces, profiles=profiles, k=4)
    assert report.bound_max_edges == 24
    assert report.bound_verdict == "within"
    assert report.conditional_assumptions
    assert not report.association.applicable


def test_density_report_k4_on_four_stick_fixture(four_stick_triangle_spec):
    dec, pieces, profiles = _pipeline(four_stick_triangle_spec)
    report = density_report(dec, profiles, pieces, k=4)
    # skeleton is not triangulated here, so the chain does not apply
    assert not report.chain_applicable
    assert report.bound_verdict == "within"


# -- bound table ---------------------------------------------------------------


def test_bound_values_at_twenty():
    assert k_bound(20, 1) == 72
    assert k_bound(20, 2) == 90
    assert k_bound(20, 3) == 99
    assert k_bound(20, 4) == 108


def test_bound_small_and_odd():
    assert k_bound(3, 1) == 4
    assert k_bound(7, 3) == 27  # floor of 27.5


def test_bound_below_three_vertices_is_a_typed_error():
    with pytest.raises(InvariantError) as exc:
        k_bound(2, 3)
    assert exc.value.rule == "bound-vertex-count"


def test_bound_matches_density_report_source():
    for n in (6, 10, 50, 102):
        assert k_bound(n, 3) == (11 * n - 22) // 2


def test_unsupported_k_carries_informational_estimate():
    with pytest.raises(UnsupportedK) as exc:
        k_bound(20, 9)
    assert exc.value.informational_bound == pytest.approx(4.1208 * 3 * 20)
    table = bounds_table()
    assert [e["k"] for e in table["entries"]] == [1, 2, 3, 4]
    assert "4.1208" in table["informational"]["formula"]


# -- structural predicates --------------------------------------------------------


def test_predicates_vacuous_on_generated():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    report = structural_predicates(dec, profiles, pieces)
    assert report.ok
    assert report.skeleton_connected and report.skeleton_triangulated
    assert report.faces == {}


def test_uncrossed_stick_fails_predicate(uncrossed_stick_spec):
    dec, pieces, profiles = _pipeline(uncrossed_stick_spec)
    report = structural_predicates(dec, profiles, pieces)
    assert not report.ok
    assert not report.skeleton_connected  # two vertices float off the skeleton
    failing = {
        face: [v.name for v in verdicts if not v.holds]
        for face, verdicts in report.faces.items()
    }
    assert all("sticks_crossed" in names for names in failing.values())


def test_far_middle_fails_predicate(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    report = structural_predicates(dec, profiles, pieces)
    host = next(p.host_face for p in pieces if p.kind == "middle")
    names = [v.name for v in report.faces[host] if not v.holds]
    assert "middles_short" in names


def test_stickless_face_counts(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    report = structural_predicates(dec, profiles, pieces)
    host = next(p.host_face for p in pieces if p.kind == "middle")
    verdicts = {v.name: v for v in report.faces[host]}
    # 2 of 4 non-bridges untouched is not a strict minority
    assert not verdicts["stickless_uncrossed_minority"].holds
    assert not verdicts["stick_present"].holds
