from __future__ import annotations

import re
from fractions import Fraction

import pytest

import _fixtures
from _ledger_oracle import checked_report
from golden.capture import FIXTURES

from crossing_ledger import (
    BudgetExceeded,
    CrossingLedgerError,
    InvariantError,
    UnsupportedK,
    build_map,
    decompose,
    density_report,
    extract_skeleton,
    face_profiles,
    k_bound,
    restrict,
    validate_drawing,
)
from crossing_ledger.errors import BadArgument
from crossing_ledger.generator import generate_optimal


def _pipeline(spec):
    dec = extract_skeleton(build_map(spec), "exact")
    pieces = decompose(dec)
    return dec, pieces, face_profiles(dec, pieces)


# -- stick cap -------------------------------------------------------------


def test_generated_family_within_cap():
    for n in (6, 10):
        dec, pieces, profiles = _pipeline(generate_optimal(n))
        assert density_report(dec, profiles, pieces, 3).stick_cap_violations == ()


def test_planar_input_within_cap(triangle_spec):
    dec, pieces, profiles = _pipeline(triangle_spec)
    assert density_report(dec, profiles, pieces, 3).stick_cap_violations == ()


def test_four_stick_triangle_flagged(four_stick_triangle_spec):
    pmap = build_map(four_stick_triangle_spec)
    assert not validate_drawing(pmap, 3).ok  # base side carries four crossings
    assert validate_drawing(pmap, 4).ok
    dec, pieces, profiles = _pipeline(four_stick_triangle_spec)
    flagged = density_report(dec, profiles, pieces, 3).stick_cap_violations
    assert len(flagged) == 1
    prof = next(p for p in profiles if p.face == flagged[0])
    assert sorted(prof.type_tuple, reverse=True) == [4, 0, 0]
    assert set(prof.walk_nodes) == {"v1", "v2", "v3"}


# -- association -----------------------------------------------------------


def test_association_on_generated_family():
    for n in (6, 10, 14):
        dec, pieces, profiles = _pipeline(generate_optimal(n))
        result = density_report(dec, profiles, pieces).association
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
    dec, pieces, profiles = _pipeline(triangle_spec)
    result = density_report(dec, profiles, pieces).association
    assert result.ok and result.mapping == {}


def test_association_inapplicable_on_non_triangulated(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    result = density_report(dec, profiles, pieces).association
    assert not result.applicable


def test_mutually_crossing_sticks_diagnosed(mutual_stick_triangle_spec):
    pmap = build_map(mutual_stick_triangle_spec)
    assert validate_drawing(pmap, 3).ok
    dec, pieces, profiles = _pipeline(mutual_stick_triangle_spec)
    assert len(dec.skeleton_edges) == 12
    assert all(p.size == 3 for p in profiles)
    inner = next(p for p in profiles if p.type_tuple == (1, 1, 1))
    result = density_report(dec, profiles, pieces).association
    assert result.applicable and not result.ok
    diag = result.diagnoses[0]
    assert diag.kind == "optimality-violation"
    assert diag.faces == (inner.face,)


def test_a_piece_the_audit_reads_must_be_given(far_middle_spec):
    # The audit reads pieces by the ids its profiles name, so it takes only
    # the pieces that decompose(dec) returned and the profiles that
    # face_profiles(dec, pieces) returned; anything else is one typed error
    # that names the stage whose output was expected.
    pieces_of = re.escape("pieces must be what decompose(dec) returned for this decomposition")
    profiles_of = re.escape(
        "profiles must be what face_profiles(dec, pieces) returned for these pieces"
    )
    for spec in (generate_optimal(6), far_middle_spec):
        dec, pieces, profiles = _pipeline(spec)
        first = pieces[0].piece_id
        for wrong in ([], [p for p in pieces if p.piece_id != first], list(pieces)):
            with pytest.raises(BadArgument, match=pieces_of):
                density_report(dec, profiles, wrong, 3)
        # Equal pieces cut again are another result: the profiles are not theirs.
        again = decompose(dec)
        assert again == pieces
        with pytest.raises(BadArgument, match=profiles_of):
            density_report(dec, profiles, again, 3)
        for wrong in (face_profiles(dec, again), list(profiles)):
            with pytest.raises(BadArgument, match=profiles_of):
                density_report(dec, wrong, pieces, 3)
        # Another decomposition of the same map owns neither.
        other = extract_skeleton(dec.full_map, "exact")
        with pytest.raises(BadArgument, match=pieces_of):
            density_report(other, profiles, pieces, 3)


# -- density report ----------------------------------------------------------


def test_density_report_tight_on_generated():
    for n in (6, 10, 14):
        dec, pieces, profiles = _pipeline(generate_optimal(n))
        report = density_report(dec, profiles, pieces, k=3)
        assert report.ok
        assert report.bound_verdict == "tight"
        assert report.triangular_face_count == 2 * n - 4
        assert report.ledger.verdict == "certified"
        assert report.ledger.uncertified == ()
        assert [row.slack for row in report.ledger.faces] == [0]
        assert report.ledger.components_budget == 0


def test_ledger_rows_add_up():
    dec, pieces, profiles = _pipeline(generate_optimal(10))
    ledger = density_report(dec, profiles, pieces, k=3).ledger
    # 16 triangles: 8 with three sticks, 8 with two, 5/4 budget each.
    assert ledger.faces == ((3, 16, Fraction(20), Fraction(20), Fraction(0)),)
    assert ledger.to_dict() == {
        "faces": [{"size": 3, "count": 16, "charge": "20", "budget": "20", "slack": "0"}],
        "components": {"skeleton": 1, "drawing": 1, "budget": "0"},
        "uncertified": [],
        "verdict": "certified",
    }


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [6, 10, 14, 54])
def test_ledger_oracle_on_tight_family(n, k):
    report = checked_report(build_map(generate_optimal(n)), k)
    assert report.ledger.verdict == "certified"


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("name", [
    name for name in FIXTURES if len(getattr(_fixtures, name)().vertices) >= 3
])
def test_ledger_oracle_on_golden_inputs(name, k):
    try:
        checked_report(build_map(getattr(_fixtures, name)()), k)
    except BudgetExceeded:
        pytest.skip("the exact skeleton is over its budget")


def test_density_report_on_plain_triangulation():
    # planar octahedron-like fixture: no sticks at all
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    sub_map = restrict(dec.full_map, dec.skeleton_edges)  # the triangulated skeleton alone is planar
    dec2 = extract_skeleton(sub_map, "exact")
    pieces2 = decompose(dec2)
    profiles2 = face_profiles(dec2, pieces2)
    report = density_report(dec2, profiles2, pieces2, k=3)
    assert report.ok
    assert report.bound_verdict == "within"
    assert report.triangle_counts[0] == report.triangular_face_count


def test_density_report_k4_needs_no_assumption():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    report = density_report(dec, pieces=pieces, profiles=profiles, k=4)
    assert report.bound_max_edges == 24
    assert report.bound_verdict == "within"
    assert not report.association.applicable
    # Each triangle's budget is 3/2 at k=4, so no pairing is needed.
    assert report.ledger.verdict == "certified"
    assert [(row.count, row.budget, row.slack) for row in report.ledger.faces] == [(8, 12, 2)]


def test_density_report_k4_on_four_stick_fixture(four_stick_triangle_spec):
    dec, pieces, profiles = _pipeline(four_stick_triangle_spec)
    report = density_report(dec, profiles, pieces, k=4)
    # The skeleton is not triangulated, and the ledger runs all the same.
    assert not report.skeleton_triangulated
    assert report.bound_verdict == "within"
    four = next(p.face for p in profiles if p.is_triangle and p.stick_count == 4)
    assert report.ledger.uncertified == (four,)  # charge 2 over a budget of 3/2
    assert report.ledger.verdict == "uncertified"
    assert report.ok


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


@pytest.mark.parametrize("k", [0, -1])
def test_bound_below_budget_one_is_a_bad_argument(k):
    with pytest.raises(BadArgument, match=f"^k must be a positive integer; got {k}$"):
        k_bound(20, k)


def test_unsupported_k_carries_informational_estimate():
    with pytest.raises(UnsupportedK) as exc:
        k_bound(20, 9)
    assert exc.value.informational_bound == pytest.approx(4.1208 * 3 * 20)


# -- structural predicates --------------------------------------------------------


def test_predicates_vacuous_on_generated():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    report = density_report(dec, profiles, pieces)
    assert report.skeleton_connected and report.skeleton_triangulated
    assert report.predicates == {}


def test_uncrossed_stick_fails_predicate(uncrossed_stick_spec):
    dec, pieces, profiles = _pipeline(uncrossed_stick_spec)
    report = density_report(dec, profiles, pieces)
    assert not report.skeleton_connected  # two vertices float off the skeleton
    failing = {
        face: [v.name for v in verdicts if not v.holds]
        for face, verdicts in report.predicates.items()
    }
    assert failing and all("sticks_crossed" in names for names in failing.values())


def test_far_middle_fails_predicate(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    report = density_report(dec, profiles, pieces).predicates
    host = next(p.host_face for p in pieces if p.kind == "middle")
    names = [v.name for v in report[host] if not v.holds]
    assert "middles_short" in names


def test_stickless_face_counts(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    report = density_report(dec, profiles, pieces).predicates
    host = next(p.host_face for p in pieces if p.kind == "middle")
    verdicts = {v.name: v for v in report[host]}
    # 2 of 4 non-bridges untouched is not a strict minority
    assert not verdicts["stickless_uncrossed_minority"].holds
    assert not verdicts["stick_present"].holds


@pytest.mark.parametrize("k", [0, 2, 5])
def test_density_report_rejects_an_untabulated_budget(triangle_spec, k):
    dec, pieces, profiles = _pipeline(triangle_spec)
    with pytest.raises(CrossingLedgerError, match=f"budgets 3 and 4; got {k}"):
        density_report(dec, profiles, pieces, k=k)
