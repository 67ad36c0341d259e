from __future__ import annotations

import itertools

from hypothesis import assume, given, settings, strategies as st

from _geom import DegenerateGeometry, drawing_doc

from crossing_ledger import (
    DrawingSpec,
    build_map,
    check_k_planar,
    decompose,
    emit_drawing,
    extract_skeleton,
    face_profiles,
    parse_text,
    restrict,
)


def _spec_from_sample(coords, picks) -> DrawingSpec:
    points = {f"v{i}": c for i, c in enumerate(coords)}
    edges = [(f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(picks)]
    doc = drawing_doc(points, edges)
    return DrawingSpec.build(
        vertices=doc["vertices"],
        edges=doc["edges"],
        chains=doc["chains"],
        crossings=doc["crossings"],
        rotations=doc["rotations"],
    )


@st.composite
def random_drawings(draw) -> DrawingSpec:
    n = draw(st.integers(min_value=3, max_value=7))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(
        st.lists(st.sampled_from(pairs), min_size=2, max_size=min(11, len(pairs)), unique=True)
    )
    try:
        return _spec_from_sample(coords, picks)
    except DegenerateGeometry:
        assume(False)
        raise AssertionError  # unreachable


@given(random_drawings())
@settings(max_examples=150, deadline=None)
def test_round_trip_identity(spec):
    assert parse_text(emit_drawing(spec)) == spec


@given(random_drawings(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_restrict_keeps_euler_and_dart_partition(spec, rng):
    pmap = build_map(spec)
    keep = [e for e in pmap.edge_ids if rng.random() < 0.6]
    sub = restrict(pmap, keep)  # construction re-checks the sphere condition
    assert sum(f.length for f in sub.faces) == 2 * sub.segment_count()
    assert restrict(sub, keep) == sub


@given(random_drawings())
@settings(max_examples=150, deadline=None)
def test_stick_count_is_twice_residual(spec):
    pmap = build_map(spec)
    dec = extract_skeleton(pmap, "exact")
    pieces = decompose(dec)
    sticks = [p for p in pieces if p.kind == "stick"]
    assert len(sticks) == 2 * len(dec.residual_edges)
    profiles = face_profiles(dec, pieces)
    assert sum(len(p.sticks) for p in profiles) == len(sticks)


@given(random_drawings())
@settings(max_examples=150, deadline=None)
def test_k_planarity_monotone(spec):
    pmap = build_map(spec)
    previous_ok = False
    for k in range(1, 8):
        ok = check_k_planar(pmap, k).ok
        assert ok or not previous_ok or False
        if previous_ok:
            assert ok
        previous_ok = ok


@given(random_drawings())
@settings(max_examples=100, deadline=None)
def test_crossings_have_degree_four(spec):
    pmap = build_map(spec)
    for c in pmap.crossing_ids:
        rot = [pmap.describe(d)[0] for d in pmap.rotation(c)]
        assert len(rot) == 4
        assert rot[0] == rot[2] and rot[1] == rot[3]
        assert rot[0] != rot[1]


@given(random_drawings())
@settings(max_examples=100, deadline=None)
def test_skeleton_modes_agree_on_feasibility(spec):
    pmap = build_map(spec)
    exact = extract_skeleton(pmap, "exact")
    greedy = extract_skeleton(pmap, "greedy")
    assert len(greedy.skeleton_edges) <= len(exact.skeleton_edges)
    assert restrict(pmap, exact.skeleton_edges).crossing_ids == ()
    assert restrict(pmap, greedy.skeleton_edges).crossing_ids == ()
