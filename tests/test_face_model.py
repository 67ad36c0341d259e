"""One skeleton-face model: a skeleton face is a region of the drawing's own map.

``restrict`` planarizes the skeleton alone.  Its faces are exactly the walks
of the decomposition's faces, and on a connected skeleton they are the
faces themselves, so it is the oracle here.  The two maps number their
darts apart (a walk dart is a dart of the full map), so walks are compared
by ``(edge, direction)`` per position.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import _fixtures
from golden.capture import FIXTURES
from test_properties import random_drawings

from crossing_ledger import (
    DrawingSpec,
    build_map,
    decompose,
    density_report,
    extract_skeleton,
    face_profiles,
    generate_optimal,
    restrict,
)
from crossing_ledger.audit import _skeleton_connected
from crossing_ledger.segments import FAR, LONG, classify_middle, classify_stick


def _walks(face):
    """The face's walks, each as a tuple of darts."""
    out, start = [], 0
    for length in face.walks:
        out.append(face.darts[start:start + length])
        start += length
    return out


def _sides(pmap, darts):
    """``(edge, direction)`` of each dart."""
    return tuple((e, direction) for e, _, direction in map(pmap.describe, darts))


def _face_key(pmap, face):
    return (face.face_id, _sides(pmap, face.darts), face.nodes, face.edges, face.walks)


def _check_occurrences(pmap, dec):
    """A walk dart leaves its edge's tail, and every dart of that edge in the
    same direction resolves to its occurrence; residual darts to None."""
    skeleton = set(dec.skeleton_edges)
    walk_darts = {}
    for face in dec.faces:
        for pos, d in enumerate(face.darts):
            e, seg, direction = pmap.describe(d)
            assert seg == (0 if direction == 1 else len(pmap.chain(e)))
            walk_darts[(e, direction)] = (face.face_id, pos)
    assert len(dec.occurrences) == 2 * pmap.segment_count()
    for d, occurrence in enumerate(dec.occurrences):
        e, _, direction = pmap.describe(d)
        assert occurrence == (walk_darts[(e, direction)] if e in skeleton else None)
        if e in skeleton:
            assert dec.face_of_dart(d) == occurrence


def _check_against_restrict(pmap, dec):
    """The walks are restrict's faces, grouped by region in order of first walk."""
    sub = restrict(pmap, dec.skeleton_edges)
    index = {_sides(sub, f.darts): i for i, f in enumerate(sub.faces)}
    order = [[index[_sides(pmap, w)] for w in _walks(f)] for f in dec.faces]
    assert sorted(i for walks in order for i in walks) == list(range(len(sub.faces)))
    assert all(walks == sorted(walks) for walks in order)
    assert [walks[0] for walks in order] == sorted(walks[0] for walks in order)
    for face in dec.faces:
        nodes = tuple(v for w in _walks(face) for v in sub.faces[index[_sides(pmap, w)]].nodes)
        assert face.nodes == nodes
    edge_components = {sub.component_of(sub.endpoints(e)[0]) for e in dec.skeleton_edges}
    if len(edge_components) == 1:
        # ids, walk sides, nodes, edges and walks
        assert [_face_key(pmap, f) for f in dec.faces] == [_face_key(sub, f) for f in sub.faces]
    _check_occurrences(pmap, dec)
    # Connectivity as the skeleton's own map counts components.
    assert _skeleton_connected(dec) == (len({sub.component_of(v) for v in sub.vertices}) <= 1)


def _pipeline(spec):
    dec = extract_skeleton(build_map(spec), "exact")
    pieces = decompose(dec)
    return dec, pieces, face_profiles(dec, pieces)


def test_tight_family_faces_equal_restrict():
    for n in range(6, 103, 2):
        pmap = build_map(generate_optimal(n))
        dec = extract_skeleton(pmap, "exact")
        sub = restrict(pmap, dec.skeleton_edges)
        assert [_face_key(pmap, f) for f in dec.faces] == [_face_key(sub, f) for f in sub.faces]
        assert all(f.walks == (3,) for f in dec.faces)


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_fixture_faces_against_restrict(name):
    pmap = build_map(getattr(_fixtures, name)())
    _check_against_restrict(pmap, extract_skeleton(pmap, "exact"))


@given(random_drawings())
@settings(max_examples=200, deadline=None)
def test_random_drawing_faces_against_restrict(spec):
    pmap = build_map(spec)
    _check_against_restrict(pmap, extract_skeleton(pmap, "exact"))


def test_loop_around_edge_face_has_two_walks():
    dec, pieces, profiles = _pipeline(_fixtures.loop_around_edge_spec())
    face = next(f for f in dec.faces if "g" in f.edges)
    assert face.walks == (1, 2)
    assert face.to_dict()["walks"] == [1, 2]
    prof = next(p for p in profiles if p.face == face.face_id)
    assert prof.size == 3 and not prof.is_triangle
    report = density_report(dec, profiles, pieces, k=3).to_dict()
    assert report["triangular_faces"] == 0
    assert report["skeleton_connected"] is False
    assert report["skeleton_triangulated"] is False


def test_ladder_is_one_face_of_four_walks(ladder_spec):
    dec, pieces, profiles = _pipeline(ladder_spec)
    assert [f.walks for f in dec.faces] == [(2, 2, 2, 2)]
    middles = [p for p in pieces if p.kind == "middle"]
    assert [p.classification for p in middles] == [FAR, FAR, FAR]
    # Each middle part runs between two walks, at distinct positions.
    assert [tuple(r.position for r in p.crossed) for p in middles] == [(0, 3), (2, 5), (4, 7)]
    sticks = [p for p in pieces if p.kind == "stick"]
    assert len(sticks) == 2
    assert all(p.occurrence is None and p.classification == LONG for p in sticks)
    assert profiles[0].to_dict()["walks"] == [2, 2, 2, 2]


def test_single_walk_faces_carry_no_walks_key():
    dec, _, profiles = _pipeline(generate_optimal(10))
    assert all("walks" not in f.to_dict() for f in dec.faces)
    assert all("walks" not in p.to_dict() for p in profiles)


def test_disjoint_edges_are_not_a_connected_skeleton():
    # Two components of the drawing: every face has one walk, yet the
    # skeleton is disconnected.
    spec = DrawingSpec.build(
        vertices=["a", "b", "c", "d"],
        edges=[("e", "a", "b"), ("f", "c", "d")],
        rotations={"a": [("e", "+")], "b": [("e", "-")], "c": [("f", "+")], "d": [("f", "-")]},
    )
    dec, _, _ = _pipeline(spec)
    assert [f.walks for f in dec.faces] == [(2,), (2,)]
    assert not _skeleton_connected(dec)


def test_positions_on_different_walks_are_never_adjacent():
    assert classify_stick(0, 2, None) == (LONG, None)
    assert classify_middle(0, 1, None) == FAR
    face = extract_skeleton(build_map(_fixtures.ladder_spec()), "exact").faces[0]
    assert face.walk_length(0, 1) == 2
    assert face.walk_length(2, None) == 2
    assert face.walk_length(1, 2) is None
