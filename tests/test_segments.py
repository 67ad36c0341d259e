from __future__ import annotations

import re

import pytest

from crossing_ledger import (
    build_map,
    decompose,
    extract_skeleton,
    face_profiles,
)
from crossing_ledger.errors import BadArgument
from crossing_ledger.generator import generate_optimal
from crossing_ledger.segments import (
    FAR, LEFT, LONG, MIDDLE, RIGHT, SHORT, STICK, classify_middle, classify_stick,
)


def _pipeline(spec):
    dec = extract_skeleton(build_map(spec), "exact")
    pieces = decompose(dec)
    return dec, pieces, face_profiles(dec, pieces)


def test_single_crossing_residual_gives_two_sticks(uncrossed_stick_spec):
    dec, pieces, _ = _pipeline(uncrossed_stick_spec)
    assert dec.residual_edges == ("f1",)
    assert [p.kind for p in pieces] == [STICK, STICK]
    assert {p.emanates_from for p in pieces} == {"v5", "v6"}


def test_stick_count_is_twice_residual_count():
    for n in (6, 10):
        dec, pieces, _ = _pipeline(generate_optimal(n))
        sticks = [p for p in pieces if p.kind == STICK]
        assert len(sticks) == 2 * len(dec.residual_edges)


def test_generated_piece_shapes():
    dec, pieces, _ = _pipeline(generate_optimal(6))
    by_edge = {}
    for p in pieces:
        by_edge.setdefault(p.edge, []).append(p.kind)
    # short diagonals off the skeleton: stick, middle, stick
    for e in ("G0.1", "G0.3", "G0.5", "G1.1", "G1.3", "G1.5"):
        assert by_edge[e] == [STICK, MIDDLE, STICK], e
    # long diagonals: two sticks only (their middle crossings are residual)
    for e in ("G0.6", "G0.7", "G1.6", "G1.7"):
        assert by_edge[e] == [STICK, STICK], e


def test_generated_middles_are_short_and_sticks_short():
    _, pieces, _ = _pipeline(generate_optimal(6))
    for p in pieces:
        assert p.classification == SHORT, p


def test_long_diagonal_sticks_carry_two_intra_crossings():
    _, pieces, _ = _pipeline(generate_optimal(6))
    for p in pieces:
        assert len(p.intra_crossings) <= 2
    heavy = [p for p in pieces if len(p.intra_crossings) == 2]
    # one deep stick per long diagonal
    assert sorted({p.edge for p in heavy}) == ["G0.6", "G0.7", "G1.6", "G1.7"]


def test_pieces_partition_each_residual_chain():
    dec, pieces, _ = _pipeline(generate_optimal(10))
    full = dec.full_map
    for e in dec.residual_edges:
        chain = set(full.chain(e))
        covered = set()
        for p in pieces:
            if p.edge != e:
                continue
            covered.update(p.intra_crossings)
            covered.update(ref.crossing for ref in p.crossed)
        assert covered == chain


def test_intra_crossing_partners_are_mutual():
    _, pieces, _ = _pipeline(generate_optimal(6))
    by_id = {p.piece_id: p for p in pieces}
    for p in pieces:
        for q in p.intra_pieces:
            assert p.piece_id in by_id[q].intra_pieces
            assert by_id[q].host_face == p.host_face


def test_face_types_per_hexagon():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    patterns = sorted(tuple(sorted(p.type_tuple, reverse=True)) for p in profiles)
    # per hexagon: two 3-stick corners, one 2-stick corner face, one (1,1,0)
    assert patterns == sorted(
        [(3, 0, 0), (3, 0, 0), (2, 0, 0), (1, 1, 0)] * 2
    )
    for p in profiles:
        assert sum(p.type_tuple) == len(p.sticks)


def test_uncrossed_stick_fixture_profiles(uncrossed_stick_spec):
    dec, pieces, profiles = _pipeline(uncrossed_stick_spec)
    # both sticks float: their endpoints are isolated in the skeleton
    assert all(p.occurrence is None for p in pieces)
    assert all(p.classification == LONG for p in pieces)
    hosts = {p.host_face for p in pieces}
    assert len(hosts) == 2
    for prof in profiles:
        assert prof.size == 4
        assert sum(prof.type_tuple) == 0  # floating sticks are not corner sticks
        assert len(prof.sticks) == 1


def test_far_middle_fixture(far_middle_spec):
    dec, pieces, profiles = _pipeline(far_middle_spec)
    middles = [p for p in pieces if p.kind == MIDDLE]
    assert len(middles) == 1
    assert middles[0].classification == FAR
    host = next(p for p in profiles if p.face == middles[0].host_face)
    assert host.passing_edges == ("h1",)
    assert set(host.uncrossed_non_bridges) == {"c2", "c4"}
    assert host.non_bridge_count == 4 and host.bridge_count == 0


def test_classification_rules_directly():
    # triangle: the only stick placement is short, and has no side
    assert classify_stick(0, 2, 3) == (SHORT, None)
    # six-walk: crossing the opposite side is long in both directions
    assert classify_stick(0, 3, 6) == (LONG, None)
    assert classify_stick(0, 2, 6) == (SHORT, RIGHT)  # forward
    assert classify_stick(0, 5, 6) == (SHORT, LEFT)  # backward
    assert classify_stick(None, 2, 6) == (LONG, None)
    # middles: adjacency of crossed sides
    assert classify_middle(1, 2, 6) == SHORT
    assert classify_middle(1, 4, 6) == FAR
    assert classify_middle(0, 5, 6) == SHORT
    assert classify_middle(2, 2, 6) == FAR  # same occurrence twice


def test_bridge_accounting():
    # triangle with a pendant edge: the enclosing face sees the pendant twice
    from crossing_ledger import DrawingSpec

    spec = DrawingSpec.build(
        vertices=["v1", "v2", "v3", "v4"],
        edges=[
            ("a", "v1", "v2"),
            ("b", "v2", "v3"),
            ("c", "v3", "v1"),
            ("p", "v2", "v4"),
        ],
        rotations={
            "v1": [("a", "+"), ("c", "-")],
            "v2": [("b", "+"), ("p", "+"), ("a", "-")],
            "v3": [("c", "+"), ("b", "-")],
            "v4": [("p", "-")],
        },
    )
    dec = extract_skeleton(build_map(spec), "exact")
    profiles = face_profiles(dec, decompose(dec))
    big = next(p for p in profiles if p.size == 5)
    assert big.bridges == ("p",)
    assert big.size == big.non_bridge_count + 2 * big.bridge_count


def test_residual_self_loop_middle_over_one_edge():
    # a loop at u arcs across a single skeleton edge and back: its middle part
    # meets the same edge twice, which is compared by occurrence and warned
    from crossing_ledger import DrawingSpec

    spec = DrawingSpec.build(
        vertices=["u", "w", "x"],
        edges=[("g", "w", "x"), ("loop", "u", "u")],
        chains={"g": ["c1", "c2"], "loop": ["c1", "c2"]},
        crossings={"c1": ["g", "loop"], "c2": ["g", "loop"]},
        rotations={
            "u": [("loop", "-"), ("loop", "+")],
            "w": [("g", "+")],
            "x": [("g", "-")],
            "c1": [("g", "+"), ("loop", "+"), ("g", "-"), ("loop", "-")],
            "c2": [("g", "+"), ("loop", "-"), ("g", "-"), ("loop", "+")],
        },
    )
    dec = extract_skeleton(build_map(spec), "exact")
    assert dec.skeleton_edges == ("g",)
    pieces = decompose(dec)
    assert [p.kind for p in pieces] == [STICK, MIDDLE, STICK]
    middle = pieces[1]
    assert middle.crossed[0].edge == middle.crossed[1].edge == "g"
    assert middle.crossed[0].position == middle.crossed[1].position
    assert middle.classification == FAR
    assert any("two occurrences" in w for w in middle.warnings)
    sticks = [p for p in pieces if p.kind == STICK]
    assert all(p.emanates_from == "u" and p.occurrence is None for p in sticks)


def test_sticks_assigned_to_occurrences_not_identities():
    dec, pieces, profiles = _pipeline(generate_optimal(6))
    for prof in profiles:
        assert len(prof.type_tuple) == prof.size
        for stick_id in prof.sticks:
            piece = next(p for p in pieces if p.piece_id == stick_id)
            assert prof.walk_nodes[piece.occurrence] == piece.emanates_from


def test_profiles_refuse_another_decompositions_pieces():
    dec, _, _ = _pipeline(generate_optimal(6))
    _, others, _ = _pipeline(generate_optimal(10))
    with pytest.raises(BadArgument, match="lies in face 'f12', which is not a face of this"):
        face_profiles(dec, others)


def test_profiles_refuse_pieces_without_a_crossing_partner():
    dec, pieces, _ = _pipeline(generate_optimal(6))
    gone = next(q for p in pieces for q in p.intra_pieces)
    with pytest.raises(BadArgument, match=f"crosses piece {re.escape(repr(gone))}, which is not"):
        face_profiles(dec, [p for p in pieces if p.piece_id != gone])


def test_profiles_refuse_a_stick_beyond_its_face_boundary():
    dec, pieces, _ = _pipeline(generate_optimal(6))
    i = next(i for i, p in enumerate(pieces) if p.kind == STICK)
    pieces[i] = pieces[i]._replace(occurrence=99)
    with pytest.raises(BadArgument, match="names position 99 of face f[0-9]+, whose boundary has 3"):
        face_profiles(dec, pieces)
