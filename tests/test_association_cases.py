"""Branch coverage for the triangle association rules on synthetic profiles.

The pairing logic is a pure function of face profiles and stick pieces, so
the corner cases (2+1 placements, nonconformant inputs, claim conflicts) are
exercised directly on hand-built inputs rather than full drawings, through
the audit's private core ``_associate``: ``density_report`` takes only the
profiles that ``face_profiles`` made.  The claim bookkeeping is checked
against the linear-scan version it replaced, kept in ``_association_oracle``.
"""

from __future__ import annotations

import random

import pytest

import _association_oracle as oracle

from crossing_ledger import build_map, decompose, extract_skeleton, face_profiles, generate_optimal
from crossing_ledger.audit import AssociationResult, _associate
from crossing_ledger.segments import CrossedRef, FaceProfile, SegmentPiece


def associate(profiles, pieces):
    """The audit's pairing on hand-built profiles and their pieces.

    ``density_report`` builds the pairing only on a triangulated skeleton;
    on any other profiles this gives the result it reports instead.
    """
    if not all(p.is_triangle for p in profiles):
        note = "association requires a fully triangulated skeleton"
        return AssociationResult(False, {}, (note,), ())
    return _associate(profiles, {p.piece_id: p for p in pieces})


def _triangle(face, nodes, neighbors, tau, stick_ids):
    return FaceProfile(
        face=face,
        size=3,
        walk_nodes=tuple(nodes),
        walk_edges=(f"{face}_a", f"{face}_b", f"{face}_c"),
        walks=(3,),
        neighbors=tuple(neighbors),
        type_tuple=tuple(tau),
        sticks=tuple(stick_ids),
        middles=(),
        passing_edges=(),
        bridges=(),
        non_bridges=(f"{face}_a", f"{face}_b", f"{face}_c"),
        uncrossed_non_bridges=(),
        stick_stick_pairs=(),
        stick_middle_pairs=(),
    )


def _stick(piece_id, occurrence, crossed_position, host):
    return SegmentPiece(
        piece_id=piece_id,
        edge=piece_id.split("#")[0],
        index=0,
        kind="stick",
        host_face=host,
        emanates_from="v",
        occurrence=occurrence,
        crossed=(CrossedRef(crossing="x", edge="e", position=crossed_position),),
        classification="short",
        orientation=None,
        intra_crossings=(),
        intra_pieces=(),
    )


def test_two_one_zero_targets_side_opposite_the_lone_stick():
    # tau = (2, 1, 0): two sticks at occurrence 0, one at occurrence 1, whose
    # stick exits across dart (1 + 2) % 3 = 0, the side joining corners 2 and 0
    pieces = [
        _stick("p#0", 0, 2, "T"),
        _stick("q#0", 0, 2, "T"),
        _stick("r#0", 1, 0, "T"),
    ]
    profiles = [
        _triangle("T", ("a", "b", "c"), ("N0", "N1", "N2"), (2, 1, 0), ("p#0", "q#0", "r#0")),
        _triangle("N0", ("c", "a", "x"), ("T", "Z1", "Z2"), (0, 0, 0), ()),
        _triangle("N1", ("a", "b", "y"), ("T", "Z3", "Z4"), (0, 0, 0), ()),
        _triangle("N2", ("b", "c", "z"), ("T", "Z5", "Z6"), (0, 0, 0), ()),
    ]
    result = associate(profiles, pieces)
    assert result.ok
    assert result.mapping == {"T": "N0"}


def test_two_one_zero_nonconformant_lone_stick_is_diagnosed():
    pieces = [
        _stick("p#0", 0, 2, "T"),
        _stick("q#0", 0, 2, "T"),
        _stick("r#0", 1, 1, "T"),  # exits across a side touching its own corner
    ]
    profiles = [
        _triangle("T", ("a", "b", "c"), ("N0", "N1", "N2"), (2, 1, 0), ("p#0", "q#0", "r#0")),
        _triangle("N0", ("c", "a", "x"), ("T", "Z1", "Z2"), (0, 0, 0), ()),
        _triangle("N1", ("a", "b", "y"), ("T", "Z3", "Z4"), (0, 0, 0), ()),
        _triangle("N2", ("b", "c", "z"), ("T", "Z5", "Z6"), (0, 0, 0), ()),
    ]
    result = associate(profiles, pieces)
    assert not result.ok
    assert result.diagnoses[0].kind == "nonconformant"


def test_three_zero_zero_with_split_exits_is_diagnosed():
    pieces = [
        _stick("p#0", 0, 2, "T"),
        _stick("q#0", 0, 2, "T"),
        _stick("r#0", 0, 1, "T"),  # does not share the thrice-crossed side
    ]
    profiles = [
        _triangle("T", ("a", "b", "c"), ("N0", "N1", "N2"), (3, 0, 0), ("p#0", "q#0", "r#0")),
        _triangle("N0", ("c", "a", "x"), ("T", "Z1", "Z2"), (0, 0, 0), ()),
        _triangle("N1", ("a", "b", "y"), ("T", "Z3", "Z4"), (0, 0, 0), ()),
        _triangle("N2", ("b", "c", "z"), ("T", "Z5", "Z6"), (0, 0, 0), ()),
    ]
    result = associate(profiles, pieces)
    assert not result.ok
    assert result.diagnoses[0].kind == "nonconformant"


def test_overfull_target_is_diagnosed():
    pieces = [_stick(f"p{i}#0", 0, 2, "T") for i in range(3)]
    target_sticks = [_stick(f"t{i}#0", i, (i + 2) % 3, "N2") for i in range(3)]
    profiles = [
        _triangle("T", ("a", "b", "c"), ("N0", "N1", "N2"), (3, 0, 0),
                  tuple(p.piece_id for p in pieces)),
        _triangle("N0", ("c", "a", "x"), ("T", "Z1", "Z2"), (0, 0, 0), ()),
        _triangle("N1", ("a", "b", "y"), ("T", "Z3", "Z4"), (0, 0, 0), ()),
        _triangle("N2", ("b", "c", "z"), ("T", "Z5", "Z6"), (1, 1, 1),
                  tuple(p.piece_id for p in target_sticks)),
    ]
    result = associate(profiles, pieces + target_sticks)
    assert not result.ok
    kinds = {d.kind for d in result.diagnoses}
    assert "target-overfull" in kinds or "optimality-violation" in kinds


def test_triple_claim_conflict_is_diagnosed():
    # three 3-stick triangles all claiming the same partner cannot be resolved
    pieces = []
    profiles = [
        _triangle("M", ("a", "b", "c"), ("S0", "S1", "S2"), (0, 0, 0), ()),
    ]
    for i in range(3):
        ids = tuple(f"s{i}_{j}#0" for j in range(3))
        # sticks at occurrence 1 exit across dart (1 + 2) % 3 = 0, which faces M
        pieces += [_stick(pid, 1, 0, f"S{i}") for pid in ids]
        profiles.append(
            _triangle(f"S{i}", ("a", "b", "c"), ("M", f"A{i}", f"B{i}"), (0, 3, 0), ids)
        )
        profiles.append(_triangle(f"A{i}", ("p", "q", "r"), (f"S{i}", "M", "M"), (0, 0, 0), ()))
        profiles.append(_triangle(f"B{i}", ("p", "q", "r"), (f"S{i}", "M", "M"), (0, 0, 0), ()))
    result = associate(profiles, pieces)
    assert not result.ok
    assert any(d.kind == "conflict" for d in result.diagnoses)


def test_non_triangular_profile_disables_association():
    prof = FaceProfile(
        face="Q",
        size=4,
        walk_nodes=("a", "b", "c", "d"),
        walk_edges=("e1", "e2", "e3", "e4"),
        walks=(4,),
        neighbors=("X", "X", "X", "X"),
        type_tuple=(0, 0, 0, 0),
        sticks=(),
        middles=(),
        passing_edges=(),
        bridges=(),
        non_bridges=("e1", "e2", "e3", "e4"),
        uncrossed_non_bridges=(),
        stick_stick_pairs=(),
        stick_middle_pairs=(),
    )
    result = associate([prof], [])
    assert not result.applicable


def _random_sticks(rng, face):
    # (corner, crossed side) per stick: mostly the two conformant shapes of a
    # 3-stick triangle, sometimes a partner-sized triangle or a random mix.
    kind = rng.random()
    if kind < 0.35:
        corner, side = rng.randrange(3), rng.randrange(3)
        spec = [(corner, side)] * 3
    elif kind < 0.7:
        two, one = rng.sample(range(3), 2)
        spec = [(two, rng.randrange(3)), (two, rng.randrange(3)), (one, (one + 2) % 3)]
    elif kind < 0.9:
        spec = [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randrange(3))]
    else:
        spec = [(rng.choice((0, 1, 2, None)), rng.randrange(3)) for _ in range(3)]
    return [_stick(f"{face}s{j}#0", c, side, face) for j, (c, side) in enumerate(spec)]


def _random_case(rng):
    # Triangles with random neighbours among few faces, so that partners are
    # often claimed twice or more and re-routing competes for fallbacks.
    names = [f"F{i}" for i in range(rng.randint(2, 12))]
    profiles, pieces = [], []
    for face in names:
        sticks = _random_sticks(rng, face)
        tau = [sum(1 for s in sticks if s.occurrence == c) for c in range(3)]
        neighbors = [rng.choice(names) for _ in range(3)]
        profiles.append(
            _triangle(face, ("a", "b", "c"), neighbors, tau, [s.piece_id for s in sticks])
        )
        pieces += sticks
    return profiles, pieces


def test_agrees_with_linear_scan_oracle_on_random_profiles():
    rng = random.Random(20161)
    rerouted = 0
    for _ in range(3000):
        profiles, pieces = _random_case(rng)
        result = associate(profiles, pieces)
        assert result == oracle.associate(profiles, pieces)
        rerouted += len(result.notes)
    assert rerouted > 50


@pytest.mark.parametrize("n", range(6, 104, 2))
def test_agrees_with_linear_scan_oracle_on_tight_family(n):
    dec = extract_skeleton(build_map(generate_optimal(n)), "exact")
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    result = associate(profiles, pieces)
    assert result == oracle.associate(profiles, pieces)
    assert len(result.notes) == (n - 2) // 2
