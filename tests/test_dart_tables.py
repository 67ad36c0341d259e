"""The dart tables: ``PlanarizedMap`` answers ``next_dart`` and ``head`` with
one lookup each, in tables filled while the rotations are decoded, and
``prev_dart``, ``tail`` and ``rotation_index`` from them.

The formulas the tables replaced stay here as the oracle: a dart's head read
off its edge's node sequence, its face successor as the rotation successor of
its reversal, and its face predecessor as the reversal of its rotation
predecessor, with each position found by scanning the rotation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import _fixtures
from test_properties import random_drawings

from crossing_ledger import build_map, generate_optimal

FIXTURE_NAMES = sorted(name for name in dir(_fixtures) if name.endswith("_spec"))


def _twin(d):
    return (d[0], d[1], -d[2])


def head_by_sequence(pmap, d):
    e, seg, direction = d
    seq = pmap.node_sequence(e)
    return seq[seg + 1] if direction == 1 else seq[seg]


def next_by_rotation(pmap, d):
    rot = pmap.rotation(head_by_sequence(pmap, d))
    return rot[(rot.index(_twin(d)) + 1) % len(rot)]


def prev_by_rotation(pmap, d):
    rot = pmap.rotation(head_by_sequence(pmap, _twin(d)))
    return _twin(rot[(rot.index(d) - 1) % len(rot)])


def _check_tables(spec) -> int:
    pmap = build_map(spec)
    darts = [
        (e, seg, direction)
        for e in pmap.edge_ids
        for seg in range(len(pmap.node_sequence(e)) - 1)
        for direction in (1, -1)
    ]
    for d in darts:
        assert pmap.head(d) == head_by_sequence(pmap, d), d
        assert pmap.tail(d) == head_by_sequence(pmap, _twin(d)), d
        assert pmap.next_dart(d) == next_by_rotation(pmap, d), d
        assert pmap.prev_dart(d) == prev_by_rotation(pmap, d), d
        assert pmap.prev_dart(pmap.next_dart(d)) == d
        rot = pmap.rotation(pmap.tail(d))
        assert pmap.rotation_index(d) == rot.index(d), d
    # Every face is an orbit of the oracle successor, with the oracle heads.
    for face in pmap.faces:
        walk = face.darts
        assert [next_by_rotation(pmap, d) for d in walk] == [*walk[1:], walk[0]]
        assert list(face.nodes) == [head_by_sequence(pmap, d) for d in walk]
    assert sum(face.length for face in pmap.faces) == len(darts)
    return len(darts)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_tables_match_the_rotation_formulas(name):
    _check_tables(getattr(_fixtures, name)())


def test_tight_family_tables_match_the_rotation_formulas():
    for n in range(6, 103, 2):
        assert _check_tables(generate_optimal(n)) > 0


@given(random_drawings())
@settings(max_examples=100, deadline=None)
def test_random_drawing_tables_match_the_rotation_formulas(spec):
    _check_tables(spec)
