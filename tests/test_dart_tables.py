"""The dart tables: ``PlanarizedMap`` answers ``next_dart`` and ``head`` with
one list index each, in tables filled while the rotations are decoded, and
``prev_dart``, ``tail`` and ``rotation_index`` from them.

The formulas the tables replaced stay here as the oracle, applied to darts
named ``(edge, seg, dir)`` by ``describe``: a dart's head read off its
edge's node sequence, each rotation decoded from the spec's entries, a
dart's face successor as the rotation successor of its reversal, and its
face predecessor as the reversal of its rotation predecessor, with each
position found by scanning the rotation.  The dart numbering itself is
checked too: ``dart`` inverts ``describe``, the reversal of ``d`` is
``d ^ 1``, and darts count up in (edge id, seg, +1 before -1) order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import _fixtures
from test_properties import random_drawings

from crossing_ledger import build_map, generate_optimal
from crossing_ledger.errors import BadArgument

FIXTURE_NAMES = sorted(name for name in dir(_fixtures) if name.endswith("_spec"))


def _tuples(pmap):
    """Every dart as ``(edge, seg, dir)``, in edge id order, then along the
    chain, then +1 before -1."""
    return [
        (e, seg, direction)
        for e in pmap.edge_ids
        for seg in range(len(pmap.node_sequence(e)) - 1)
        for direction in (1, -1)
    ]


def _twin(pmap, d):
    e, seg, direction = pmap.describe(d)
    return pmap.dart(e, seg, -direction)


def head_by_sequence(pmap, d):
    e, seg, direction = pmap.describe(d)
    seq = pmap.node_sequence(e)
    return seq[seg + 1] if direction == 1 else seq[seg]


def rotation_by_spec(pmap, node):
    """The outgoing darts at ``node`` decoded from its rotation entries: at a
    vertex the edge's first or last segment, at a crossing the segment after
    or before the crossing's place on the chain."""
    darts = []
    for e, sign in pmap.spec.rotations.get(node, ()):
        chain = pmap.chain(e)
        if node in pmap.spec.crossings:
            i = chain.index(node)
            darts.append(pmap.dart(e, i + 1, 1) if sign == "+" else pmap.dart(e, i, -1))
        else:
            darts.append(pmap.dart(e, 0, 1) if sign == "+" else pmap.dart(e, len(chain), -1))
    return tuple(darts)


def next_by_rotation(pmap, d):
    rot = rotation_by_spec(pmap, head_by_sequence(pmap, d))
    return rot[(rot.index(_twin(pmap, d)) + 1) % len(rot)]


def prev_by_rotation(pmap, d):
    rot = rotation_by_spec(pmap, head_by_sequence(pmap, _twin(pmap, d)))
    return _twin(pmap, rot[(rot.index(d) - 1) % len(rot)])


def _check_tables(spec) -> int:
    pmap = build_map(spec)
    darts = [pmap.dart(*t) for t in _tuples(pmap)]
    for d in darts:
        assert pmap.head(d) == head_by_sequence(pmap, d), d
        assert pmap.tail(d) == head_by_sequence(pmap, _twin(pmap, d)), d
        assert pmap.next_dart(d) == next_by_rotation(pmap, d), d
        assert pmap.prev_dart(d) == prev_by_rotation(pmap, d), d
        assert pmap.prev_dart(pmap.next_dart(d)) == d
        rot = rotation_by_spec(pmap, pmap.tail(d))
        assert pmap.rotation(pmap.tail(d)) == rot
        assert pmap.rotation_index(d) == rot.index(d), d
    # Every face is an orbit of the oracle successor, with the oracle heads.
    for face in pmap.faces:
        walk = face.darts
        assert [next_by_rotation(pmap, d) for d in walk] == [*walk[1:], walk[0]]
        assert list(face.nodes) == [head_by_sequence(pmap, d) for d in walk]
        assert list(face.edges) == [pmap.describe(d)[0] for d in walk]
    assert sum(face.length for face in pmap.faces) == len(darts)
    return len(darts)


def _check_numbering(spec) -> int:
    pmap = build_map(spec)
    tuples = _tuples(pmap)
    darts = range(len(tuples))
    assert [pmap.describe(d) for d in darts] == tuples
    for d in darts:
        assert pmap.dart(*pmap.describe(d)) == d
        assert pmap.twin(d) == d ^ 1 == _twin(pmap, d)
    # Faces are traced from darts 0, 1, 2, ...: each face starts at the
    # smallest dart not on an earlier face.
    starts = [face.darts[0] for face in pmap.faces]
    assert starts == sorted(starts)
    assert all(min(face.darts) == face.darts[0] for face in pmap.faces)
    return len(tuples)


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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_darts_are_numbered_in_tuple_order(name):
    _check_numbering(getattr(_fixtures, name)())


def test_tight_family_darts_are_numbered_in_tuple_order():
    for n in range(6, 103, 2):
        assert _check_numbering(generate_optimal(n)) > 0


@given(random_drawings())
@settings(max_examples=100, deadline=None)
def test_random_drawing_darts_are_numbered_in_tuple_order(spec):
    _check_numbering(spec)


def test_conversions_refuse_what_names_no_dart(bigon_spec):
    pmap = build_map(bigon_spec)
    e = pmap.edge_ids[0]
    segments = len(pmap.node_sequence(e)) - 1
    for seg, direction in ((-1, 1), (segments, 1), (0, 0), (0, 2)):
        with pytest.raises(BadArgument):
            pmap.dart(e, seg, direction)
    for d in (-1, 2 * pmap.segment_count()):
        with pytest.raises(BadArgument):
            pmap.describe(d)
