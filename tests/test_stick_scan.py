"""The stick scan: ``decompose`` finds each stick's corner by walking the rotation in place.

The slice scan it replaced, which copied the whole rotation of the stick's
vertex for every stick, stays here as the oracle.  The growth guard counts
rotation entries read, not seconds, so it is deterministic on any host.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

import _fixtures
from test_properties import random_drawings

from crossing_ledger import build_map, decompose, extract_skeleton, generate_optimal
from crossing_ledger.drawing import PlanarizedMap
from crossing_ledger.segments import STICK

FIXTURE_NAMES = sorted(name for name in dir(_fixtures) if name.endswith("_spec"))


def slice_scan_occurrence(dec, stick):
    """The occurrence the slice scan gives: the first skeleton dart clockwise from
    the stick's outgoing dart, over a copy of the rotation starting there."""
    full = dec.full_map
    skeleton = set(dec.skeleton_edges)
    e = stick.edge
    out_dart = full.dart(e, 0, 1) if stick.index == 0 else full.dart(e, len(full.chain(e)), -1)
    rot = full.rotation(stick.emanates_from)
    i = full.rotation_index(out_dart)
    for d in rot[i::-1] + rot[:i:-1]:
        if full.describe(d)[0] in skeleton:
            face, pos = dec.face_of_dart(full.twin(d))
            assert face == stick.host_face
            return pos
    return None


def _check_against_slice_scan(spec):
    dec = extract_skeleton(build_map(spec), "exact")
    sticks = [p for p in decompose(dec) if p.kind == STICK]
    for stick in sticks:
        assert stick.occurrence == slice_scan_occurrence(dec, stick), stick.piece_id
    return len(sticks)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_sticks_match_slice_scan(name):
    _check_against_slice_scan(getattr(_fixtures, name)())


def test_tight_family_sticks_match_slice_scan():
    for n in range(6, 103, 2):
        assert _check_against_slice_scan(generate_optimal(n)) > 0


@given(random_drawings())
@settings(max_examples=200, deadline=None)
def test_random_drawing_sticks_match_slice_scan(spec):
    _check_against_slice_scan(spec)


def _rotation_reads_per_stick(n, monkeypatch):
    """Rotation entries ``decompose`` reads per stick on ``generate_optimal(n)``,
    by index, by slice or by iteration."""
    dec = extract_skeleton(build_map(generate_optimal(n)), "exact")
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            reads[0] += len(got) if isinstance(key, slice) else 1
            return got

        def __iter__(self):
            for d in super().__iter__():
                reads[0] += 1
                yield d

    rotation = PlanarizedMap.rotation
    with monkeypatch.context() as patch:
        patch.setattr(PlanarizedMap, "rotation", lambda pmap, node: Counted(rotation(pmap, node)))
        pieces = decompose(dec)
    return Fraction(reads[0], sum(p.kind == STICK for p in pieces))


def test_rotation_reads_per_stick_do_not_grow_with_hub_degree(monkeypatch):
    # The theta frame's two poles have degree 2n, so a scan that reads whole
    # rotations reads more per stick as n grows.
    small = _rotation_reads_per_stick(102, monkeypatch)
    large = _rotation_reads_per_stick(1602, monkeypatch)
    assert small == large < 8
