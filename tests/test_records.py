"""Every record type in the package is an immutable value.

Records are ``typing.NamedTuple`` classes: fields cannot be assigned, two
records with equal fields are equal, and ``to_dict()`` gives the dicts pinned
below by digest (those of the frozen dataclasses the records once were,
apart from the audit's ledger and report, whose form has changed since).  Being
tuples, they also have a length (the number of fields) and iterate over their
fields, and a record equals a plain tuple of the same values; the README's
Library section says so.

The two stage results that are not records, ``Pieces`` and ``Profiles``, are
tuples of records that also name the input they came from; that name cannot
be changed either.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil

import pytest

import _fixtures
import crossing_ledger
from crossing_ledger import (
    build_map,
    decompose,
    density_report,
    extract_skeleton,
    face_profiles,
    generate_optimal,
    validate_drawing,
)
from crossing_ledger.generator import hexagon_gadget, theta_frame
from crossing_ledger.skeleton import conflict_graph

# SHA-256 of ``_to_dicts(_samples())``.
TO_DICT_DIGEST = "1063358c40cfdd147bb7f8b66665a7949621a6efb593f6a684f457ae54e60df2"


def _audit(spec):
    dec = extract_skeleton(build_map(spec))
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    return dec, pieces, profiles, density_report(dec, profiles, pieces, 3)


def _samples() -> dict[str, list]:
    """Instances of every record type, by class name, from small drawings."""
    spec = generate_optimal(6)
    pmap = build_map(spec)
    dec, pieces, profiles, report = _audit(spec)
    broken = validate_drawing(build_map(_fixtures.four_stick_triangle_spec()), 3)
    mutual = _audit(_fixtures.mutual_stick_triangle_spec())[3]
    far = _audit(_fixtures.far_middle_spec())[3]
    four = _audit(_fixtures.four_stick_triangle_spec())[3]
    predicates = [v for vs in far.predicates.values() for v in vs]
    return {
        "Violation": list(broken.violations),
        "DrawingSpec": [spec, _fixtures.far_middle_spec()],
        "FaceWalk": [*pmap.faces, *dec.faces],
        "ValidationReport": [validate_drawing(pmap, 3), broken],
        "ConflictGraph": [conflict_graph(pmap)],
        "SkeletonDecomposition": [dec],
        "CrossedRef": [c for p in pieces for c in p.crossed],
        "SegmentPiece": pieces,
        "FaceProfile": profiles,
        "Diagnosis": list(mutual.association.diagnoses),
        "AssociationResult": [report.association, mutual.association, far.association],
        "PredicateVerdict": predicates,
        "LedgerRow": [*report.ledger.faces, *far.ledger.faces],
        "Ledger": [report.ledger, four.ledger, far.ledger],
        "AuditReport": [report, mutual, far],
        "HexGadget": [hexagon_gadget(build_map(theta_frame(6)).faces[0], anchor="u")],
    }


def _to_dicts(samples: dict[str, list]) -> str:
    rows = [
        [name, [r.to_dict() for r in records]]
        for name, records in sorted(samples.items())
        if hasattr(records[0], "to_dict")
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _record_types() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(crossing_ledger.__path__):
        module = importlib.import_module(f"crossing_ledger.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
            ):
                found[value.__name__] = value
    return found


SAMPLES = _samples()


def test_samples_cover_every_record_type():
    types = _record_types()
    assert set(types) == set(SAMPLES)
    for name, records in SAMPLES.items():
        assert records and all(type(r) is types[name] for r in records), name


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_assigned(name):
    record = SAMPLES[name][0]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_records_compare_by_value(name):
    for record in SAMPLES[name]:
        fields = {field: getattr(record, field) for field in record._fields}
        copy = type(record)(**fields)
        assert copy == record and copy is not record
        for field in record._fields:
            assert type(record)(**{**fields, field: object()}) != record


def test_to_dict_is_unchanged():
    assert _to_dicts(SAMPLES) == TO_DICT_DIGEST


def test_stage_results_are_tuples_that_name_their_source():
    dec = extract_skeleton(build_map(generate_optimal(6)))
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    for results, name, source, items in (
        (pieces, "decomposition", dec, SAMPLES["SegmentPiece"]),
        (profiles, "pieces", pieces, SAMPLES["FaceProfile"]),
    ):
        assert isinstance(results, tuple) and results == tuple(items)
        assert getattr(results, name) is source
        with pytest.raises(AttributeError):
            setattr(results, name, None)
        with pytest.raises(AttributeError):
            delattr(results, name)
        with pytest.raises(TypeError):
            results[0] = None


def test_records_are_tuples_of_their_fields():
    face = SAMPLES["FaceWalk"][0]
    assert len(face) == len(face._fields) == 5
    assert list(face) == [getattr(face, field) for field in face._fields]
    # A face's length is its dart count, never len().
    assert face.length == len(face.darts) != len(face)
    assert face == tuple(face)
