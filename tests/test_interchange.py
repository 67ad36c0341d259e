from __future__ import annotations

import json
import re

import pytest

from crossing_ledger import (
    InvariantError,
    ParseError,
    build_map,
    emit_drawing,
    input_digest,
    parse_text,
    report_document,
)
from crossing_ledger.generator import generate_optimal
from crossing_ledger.interchange import emit_report


def test_round_trip_generated():
    spec = generate_optimal(6)
    assert parse_text(emit_drawing(spec)) == spec


def test_round_trip_fixture(square_diagonals_spec):
    assert parse_text(emit_drawing(square_diagonals_spec)) == square_diagonals_spec


def test_emit_is_canonical_and_stable(square_diagonals_spec):
    text = emit_drawing(square_diagonals_spec)
    again = emit_drawing(parse_text(text))
    assert text == again


def test_field_order_is_documented():
    doc = json.loads(emit_drawing(generate_optimal(6)))
    assert list(doc) == ["vertices", "edges", "chains", "crossings", "rotations"]


def test_integer_ids_are_canonicalized_to_strings():
    text = json.dumps(
        {
            "vertices": [1, 2, 3],
            "edges": [[10, 1, 2], [11, 2, 3], [12, 3, 1]],
            "chains": {},
            "crossings": {},
            "rotations": {
                "1": [["10", "+"], ["12", "-"]],
                "2": [["11", "+"], ["10", "-"]],
                "3": [["12", "+"], ["11", "-"]],
            },
        }
    )
    spec = parse_text(text)
    assert spec.vertices == ("1", "2", "3")
    build_map(spec)


def test_empty_vertices_is_a_parse_error():
    doc = {"vertices": [], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}
    with pytest.raises(ParseError):
        parse_text(json.dumps(doc))


def test_number_of_too_many_digits_is_a_parse_error():
    # json's int() raises a ValueError that is not a JSONDecodeError.
    text = '{"vertices": [%s], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}'
    with pytest.raises(ParseError, match="more than [0-9]+ digits$"):
        parse_text(text % ("9" * 5000))


def test_malformed_json_reports_location():
    with pytest.raises(ParseError, match="line"):
        parse_text("{not json")


def test_duplicate_edge_id_is_an_invariant_error(triangle_spec):
    doc = triangle_spec.to_doc()
    doc["edges"].append(["a", "v1", "v2"])
    with pytest.raises(InvariantError, match="duplicate-edge-id"):
        parse_text(json.dumps(doc))


def test_missing_field_is_a_parse_error(triangle_spec):
    doc = triangle_spec.to_doc()
    del doc["rotations"]
    with pytest.raises(ParseError, match="rotations"):
        parse_text(json.dumps(doc))


def test_broken_invariant_is_reported_by_rule(triangle_spec):
    doc = triangle_spec.to_doc()
    doc["rotations"]["v1"] = [["a", "+"]]  # drops the c entry
    with pytest.raises(InvariantError, match="rotation-at-vertex"):
        parse_text(json.dumps(doc))


def test_report_document_shape(triangle_spec):
    doc = report_document(triangle_spec, {"validation": {"ok": True}})
    assert list(doc) == ["version", "input_digest", "drawing", "validation"]
    assert doc["input_digest"] == input_digest(triangle_spec)
    text = emit_report(doc)
    assert text == emit_report(doc)  # byte-stable


def test_digest_tracks_content(triangle_spec, square_diagonals_spec):
    assert input_digest(triangle_spec) != input_digest(square_diagonals_spec)
    assert input_digest(triangle_spec).startswith("sha256:")


def test_parse_drawing_from_file(tmp_path, triangle_spec):
    from crossing_ledger import parse_drawing

    target = tmp_path / "triangle.json"
    target.write_text(emit_drawing(triangle_spec), encoding="utf-8")
    assert parse_drawing(target) == triangle_spec
    with pytest.raises(ParseError):
        parse_drawing(tmp_path / "missing.json")


def test_parse_drawing_of_non_utf8_file_is_a_parse_error(tmp_path):
    from crossing_ledger import parse_drawing

    target = tmp_path / "bad.json"
    target.write_bytes(b"\xd0\xff{}")
    with pytest.raises(ParseError, match="^" + re.escape(f"cannot read {target}: 'utf-8' codec")):
        parse_drawing(target)


@pytest.mark.parametrize("bad", [["a"], {"b": 1}, True, 1.5, None])
def test_id_of_another_type_is_an_invariant_error(bad):
    doc = {"vertices": ["a", bad], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}
    with pytest.raises(InvariantError) as info:
        parse_text(json.dumps(doc))
    assert info.value.rule == "id-type"
    assert str(info.value).endswith(f"got {bad!r}")
