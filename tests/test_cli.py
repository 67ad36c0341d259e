from __future__ import annotations

import io
import json

from crossing_ledger import emit_drawing
from crossing_ledger.cli import run


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_generate_then_audit_pipeline():
    code, drawing, _ = _run(["generate", "--n", "6"])
    assert code == 0
    code, report, _ = _run(["audit", "--k", "3"], stdin_text=drawing)
    assert code == 0
    assert "tight" in report


def test_generate_writes_file(tmp_path):
    target = tmp_path / "drawing.json"
    code, out, _ = _run(["generate", "--n", "10", "-o", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert len(doc["edges"]) == 44


def test_generate_strict_rejects_bad_parity():
    code, _, err = _run(["generate", "--n", "8", "--strict-paper"])
    assert code == 1
    assert "divisible" in err


def test_audit_of_two_vertices_exits_with_error_line(bigon_spec):
    code, out, err = _run(["audit", "--k", "3", "-"], stdin_text=emit_drawing(bigon_spec))
    assert (code, out) == (1, "")
    assert err.startswith("error: bound-vertex-count: ")


def test_validate_exit_codes(ladder_spec, triangle_spec):
    code, out, _ = _run(["validate", "--k", "3", "-"], stdin_text=emit_drawing(ladder_spec))
    assert code == 2
    assert "e is crossed 4 times" in out
    code, _, _ = _run(["validate", "--k", "4", "-"], stdin_text=emit_drawing(ladder_spec))
    assert code == 0
    code, _, _ = _run(["validate", "--k", "3", "-"], stdin_text=emit_drawing(triangle_spec))
    assert code == 0


def test_validate_json_format(bigon_spec):
    code, out, _ = _run(
        ["validate", "--k", "3", "--format", "json", "-"],
        stdin_text=emit_drawing(bigon_spec),
    )
    assert code == 2
    doc = json.loads(out)
    assert list(doc) == ["version", "input_digest", "drawing", "validation"]
    assert doc["validation"]["violations"][0]["rule"] == "homotopic-parallel"


def test_analyze_skeleton_section():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(
        ["analyze", "--skeleton", "--format", "json", "-"], stdin_text=drawing
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["skeleton"]["skeleton_size"] == 12
    assert doc["skeleton"]["mode"] == "exact"


def test_analyze_segments_section():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(
        ["analyze", "--segments", "--format", "json", "-"], stdin_text=drawing
    )
    assert code == 0
    doc = json.loads(out)
    pieces = doc["segments"]["pieces"]
    assert sum(1 for p in pieces if p["kind"] == "stick") == 20


def test_audit_exit_two_on_bound_break(four_stick_triangle_spec):
    code, out, _ = _run(
        ["audit", "--k", "3", "--format", "json", "-"],
        stdin_text=emit_drawing(four_stick_triangle_spec),
    )
    assert code == 2
    doc = json.loads(out)
    assert not doc["validation"]["ok"]


def test_audit_k4_mode(four_stick_triangle_spec):
    code, out, _ = _run(
        ["audit", "--k", "4", "--format", "json", "-"],
        stdin_text=emit_drawing(four_stick_triangle_spec),
    )
    doc = json.loads(out)
    assert doc["validation"]["ok"]
    assert doc["audit"]["stick_cap_violations"] == []  # cap is 4 in this mode


def test_export_dot(triangle_spec, tmp_path):
    code, out, _ = _run(["export", "--figure", "dot", "-"], stdin_text=emit_drawing(triangle_spec))
    assert code == 0
    assert out.count("shape=circle") == 3


def test_export_svg():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(["export", "--figure", "svg", "-"], stdin_text=drawing)
    assert code == 0
    assert out.count("<polyline") == 22


def test_unknown_flag_is_usage_error():
    code, _, err = _run(["audit", "--frobnicate"])
    assert code == 1
    assert err


def test_parse_error_exit_one():
    code, _, err = _run(["validate", "--k", "3", "-"], stdin_text="{broken")
    assert code == 1
    assert "invalid JSON" in err


def test_missing_file_exit_one(tmp_path):
    code, _, err = _run(["validate", "--k", "3", str(tmp_path / "absent.json")])
    assert code == 1


def test_reports_are_byte_stable():
    _, drawing, _ = _run(["generate", "--n", "6"])
    _, a, _ = _run(["audit", "--k", "3", "--format", "json", "-"], stdin_text=drawing)
    _, b, _ = _run(["audit", "--k", "3", "--format", "json", "-"], stdin_text=drawing)
    assert a == b
