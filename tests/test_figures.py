from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import pytest

from crossing_ledger import BadHint, build_map, export_figure
from crossing_ledger.generator import generate_optimal


def test_dot_triangle(triangle_spec):
    text = export_figure(build_map(triangle_spec), "dot")
    assert text.count("shape=circle") == 3
    assert text.count("shape=square") == 0
    assert text.count(" -- ") == 3


def test_dot_crossing_is_square(square_diagonals_spec):
    text = export_figure(build_map(square_diagonals_spec), "dot")
    assert text.count("shape=square") == 1
    assert text.count("shape=circle") == 4
    assert text.count(" -- ") == 8  # one line per segment


def test_svg_polyline_per_edge():
    pmap = build_map(generate_optimal(6))
    text = export_figure(pmap, "svg")
    assert text.count("<polyline") == 22
    ET.fromstring(text)  # well-formed XML


def test_svg_outer_face_hint(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    export_figure(pmap, "svg", outer_face_hint=pmap.faces[0].face_id)
    with pytest.raises(BadHint):
        export_figure(pmap, "svg", outer_face_hint="f99")


def test_svg_of_the_benchmark_drawing_is_pinned():
    # The SVG the ``render`` benchmark exports, as the dict-based layout wrote it.
    text = export_figure(build_map(generate_optimal(202)), "svg")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "181966dcc7f8f52847c4a32a98a5125a049edfebcf682426a493c05a9e2df52a"
    )


def test_svg_is_deterministic(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    assert export_figure(pmap, "svg") == export_figure(pmap, "svg")


def test_unknown_format_rejected(triangle_spec):
    with pytest.raises(ValueError):
        export_figure(build_map(triangle_spec), "png")
