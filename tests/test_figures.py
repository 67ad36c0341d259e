from __future__ import annotations

import hashlib
import os
import re
import xml.etree.ElementTree as ET

import pytest

from _fixtures import spec_from
from crossing_ledger import BadHint, CrossingLedgerError, build_map, export_figure
from crossing_ledger.generator import generate_optimal

# SHA-256 of the SVG of ``generate_optimal(202)``, the drawing the ``render``
# benchmark exports.
BENCHMARK_SVG = "0ee9715c37b7d30029f82fab561323ccf76cb3b6916592457bbea84a2ecd2c2f"


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


def test_ids_are_escaped():
    # Markup characters in SVG text, quotes and backslashes in DOT quoted IDs.
    ids = ["a<b&c", 'd"e', "x\\", "p>q"]
    spec = spec_from(
        dict(zip(ids, [(0, 0), (4, 0), (2, 3), (2, 1)])),
        [
            ("e&1", ids[0], ids[1]),
            ('e"2', ids[1], ids[2]),
            ("e\\3", ids[2], ids[0]),
            ("<e4>", ids[3], ids[0]),
        ],
    )
    pmap = build_map(spec)
    root = ET.fromstring(export_figure(pmap, "svg"))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == list(pmap.vertices)
    dot = export_figure(pmap, "dot")
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    names = {re.sub(r"\\(.)", r"\1", q) for q in quoted}
    assert names == {*ids, *pmap.edge_ids}


def test_svg_of_the_benchmark_drawing_is_pinned():
    text = export_figure(build_map(generate_optimal(202)), "svg")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BENCHMARK_SVG


def test_svg_layout_runs_in_the_calling_process(monkeypatch):
    def refuse():
        raise AssertionError("the layout forked")

    monkeypatch.setattr(os, "fork", refuse)
    test_svg_of_the_benchmark_drawing_is_pinned()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_svg_is_deterministic(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    assert export_figure(pmap, "svg") == export_figure(pmap, "svg")


def test_unknown_format_rejected(triangle_spec):
    # A typed error, and still the ValueError it was before it was typed.
    with pytest.raises(CrossingLedgerError, match="unknown figure format 'png'") as exc:
        export_figure(build_map(triangle_spec), "png")
    assert isinstance(exc.value, ValueError)
