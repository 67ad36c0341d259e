"""The SVG layout kernel against the dict-based oracle in ``_layout_oracle``.

Coordinates are compared through ``repr``, so that a difference in the last
bit or in the sign of zero fails the test, as it could show in the SVG.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import _layout_oracle as oracle
from conftest import spec_from
from test_properties import random_drawings

from crossing_ledger import DrawingSpec, build_map, export_figure, generate_optimal
from crossing_ledger.figures import _layout_component

FIXTURES = (
    "triangle_spec",
    "square_diagonals_spec",
    "ladder_spec",
    "bigon_spec",
    "one_sided_parallel_spec",
    "crossing_parallel_spec",
    "lonely_loop_spec",
    "pierced_loop_spec",
    "double_crossing_spec",
    "uncrossed_stick_spec",
    "far_middle_spec",
    "four_stick_triangle_spec",
    "mutual_stick_triangle_spec",
)


def _coords(layout: dict) -> list[tuple[str, str, str]]:
    return [(node, repr(x), repr(y)) for node, (x, y) in layout.items()]


def _agree(pmap, outer) -> None:
    """Both layouts of the component of ``outer``, with ``outer`` pinned."""
    comp = pmap.component_of(outer.nodes[0])
    nodes = sorted(
        node for node in (*pmap.vertices, *pmap.crossing_ids) if pmap.component_of(node) == comp
    )
    got = _layout_component(pmap, nodes, outer)
    assert _coords(got) == _coords(oracle._layout_component(pmap, nodes, outer.face_id))


def _default_outer_faces(pmap) -> list:
    """The face ``export_figure`` pins in each component when given no hint."""
    by_comp: dict[int, list] = {}
    for f in pmap.faces:
        by_comp.setdefault(pmap.component_of(f.nodes[0]), []).append(f)
    return [max(faces, key=lambda f: (f.length, f.face_id)) for faces in by_comp.values()]


def _check(pmap) -> None:
    for outer in _default_outer_faces(pmap):
        _agree(pmap, outer)
    assert export_figure(pmap, "svg") == oracle.to_svg(pmap)


def _check_every_hint(pmap) -> None:
    for outer in pmap.faces:
        _agree(pmap, outer)
        assert export_figure(pmap, "svg", outer.face_id) == oracle.to_svg(pmap, outer.face_id)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name, request):
    _check(build_map(request.getfixturevalue(name)))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_with_every_outer_face_hint(name, request):
    _check_every_hint(build_map(request.getfixturevalue(name)))


@pytest.mark.parametrize("n", [*range(6, 60, 2), 202])
def test_tight_family(n):
    pmap = build_map(generate_optimal(n))
    for outer in _default_outer_faces(pmap):
        _agree(pmap, outer)


def test_tight_family_every_outer_face_hint():
    _check_every_hint(build_map(generate_optimal(6)))


def test_one_neighbour_node():
    # A pendant edge inside a triangle: with the triangle's outside pinned,
    # the pendant's tip is a free node with a single neighbour.
    spec = spec_from(
        {"v1": (0, 0), "v2": (8, 0), "v3": (4, 6), "p": (4, 2)},
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "v1", "p")],
    )
    pmap = build_map(spec)
    assert any(len(set(f.nodes)) == 3 for f in pmap.faces)
    _check_every_hint(pmap)


def test_many_components():
    # Disjoint edges, two-edge paths and isolated vertices, interleaved in
    # name order, so that components and faces alternate in every listing.
    vertices, edges, rotations = [], [], {}
    for i in range(300):
        a, b = f"a{i:03d}", f"b{i:03d}"
        vertices += [a, b]
        edges.append((f"e{i}", a, b))
        rotations[a] = [(f"e{i}", "+")]
        rotations[b] = [(f"e{i}", "-")]
        if i % 3 == 0:
            c = f"c{i:03d}"
            vertices.append(c)
            edges.append((f"g{i}", b, c))
            rotations[b].append((f"g{i}", "+"))
            rotations[c] = [(f"g{i}", "-")]
        if i % 5 == 0:
            vertices.append(f"z{i:03d}")
    spec = DrawingSpec.build(
        vertices=vertices,
        edges=edges,
        chains={e: [] for e, _, _ in edges},
        crossings={},
        rotations=rotations,
    )
    pmap = build_map(spec)
    assert export_figure(pmap, "svg") == oracle.to_svg(pmap)
    hint = pmap.faces[len(pmap.faces) // 2].face_id
    assert export_figure(pmap, "svg", hint) == oracle.to_svg(pmap, hint)


@settings(max_examples=60, deadline=None)
@given(random_drawings())
def test_random_straight_line_drawings(spec):
    pmap = build_map(spec)
    _check(pmap)
    for outer in pmap.faces:
        _agree(pmap, outer)
