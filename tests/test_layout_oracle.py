"""The SVG layout kernel against the dict-based oracle in ``_layout_oracle``.

Coordinates are compared through ``repr``, so that a difference in the last
bit or in the sign of zero fails the test, as it could show in the SVG.
"""

from __future__ import annotations

import builtins
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import _layout_oracle as oracle
from _fixtures import spec_from
from test_properties import random_drawings

from crossing_ledger import DrawingSpec, build_map, export_figure, generate_optimal
from crossing_ledger import figures
from crossing_ledger.figures import _compile_relaxation, _layout_component

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


def _component_nodes(pmap, outer) -> list[str]:
    comp = pmap.component_of(outer.nodes[0])
    return sorted(
        node for node in (*pmap.vertices, *pmap.crossing_ids) if pmap.component_of(node) == comp
    )


def _agree(pmap, outer) -> None:
    """Both layouts of the component of ``outer``, with ``outer`` pinned."""
    nodes = _component_nodes(pmap, outer)
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


def _reference_sweep(coords: list, sweep: list) -> None:
    """One Gauss–Seidel sweep, each sum added up from the integer 0 in order."""
    for i, nbrs in sweep:
        total = 0
        for j in nbrs:
            total = total + coords[j]
        coords[i] = total / len(nbrs)


def _relax(coords: list, sweep: list, sweeps: int, per_function: int) -> list:
    """``sweeps`` sweeps of the compiled relaxation, split into functions of
    ``per_function`` free nodes; both bounds are read when it is compiled."""
    with mock.patch.multiple(figures, _SWEEPS=sweeps, _NODES_PER_FUNCTION=per_function):
        relax = _compile_relaxation(sweep, len(coords))
    return relax(list(coords))


def _kernel_agrees(
    coords: list, sweep: list, sweeps: int = 1, per_function: int = figures._NODES_PER_FUNCTION
) -> list:
    got = _relax(coords, sweep, sweeps, per_function)
    want = list(coords)
    for _ in range(sweeps):
        _reference_sweep(want, sweep)
    assert [repr(v) for v in got] == [repr(v) for v in want]
    return got


def test_kernel_sum_starts_from_integer_zero():
    # -0.0 + -0.0 is -0.0, but 0 + -0.0 + -0.0 is 0.0.
    got = _kernel_agrees([1.0, -0.0, -0.0], [(0, [1, 2])])
    assert repr(got[0]) == "0.0"


def test_kernel_one_neighbour_at_negative_zero_gets_positive_zero():
    # A node whose one neighbour holds -0.0: the oracle's 0 + -0.0 is +0.0,
    # and so is the kernel's 0.0 + -0.0; divided by 1 it stays +0.0.
    got = _kernel_agrees([7.0, -0.0], [(0, [1])])
    assert math.copysign(1.0, got[0]) == 1.0


def test_kernel_exact_cancellation_gives_positive_zero():
    # Terms that cancel exactly sum to +0.0 in either order, and with a
    # trailing -0.0; the quotient keeps the sign.
    got = _kernel_agrees(
        [7.0, 7.0, 7.0, 2.5, -2.5, -0.0], [(0, [3, 4]), (1, [4, 3]), (2, [3, 4, 5])]
    )
    assert [math.copysign(1.0, v) for v in got[:3]] == [1.0, 1.0, 1.0]
    assert got[:3] == [0.0, 0.0, 0.0]


def test_kernel_adds_left_to_right_in_update_order():
    # (1 + 1e100) - 1e100 is 0, the reverse order gives 1; node 1 reads the
    # value node 0 got in the same sweep.
    got = _kernel_agrees([5.0, 5.0, 1.0, 1e100, -1e100], [(0, [2, 3, 4]), (1, [0, 0])])
    assert got[:2] == [0.0, 0.0]


def test_kernel_long_sums_are_split_and_folded_in_order():
    # 6400 terms of mixed magnitude, so that any other association or order
    # of the additions would show; an unsplit chain this long makes the
    # compiler raise RecursionError.
    rng = random.Random(6400)
    coords = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(6401)]
    nbrs = [rng.randrange(1, 6401) for _ in range(6400)]
    _kernel_agrees(coords, [(0, nbrs), *((i, [0, i + 1]) for i in range(1, 300))])


def test_kernel_compiles_nothing_without_free_nodes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled a relaxation without free nodes")

    monkeypatch.setattr(builtins, "compile", refuse)
    coords = [1.0, -0.0, 2.5]
    relax = _compile_relaxation([], len(coords))
    got = relax(coords)
    assert got is not coords
    assert [repr(v) for v in got] == [repr(v) for v in coords]


def test_kernel_runs_every_sweep_of_the_layout():
    # A path a - b - c with a and c pinned: b takes their mean in one sweep,
    # and the default relaxation runs _SWEEPS of them.
    sweep = [(1, [0, 2]), (2, [1])]
    relax = _compile_relaxation(sweep, 3)
    want = [4.0, 0.0, 0.0]
    for _ in range(figures._SWEEPS):
        _reference_sweep(want, sweep)
    assert [repr(v) for v in relax([4.0, 0.0, 0.0])] == [repr(v) for v in want]


@st.composite
def relaxations(draw):
    """Coordinates, a sweep over them, a sweep count and a bound on the free
    nodes per compiled function.

    More than 256 coordinates, so that closure variables past index 255 take
    ``EXTENDED_ARG``; repeated neighbours; some sums of more than
    ``_TERMS_PER_SUM`` terms; and small bounds, so that a function reads
    coordinates that other functions write in the same sweep.
    """
    size = draw(st.integers(257, 400))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e100, -1e100, 5e-324]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    coords = draw(st.lists(values, min_size=size, max_size=size))
    free = [*draw(st.lists(st.integers(0, size - 2), max_size=40, unique=True)), size - 1]
    index = st.integers(0, size - 1)
    sweep = []
    for i in free:
        degree = draw(st.sampled_from([1, 2, 3, 6, 33, 70]))
        nbrs = draw(st.lists(index, min_size=degree, max_size=degree))
        nbrs += draw(st.lists(st.sampled_from(nbrs), max_size=3))  # repeats
        sweep.append((i, nbrs))
    return coords, sweep, draw(st.integers(1, 4)), draw(st.sampled_from([1, 7, 128]))


@settings(max_examples=40, deadline=None)
@given(relaxations())
def test_kernel_matches_reference_sweeps(case):
    _kernel_agrees(*case)


def test_free_hub_of_degree_6400():
    # A wheel with the rim outside: the hub is the one free node and takes
    # the mean of 6400 pinned rim vertices.
    k = 6400
    rim = [f"r{i:04d}" for i in range(k)]
    edges = [(f"e{i:04d}", rim[i], rim[(i + 1) % k]) for i in range(k)]
    edges += [(f"s{i:04d}", "hub", rim[i]) for i in range(k)]
    rotations = {"hub": [(f"s{i:04d}", "+") for i in range(k)]}
    for i in range(k):
        rotations[rim[i]] = [(f"e{i:04d}", "+"), (f"s{i:04d}", "-"), (f"e{(i - 1) % k:04d}", "-")]
    spec = DrawingSpec.build(
        vertices=["hub", *rim],
        edges=edges,
        chains={e: [] for e, _, _ in edges},
        crossings={},
        rotations=rotations,
    )
    pmap = build_map(spec)
    (outer,) = _default_outer_faces(pmap)
    assert outer.length == k
    _agree(pmap, outer)


def test_component_without_free_nodes():
    # A triangle and a disjoint edge: every node lies on its component's
    # outer face, so nothing is relaxed.
    spec = spec_from(
        {"v1": (0, 0), "v2": (4, 0), "v3": (2, 3), "w1": (10, 0), "w2": (12, 0)},
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "w1", "w2")],
    )
    pmap = build_map(spec)
    for outer in _default_outer_faces(pmap):
        assert set(outer.nodes) == {
            node
            for node in (*pmap.vertices, *pmap.crossing_ids)
            if pmap.component_of(node) == pmap.component_of(outer.nodes[0])
        }
    _check(pmap)


def test_ids_with_code_characters():
    # Ids never reach the generated sweep code, only indices do.
    hub = 'p")#(\'\\'
    spec = spec_from(
        {"v)1": (0, 0), "#v2": (8, 0), "'v3'": (4, 6), hub: (4, 2), '"v4"': (6, -3)},
        [
            ("a)", "v)1", "#v2"),
            ("#b", "#v2", "'v3'"),
            ('c"', "'v3'", "v)1"),
            ("d#)", hub, "v)1"),
            ("e'", hub, "#v2"),
            ('f"(', hub, "'v3'"),
            ("g\\", '"v4"', "'v3'"),
        ],
    )
    pmap = build_map(spec)
    assert pmap.crossing_ids
    _check(pmap)
    _check_every_hint(pmap)

