"""The SVG's layout, read back from the SVG and checked with integer arithmetic.

For every drawing and outer-face hint checked:

- every printed coordinate is an integer, and each vertex, crossing and bend
  sits at a point of its own;
- drawn segments, those through bends included, meet only at a point that
  both end at (a Shamos–Hoey sweep with exact orientation tests);
- around each node, the counterclockwise order of its drawn segments is its
  rotation (``generator._ccw_sort``), with no two in one direction;
- in each component, the hinted face, otherwise the longest, is the only
  face whose walk has a non-negative signed area with y pointing up.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from math import gcd

import pytest
from hypothesis import given, settings

import _fixtures
from _fixtures import spec_from
from test_properties import random_drawings

from crossing_ledger import DrawingSpec, build_map, export_figure, generate_optimal
from crossing_ledger.generator import _ccw_sort

SVG = "{http://www.w3.org/2000/svg}"
FIXTURES = sorted(name for name in dir(_fixtures) if name.endswith("_spec"))


def _orient(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within(p, q, r) -> bool:
    """``r``, collinear with ``p`` and ``q``, lies on the segment between them."""
    return all(min(p[i], q[i]) <= r[i] <= max(p[i], q[i]) for i in (0, 1))


def _meet_badly(s, t) -> bool:
    """Segments ``(a, b)`` meet other than at an end that both share."""
    shared = {*s} & {*t}
    if len(shared) == 1:  # overlap along a common direction from the shared end
        (o,) = shared
        p, q = s[s[0] == o], t[t[0] == o]
        dot = (p[0] - o[0]) * (q[0] - o[0]) + (p[1] - o[1]) * (q[1] - o[1])
        return _orient(o, p, q) == 0 and dot > 0
    if shared:
        return True  # the same segment twice
    d1, d2 = _orient(*t, s[0]), _orient(*t, s[1])
    d3, d4 = _orient(*s, t[0]), _orient(*s, t[1])
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    touches = ((d1, t, s[0]), (d2, t, s[1]), (d3, s, t[0]), (d4, s, t[1]))
    return any(d == 0 and _within(*seg, r) for d, seg, r in touches)


def _above(s, t) -> bool:
    """``s``, starting at the sweep point, lies above ``t``, which spans it;
    fails if ``s`` starts on ``t``, or shares its start and overlaps it."""
    o = _orient(t[0], t[1], s[0])
    if o == 0:
        assert s[0] == t[0], f"{s} starts on {t}"
        o = _orient(s[0], t[1], s[1])
        assert o != 0, f"{s} overlaps {t}"
    return o > 0


def _sweep(segments) -> None:
    """Fail on two segments that meet badly: each pair that becomes adjacent
    in the sweep order is tested, which finds the leftmost bad meeting."""
    events = sorted([(a, 1, (a, b)) for a, b in segments] + [(b, 0, (a, b)) for a, b in segments])
    status: list = []  # bottom to top; at a point, segments end before others start
    for _, starts, s in events:
        if starts:
            lo, hi = 0, len(status)
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if _above(s, status[mid]) else (lo, mid)
            status.insert(lo, s)
            for t in status[max(lo - 1, 0) : lo] + status[lo + 1 : lo + 2]:
                assert not _meet_badly(s, t), (s, t)
        else:
            i = status.index(s)
            del status[i]
            if 0 < i < len(status):
                assert not _meet_badly(status[i - 1], status[i]), (status[i - 1], status[i])


def _read(pmap, text: str):
    """Node points, and each segment's points from its ``end_a`` side, from the SVG."""
    root = ET.fromstring(text)
    circles, rects = root.findall(SVG + "circle"), root.findall(SVG + "rect")
    assert (len(circles), len(rects)) == (len(pmap.vertices), len(pmap.crossing_ids))
    pos = {v: (int(c.get("cx")), -int(c.get("cy"))) for v, c in zip(pmap.vertices, circles)}
    for c, r in zip(pmap.crossing_ids, rects):
        pos[c] = (int(r.get("x")) + 2, -int(r.get("y")) - 2)
    pieces = {}
    for e, line in zip(pmap.edge_ids, root.iter(SVG + "polyline"), strict=True):
        points = [(int(x), -int(y)) for x, y in (p.split(",") for p in line.get("points").split())]
        seq = pmap.node_sequence(e)
        assert points[0] == pos[seq[0]]
        start = 0
        for seg, node in enumerate(seq[1:]):
            end = points.index(pos[node], start + 1)
            pieces[e, seg] = points[start : end + 1]
            start = end
        assert start == len(points) - 1
    return pos, pieces


def _check(pmap, hint: str | None = None) -> None:
    pos, pieces = _read(pmap, export_figure(pmap, "svg", hint))
    bends = [p for piece in pieces.values() for p in piece[1:-1]]
    assert len({*pos.values(), *bends}) == len(pos) + len(bends)

    segments = [tuple(sorted(ab)) for piece in pieces.values() for ab in zip(piece, piece[1:])]
    _sweep(segments)
    for v in pmap.vertices:
        if not pmap.rotation(v):  # an isolated vertex lies on no segment
            assert not any(_meet_badly((pos[v], pos[v]), t) for t in segments), v

    def after(d):
        """The points after dart ``d``'s tail, up to its head."""
        e, seg, direction = pmap.describe(d)
        return pieces[e, seg][1:] if direction == 1 else pieces[e, seg][-2::-1]

    for node, p in pos.items():
        ends = [after(d)[0] for d in pmap.rotation(node)]
        vectors = [(q[0] - p[0], q[1] - p[1]) for q in ends]
        assert len({(x // gcd(x, y), y // gcd(x, y)) for x, y in vectors}) == len(vectors), node
        order = _ccw_sort(vectors)
        if order:
            turn = order.index(0)
            assert order[turn:] + order[:turn] == list(range(len(order))), node

    by_comp: dict[int, list] = {}
    for f in pmap.faces:
        by_comp.setdefault(pmap.component_of(f.nodes[0]), []).append(f)
    for faces in by_comp.values():
        hinted = [f for f in faces if f.face_id == hint]
        outer = hinted[0] if hinted else max(faces, key=lambda f: (f.length, f.face_id))
        for f in faces:
            walk = [p for d in f.darts for p in after(d)]
            area = sum(_orient((0, 0), p, q) for p, q in zip(walk, walk[1:] + walk[:1]))
            assert (area >= 0) == (f is outer), (f.face_id, area)


def _check_every_hint(pmap) -> None:
    for hint in (None, *(f.face_id for f in pmap.faces)):
        _check(pmap, hint)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name, request):
    _check(build_map(request.getfixturevalue(name)))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_with_every_outer_face_hint(name, request):
    _check_every_hint(build_map(request.getfixturevalue(name)))


@pytest.mark.parametrize("n", [*range(6, 60, 2), 202])
def test_tight_family(n):
    _check(build_map(generate_optimal(n)))


def test_tight_family_every_outer_face_hint():
    _check_every_hint(build_map(generate_optimal(6)))


def test_one_neighbour_node():
    # A pendant edge inside a triangle: the face around it repeats v1.
    spec = spec_from(
        {"v1": (0, 0), "v2": (8, 0), "v3": (4, 6), "p": (4, 2)},
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "v1", "p")],
    )
    pmap = build_map(spec)
    assert any(len(set(f.nodes)) < f.length for f in pmap.faces)
    _check_every_hint(pmap)


def test_many_components():
    # Disjoint edges, two-edge paths and isolated vertices, interleaved in
    # name order, so that components and faces alternate in every listing.
    vertices, edges, rotations = [], [], {}
    for i in range(300):
        a, b, c = f"a{i:03d}", f"b{i:03d}", f"c{i:03d}"
        vertices += [a, b]
        edges.append((f"e{i}", a, b))
        rotations[a], rotations[b] = [(f"e{i}", "+")], [(f"e{i}", "-")]
        if i % 3 == 0:
            vertices.append(c)
            edges.append((f"g{i}", b, c))
            rotations[b].append((f"g{i}", "+"))
            rotations[c] = [(f"g{i}", "-")]
        if i % 5 == 0:
            vertices.append(f"z{i:03d}")
    pmap = build_map(DrawingSpec.build(vertices, edges, rotations=rotations))
    _check(pmap)
    _check(pmap, pmap.faces[len(pmap.faces) // 2].face_id)


@settings(max_examples=60, deadline=None)
@given(random_drawings())
def test_random_straight_line_drawings(spec):
    pmap = build_map(spec)
    _check_every_hint(pmap)


def test_free_hub_of_degree_6400():
    # A wheel with the rim outside and a hub of degree 6400 inside it.
    k = 6400
    rim = [f"r{i:04d}" for i in range(k)]
    edges = [(f"e{i:04d}", rim[i], rim[(i + 1) % k]) for i in range(k)]
    edges += [(f"s{i:04d}", "hub", rim[i]) for i in range(k)]
    rotations = {r: [(f"e{i:04d}", "+"), (f"s{i:04d}", "-"), (f"e{(i - 1) % k:04d}", "-")]
                 for i, r in enumerate(rim)}
    rotations["hub"] = [(f"s{i:04d}", "+") for i in range(k)]
    pmap = build_map(DrawingSpec.build(["hub", *rim], edges, rotations=rotations))
    assert max(f.length for f in pmap.faces) == k
    _check(pmap)


def test_component_without_free_nodes():
    # A triangle and a disjoint edge: every node lies on its component's
    # outer face.
    spec = spec_from(
        {"v1": (0, 0), "v2": (4, 0), "v3": (2, 3), "w1": (10, 0), "w2": (12, 0)},
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "w1", "w2")],
    )
    _check_every_hint(build_map(spec))


def test_ids_with_code_characters():
    # Quotes, brackets and backslashes in ids change nothing of the layout.
    hub = 'p")#(\'\\'
    spec = spec_from(
        {"v)1": (0, 0), "#v2": (8, 0), "'v3'": (4, 6), hub: (4, 2), '"v4"': (6, -3)},
        [("a)", "v)1", "#v2"), ("#b", "#v2", "'v3'"), ('c"', "'v3'", "v)1"), ("d#)", hub, "v)1"),
         ("e'", hub, "#v2"), ('f"(', hub, "'v3'"), ("g\\", '"v4"', "'v3'")],
    )
    pmap = build_map(spec)
    assert pmap.crossing_ids
    _check_every_hint(pmap)
