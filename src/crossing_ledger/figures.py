"""Static figure export: DOT for the planarization, SVG on an integer grid.

The SVG is an exact planar drawing of the planarization, with straight
segments between integer points.  Each vertex and crossing has a point of
its own; drawn segments meet only at a node that both end at; around every
node the segments leave in the counterclockwise order of its rotation; and in
each component the hinted face, otherwise the longest, is drawn outermost.
So parallel edges and loops bound the regions that tell them apart, as in
the drawing itself.

Each component is drawn in three stages over flat int tables:

1. ``_triangulate`` makes the planarization simple and triangulates it.  A
   loop gets two bend points, and a segment parallel to an earlier one gets
   one.  Every face longer than 3, and the chosen outer face, gets a hub
   joined to each corner.  A face whose walk repeats a node gets a ring
   instead: one point against each side, joined to both ends of that side,
   to its ring neighbours and to the hub.  Every added edge has a new point
   as an end, so the graph stays simple.
2. ``_canonical_order`` peels points from the outer triangle: the first two
   corners of the outer face and its hub.
3. ``_shift`` places the points by the shift method of de Fraysseix, Pach
   and Pollack ("How to draw a planar graph on a grid", Combinatorica 10,
   1990), with the linear-time offsets of Chrobak and Payne ("A linear-time
   algorithm for drawing a planar graph on a grid", IPL 54, 1995).

A component of ``N`` points, bends, hubs and rings included, fills a grid of
``2N - 4`` by ``N - 2`` steps of ``_GRID`` SVG units.  Bends are drawn as
corners of their edge's polyline; hubs and rings are never drawn.  Grid y
points up, so the SVG's y is its negation.
"""

from __future__ import annotations

from .drawing import PlanarizedMap
from .errors import BadArgument, BadHint

_GRID = 10  # SVG units per grid step

# A vertex label as SVG text: markup characters as entities, and the
# characters XML 1.0 forbids (controls other than tab, newline and carriage
# return, U+FFFE and U+FFFF) as visible ``\uXXXX`` text.  Ids hold no
# surrogate, which ``DrawingSpec.build`` refuses.
_LABEL = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;",
    **{chr(c): f"\\u{c:04x}" for c in (*range(0x20), 0xFFFE, 0xFFFF) if c not in (9, 10, 13)},
})


def export_figure(pmap: PlanarizedMap, format: str, outer_face_hint: str | None = None) -> str:
    outer = None
    if outer_face_hint is not None:
        # Face ``f{i}`` is the map's face walk ``i``.
        outer = next((i for i in range(len(pmap._walks)) if f"f{i}" == outer_face_hint), None)
        if outer is None:
            raise BadHint(f"no face named {outer_face_hint!r}")
    if format == "dot":
        return _to_dot(pmap)
    if format == "svg":
        return _to_svg(pmap, outer)
    raise BadArgument(f"unknown figure format {format!r}")


def _quoted(name: str) -> str:
    r"""``name`` as a DOT quoted ID: ``"`` written ``\"`` and ``\`` written ``\\``,
    so that no id, not even one ending in a backslash, ends the string early."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(pmap: PlanarizedMap) -> str:
    lines = ["graph drawing {", "  node [fixedsize=true, width=0.3];"]
    for v in pmap.vertices:
        lines.append(f"  {_quoted(v)} [shape=circle];")
    for c in pmap.crossing_ids:
        lines.append(f'  {_quoted(c)} [shape=square, label=""];')
    for e in pmap.edge_ids:
        seq = [_quoted(node) for node in pmap._node_seq[e]]
        label = _quoted(e)
        for i in range(len(seq) - 1):
            lines.append(f"  {seq[i]} -- {seq[i + 1]} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _triangulate(pmap: PlanarizedMap, index: dict[str, int], hinted: int | None):
    """Bend points, the triangulation's rotations, and each component's outer triangle.

    Faces are the map's face walks, face ``f{i}`` at index ``i``; ``hinted``
    is the index of the hinted outer face, if any.  Points
    ``0 .. len(index) - 1`` are the map's nodes; bends follow, then
    hubs and rings.  Returns ``path``, ``rot`` and ``outers``: ``path[d]``
    lists the points after dart ``d``'s tail, its bends and then its head;
    ``rot[p]`` lists ``p``'s neighbours counterclockwise; and ``outers``
    holds, per component in id order, its outer triangle ``(v1, v2, vn)``,
    or ``(v,)`` for an isolated vertex.
    """
    path = [(index[h],) for h in pmap._head]
    rot: list[list[int]] = [[] for _ in index]
    seen: set[tuple[int, int]] = set()
    for s in range(len(path) // 2):
        (u,), (v,) = path[2 * s + 1], path[2 * s]
        if u != v and (u, v) not in seen:
            seen.update([(u, v), (v, u)])
            continue
        bent = tuple(range(len(rot), len(rot) + 1 + (u == v)))
        line = (u, *bent, v)
        rot += [[line[i - 1], line[i + 1]] for i in range(1, len(line) - 1)]
        path[2 * s], path[2 * s + 1] = (*bent, v), (*bent[::-1], u)
    for name, i in index.items():
        rot[i] = [path[d][0] for d in pmap._rot[name]]
    drawn = len(rot)  # nodes and bends: the only corners of faces

    comp, head, walks = pmap._components, pmap._head, pmap._walks
    by_comp: dict[int, list[int]] = {}
    for i, walk in enumerate(walks):
        by_comp.setdefault(comp[head[walk[0]]], []).append(i)
    # ``ins[p, q]`` goes into q's rotation right after p: into the wedge of
    # the face to the right of the dart p -> q.
    ins: dict[tuple[int, int], tuple[int, ...]] = {}
    triangles = {}
    for c, faces in by_comp.items():
        outer = hinted if hinted in faces else max(faces, key=lambda i: (len(walks[i]), f"f{i}"))
        for f in faces:
            corners = [p for d in walks[f] for p in path[d]]
            size = len(corners)
            if size == 3 and f != outer:
                continue
            hub = len(rot)
            rot.append([])
            if len(set(corners)) == size:
                spokes = corners
                for p, q in zip(corners[-1:] + corners[:-1], corners):
                    ins[p, q] = (hub,)
            else:
                spokes = list(range(hub + 1, hub + 1 + size))
                # Ring point j lies against the side p -> q; counterclockwise
                # it sees the next ring point, q, p, the previous one, the hub.
                for j, (p, q) in enumerate(zip(corners, corners[1:] + corners[:1])):
                    ring, after = spokes[j], spokes[(j + 1) % size]
                    ins[p, q] = (ring, after)
                    rot.append([after, q, p, spokes[j - 1], hub])
            # The face lies to the right of its walk, so the hub sees the
            # spokes clockwise.
            rot[hub] = spokes[::-1]
            if f == outer:
                triangles[c] = (spokes[0], spokes[1], hub)
    for u in range(drawn):
        rot[u] = [p for v in rot[u] for p in (v, *ins.get((v, u), ()))]

    first: dict[int, int] = {}
    for name, i in index.items():
        first.setdefault(comp[name], i)
    return path, rot, [triangles.get(c) or (first[c],) for c in sorted(first)]


def _canonical_order(rot, v1, v2, vn, left, right, chords, state) -> list:
    """A canonical ordering of the triangulated component with outer face
    ``v1 -> v2 -> vn``, peeled from ``vn`` down.

    Each step ``(v, a, covered, b)`` peels a contour point ``v`` with no
    chord: ``a`` and ``b`` are its left and right contour neighbours, and
    ``covered`` lists, left to right, its neighbours between them, which
    join the contour as ``v`` leaves it.  Read backwards, the steps add the
    points in canonical order, each above the contour path ``a, *covered, b``.
    ``left`` and ``right`` link the contour from ``v1`` to ``v2``, ``chords``
    counts each contour point's chords, and ``state`` is 0 inside, 1 on the
    contour, 2 peeled, 3 joining the contour; all four are scratch tables of
    the caller, zero on this component.
    """
    state[v1] = state[v2] = state[vn] = 1
    right[v1], left[vn], right[vn], left[v2] = vn, v1, v2, vn
    steps = []
    ready = [vn]
    while ready:
        v = ready.pop()
        if state[v] != 1 or chords[v] or v == v1 or v == v2:
            continue
        state[v] = 2
        a, b = left[v], right[v]
        nbrs = rot[v]
        i = nbrs.index(a) + 1
        nbrs = nbrs[i:] + nbrs[:i]
        covered = nbrs[: nbrs.index(b)]
        steps.append((v, a, covered, b))
        if not covered:  # the chord a - b joins the contour
            chords[a] -= 1
            chords[b] -= 1
            right[a], left[b] = b, a
            ready += (a, b)
            continue
        for p, q in zip([a, *covered], [*covered, b]):
            right[p], left[q] = q, p
        for u in covered:
            state[u] = 3
        for u in covered:
            for w in rot[u]:
                if state[w] & 1 and w != left[u] and w != right[u]:
                    chords[u] += 1
                    chords[w] += state[w] == 1  # a chord between new points counts from both
        for u in covered:
            state[u] = 1
        ready += covered
    return steps


def _shift(rot: list[list[int]], outers: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Integer points of every triangulated component, side by side from left to right."""
    n = len(rot)
    left, right, chords, state = [0] * n, [0] * n, [0] * n, [0] * n
    # ``dx[p]`` is p's x less its parent's: its left contour neighbour while
    # on the contour, then the point that covered it or the one before it.
    x, y, dx = [0] * n, [0] * n, [0] * n
    lchild, rchild = [-1] * n, [-1] * n
    offset = 0
    for outer in outers:
        if len(outer) == 1:
            x[outer[0]] = offset
            offset += 2
            continue
        v1, v2, vn = outer
        rchild[v1] = v2
        steps = _canonical_order(rot, v1, v2, vn, left, right, chords, state)
        for v, a, covered, b in reversed(steps):
            # Shift the covered points right by 1, and b and what follows by 2.
            if covered:
                dx[covered[0]] += 1
                dx[b] += 1
                span = sum([dx[u] for u in covered]) + dx[b]
            else:
                dx[b] += 2
                span = dx[b]
            dx[v] = (span + y[b] - y[a]) // 2
            y[v] = (span + y[a] + y[b]) // 2
            dx[b] = span - dx[v]
            rchild[a], rchild[v] = v, b
            if covered:
                dx[covered[0]] -= dx[v]
                lchild[v] = covered[0]
                rchild[covered[-1]] = -1
        x[v1] = offset
        stack = [v1]
        while stack:
            p = stack.pop()
            for c in (lchild[p], rchild[p]):
                if c >= 0:
                    x[c] = x[p] + dx[c]
                    stack.append(c)
        offset = x[v2] + 2
    return x, y


def _to_svg(pmap: PlanarizedMap, hinted: int | None) -> str:
    index = {name: i for i, name in enumerate((*pmap.vertices, *pmap.crossing_ids))}
    path, rot, outers = _triangulate(pmap, index, hinted)
    x, y = _shift(rot, outers)
    drawn = len(index) + sum(len(p) - 1 for p in path[::2])  # nodes, then bends
    xs = [v * _GRID for v in x[:drawn]]
    ys = [-v * _GRID for v in y[:drawn]]
    pad = 12
    min_x, max_x = min(xs, default=0) - pad, max(xs, default=0) + pad
    min_y, max_y = min(ys, default=0) - pad, max(ys, default=0) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{min_x} {min_y} '
        f'{max_x - min_x} {max_y - min_y}">',
    ]
    point = [f"{x},{y}" for x, y in zip(xs, ys)]
    for e in pmap.edge_ids:
        first, last = pmap._first[e], pmap._last[e]
        points = [point[path[first + 1][-1]]]  # end_a, the head of its first dart's twin
        points += [point[p] for d in range(first, last, 2) for p in path[d]]
        lines.append(
            f'  <polyline points="{" ".join(points)}" fill="none" stroke="black" stroke-width="1"/>'
        )
    for v in pmap.vertices:
        p = index[v]
        lines.append(f'  <circle cx="{xs[p]}" cy="{ys[p]}" r="3" fill="black"/>')
        lines.append(
            f'  <text x="{xs[p] + 4}" y="{ys[p] - 4}" font-size="8">'
            f'{v.translate(_LABEL)}</text>'
        )
    for c in pmap.crossing_ids:
        p = index[c]
        lines.append(f'  <rect x="{xs[p] - 2}" y="{ys[p] - 2}" width="4" height="4" fill="gray"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
