"""Static figure export: DOT for the planarization, SVG via a spring layout.

Topology is the contract; geometry here is cosmetic.  The SVG layout pins a
chosen outer face on a circle and relaxes every other node to the average of
its rotation neighbors (fixed iteration count, so output is deterministic).

The SVG is byte-stable, and the coordinates are printed to two decimals,
where the last bit of a value and the sign of zero can show (``-0.00`` and
``0.00`` differ).  So the order of the Gauss–Seidel updates is part of the
output contract: free nodes in sorted order within each sweep, each node's
neighbours in rotation order with repeats kept, summed left to right by
``sum`` (which starts from the integer 0) and divided by the integer degree.
``tests/_layout_oracle.py`` keeps the original dict-based layout, and
``tests/test_layout_oracle.py`` checks that the two agree bit for bit.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .drawing import FaceWalk, PlanarizedMap
from .errors import BadHint


def export_figure(pmap: PlanarizedMap, format: str, outer_face_hint: str | None = None) -> str:
    if format == "dot":
        return _to_dot(pmap)
    if format == "svg":
        return _to_svg(pmap, outer_face_hint)
    raise ValueError(f"unknown figure format {format!r}")


def _to_dot(pmap: PlanarizedMap) -> str:
    lines = ["graph drawing {", "  node [fixedsize=true, width=0.3];"]
    for v in pmap.vertices:
        lines.append(f'  "{v}" [shape=circle];')
    for c in pmap.crossing_ids:
        lines.append(f'  "{c}" [shape=square, label=""];')
    for e in pmap.edge_ids:
        seq = pmap.node_sequence(e)
        for i in range(len(seq) - 1):
            lines.append(f'  "{seq[i]}" -- "{seq[i + 1]}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _layout_component(
    pmap: PlanarizedMap, nodes: list[str], outer: FaceWalk, iterations: int = 300
) -> dict[str, tuple[float, float]]:
    index = {node: i for i, node in enumerate(nodes)}
    xs = [0.0] * len(nodes)
    ys = [0.0] * len(nodes)
    distinct = list(dict.fromkeys(outer.nodes))
    r = 100.0
    for i, node in enumerate(distinct):
        angle = 2 * math.pi * i / len(distinct)
        xs[index[node]] = r * math.cos(angle)
        ys[index[node]] = r * math.sin(angle)

    # One (index, getter, degree) per free node, in ``nodes`` order.  The
    # getter returns the neighbours' coordinates in rotation order, repeats
    # kept; a slice keeps the one-neighbour case a sequence.  Every node here
    # lies on a face, so it has at least one neighbour.
    pinned = set(distinct)
    sweep = []
    for i, node in enumerate(nodes):
        if node in pinned:
            continue
        nbrs = [index[pmap.head(d)] for d in pmap.rotation(node)]
        get = itemgetter(*nbrs) if len(nbrs) > 1 else itemgetter(slice(nbrs[0], nbrs[0] + 1))
        sweep.append((i, get, len(nbrs)))
    for _ in range(iterations):
        for i, get, k in sweep:
            xs[i] = sum(get(xs)) / k
            ys[i] = sum(get(ys)) / k
    return dict(zip(nodes, zip(xs, ys)))


def _to_svg(pmap: PlanarizedMap, outer_face_hint: str | None = None) -> str:
    face_ids = {f.face_id for f in pmap.faces}
    if outer_face_hint is not None and outer_face_hint not in face_ids:
        raise BadHint(f"no face named {outer_face_hint!r}")

    comp_nodes: dict[int, list[str]] = {}
    for v in pmap.vertices:
        comp_nodes.setdefault(pmap.component_of(v), []).append(v)
    for c in pmap.crossing_ids:
        comp_nodes.setdefault(pmap.component_of(c), []).append(c)

    comp_faces: dict[int, list[FaceWalk]] = {}
    for f in pmap.faces:
        comp_faces.setdefault(pmap.component_of(f.nodes[0]), []).append(f)

    pos: dict[str, tuple[float, float]] = {}
    offset = 0.0
    for comp in sorted(comp_nodes):
        nodes = sorted(comp_nodes[comp])
        faces = comp_faces.get(comp)
        if not faces:  # isolated vertex
            pos[nodes[0]] = (offset, 0.0)
            offset += 60.0
            continue
        hinted = [f for f in faces if f.face_id == outer_face_hint]
        outer = hinted[0] if hinted else max(faces, key=lambda f: (f.length, f.face_id))
        local = _layout_component(pmap, nodes, outer)
        for node, (x, y) in local.items():
            pos[node] = (x + offset + 100.0, y)
        offset += 260.0

    xs = [p[0] for p in pos.values()] or [0.0]
    ys = [p[1] for p in pos.values()] or [0.0]
    pad = 12.0
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad

    def fmt(x: float) -> str:
        return f"{x:.2f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(min_x)} {fmt(min_y)} '
        f'{fmt(max_x - min_x)} {fmt(max_y - min_y)}">',
    ]
    for e in pmap.edge_ids:
        seq = pmap.node_sequence(e)
        points = " ".join(f"{fmt(pos[v][0])},{fmt(pos[v][1])}" for v in seq)
        lines.append(
            f'  <polyline points="{points}" fill="none" stroke="black" stroke-width="1"/>'
        )
    for v in pmap.vertices:
        x, y = pos[v]
        lines.append(f'  <circle cx="{fmt(x)}" cy="{fmt(y)}" r="3" fill="black"/>')
        lines.append(
            f'  <text x="{fmt(x + 4)}" y="{fmt(y - 4)}" font-size="8">{v}</text>'
        )
    for c in pmap.crossing_ids:
        x, y = pos[c]
        lines.append(
            f'  <rect x="{fmt(x - 2)}" y="{fmt(y - 2)}" width="4" height="4" fill="gray"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
