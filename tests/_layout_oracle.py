"""The original dict-based SVG layout, kept as a test oracle.

``crossing_ledger.figures`` runs the same Gauss–Seidel sweeps over flat
coordinate lists and groups faces by component in one pass.  This module
keeps the code it replaced, verbatim: ``_layout_component`` holds positions
in a dict of tuples and looks neighbours up on every update, and ``to_svg``
(the old ``_to_svg``) rescans every face for every component.
``tests/test_layout_oracle.py`` checks that both give the same coordinates
bit for bit, the sign of zero included, and the same SVG.
"""

from __future__ import annotations

import math

from crossing_ledger.drawing import PlanarizedMap
from crossing_ledger.errors import BadHint


def _layout_component(
    pmap: PlanarizedMap, nodes: list[str], outer_face_id: str, iterations: int = 300
) -> dict[str, tuple[float, float]]:
    outer = pmap.face(outer_face_id)
    pinned: dict[str, tuple[float, float]] = {}
    distinct: list[str] = []
    for node in outer.nodes:
        if node not in distinct:
            distinct.append(node)
    r = 100.0
    for i, node in enumerate(distinct):
        angle = 2 * math.pi * i / len(distinct)
        pinned[node] = (r * math.cos(angle), r * math.sin(angle))

    pos = {node: pinned.get(node, (0.0, 0.0)) for node in nodes}
    free = [node for node in nodes if node not in pinned]
    neighbors = {
        node: [pmap.head(d) for d in pmap.rotation(node)] for node in nodes
    }
    for _ in range(iterations):
        for node in free:
            nbrs = neighbors[node]
            if not nbrs:
                continue
            x = sum(pos[v][0] for v in nbrs) / len(nbrs)
            y = sum(pos[v][1] for v in nbrs) / len(nbrs)
            pos[node] = (x, y)
    return pos


def to_svg(pmap: PlanarizedMap, outer_face_hint: str | None = None) -> str:
    face_ids = {f.face_id for f in pmap.faces}
    if outer_face_hint is not None and outer_face_hint not in face_ids:
        raise BadHint(f"no face named {outer_face_hint!r}")

    comp_nodes: dict[int, list[str]] = {}
    for v in pmap.vertices:
        comp_nodes.setdefault(pmap.component_of(v), []).append(v)
    for c in pmap.crossing_ids:
        comp_nodes.setdefault(pmap.component_of(c), []).append(c)

    pos: dict[str, tuple[float, float]] = {}
    offset = 0.0
    for comp in sorted(comp_nodes):
        nodes = sorted(comp_nodes[comp])
        faces = [f for f in pmap.faces if pmap.component_of(f.nodes[0]) == comp]
        if not faces:  # isolated vertex
            pos[nodes[0]] = (offset, 0.0)
            offset += 60.0
            continue
        if outer_face_hint is not None and any(f.face_id == outer_face_hint for f in faces):
            outer = outer_face_hint
        else:
            outer = max(faces, key=lambda f: (f.length, f.face_id)).face_id
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
