"""Static figure export: DOT for the planarization, SVG via a spring layout.

Topology is the contract; geometry here is cosmetic.  The SVG layout pins a
chosen outer face on a circle and relaxes every other node to the average of
its rotation neighbors (fixed iteration count, so output is deterministic).

The SVG is byte-stable, and the coordinates are printed to two decimals,
where the last bit of a value and the sign of zero can show (``-0.00`` and
``0.00`` differ).  So the order of the Gauss–Seidel updates is part of the
output contract: free nodes in sorted order within each sweep, each node's
neighbours in rotation order with repeats kept, added one at a time from
left to right to ``0.0``, and the total divided by the degree written as a
float literal (``k.0``).  These give the bits that the integers 0 and ``k``
of the test oracle give, since Python converts such an int exactly to the same
double before it adds or divides (``0 + -0.0`` and ``0.0 + -0.0`` are both
``+0.0``); as floats they let CPython take its float-only addition.  Plain
float additions give the same bits on every Python version.  The x and
y axes never read each other, so the sweeps of x may run before those of y.
``tests/_layout_oracle.py`` keeps the original dict-based layout, and
``tests/test_layout_oracle.py`` checks that the two agree bit for bit.

Each component's relaxation (``_compile_relaxation``) holds every
coordinate in a cell that the generated sweep functions share as closure
variables, so an update reads and writes a cell, not a list item.  A sweep
is split into functions of at most ``_NODES_PER_FUNCTION`` free nodes,
which bounds the memory a compilation takes.  One function per component,
with every coordinate in a fast local, ran the layout about 10% faster at
n = 202, but its compilation took memory in proportion to the component:
the maximum RSS of an ``export --figure svg`` process (CPython 3.11, 2-CPU
container) was 78 MB, against 45 MB with the bound, for the tight drawing at
n = 802, and 259 MB against 132 MB at n = 3202.
"""

from __future__ import annotations

import math
from types import CellType, FunctionType
from typing import Callable

from .drawing import FaceWalk, PlanarizedMap
from .errors import BadArgument, BadHint


def export_figure(pmap: PlanarizedMap, format: str, outer_face_hint: str | None = None) -> str:
    if outer_face_hint is not None and outer_face_hint not in {f.face_id for f in pmap.faces}:
        raise BadHint(f"no face named {outer_face_hint!r}")
    if format == "dot":
        return _to_dot(pmap)
    if format == "svg":
        return _to_svg(pmap, outer_face_hint)
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
        seq = [_quoted(node) for node in pmap.node_sequence(e)]
        label = _quoted(e)
        for i in range(len(seq) - 1):
            lines.append(f"  {seq[i]} -- {seq[i + 1]} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Bounds on the generated sweep code: free nodes per compiled function, and
# terms per addition chain.  Python's compiler recurses once per term of a
# chain, so an unbounded chain at a high-degree node (a pole of the tight
# family has degree 2n) raises RecursionError; the node bound keeps the size
# of each compiled function, and the memory its compilation takes, small.
_NODES_PER_FUNCTION = 128
_TERMS_PER_SUM = 32
_SWEEPS = 300  # Gauss–Seidel sweeps per axis: the layout's fixed iteration count


def _compile_relaxation(
    sweep: list[tuple[int, list[int]]], size: int
) -> Callable[[list[float]], list[float]]:
    """All ``_SWEEPS`` Gauss–Seidel sweeps of one axis as one function.

    ``sweep`` holds, in update order, each free node's index and its
    neighbours' indices, into a coordinate list of ``size`` entries.  The
    returned function takes such a list and returns the relaxed coordinates
    as a new list.  Coordinate ``i`` lives in a cell that every generated
    function naming it shares as its closure variable ``c<i>``.  A sweep
    sets ``c<i> = (0.0 + c<a> + c<b> + ...) / k.0`` for every entry, with
    ``k`` the number of neighbours.  The leading ``0.0`` turns a lone
    ``-0.0`` term into ``+0.0``.  A longer sum is folded left to right
    through a temporary, ``_TERMS_PER_SUM`` terms per statement.  Only
    integer indices and float literals reach the generated source.  Without
    free nodes nothing is compiled: the function copies the list.
    """
    if not sweep:
        return list
    cells = [CellType() for _ in range(size)]
    funcs = []
    for start in range(0, len(sweep), _NODES_PER_FUNCTION):
        part = sweep[start : start + _NODES_PER_FUNCTION]
        # ``bind`` only makes the names closure variables of ``sweep``; its
        # own cells are dropped and the code is closed over the shared ones.
        used = sorted({j for i, nbrs in part for j in (i, *nbrs)})
        lines = [
            f"def bind({', '.join(f'c{j}' for j in used)}):",
            "    def sweep():",
            f"        nonlocal {', '.join(f'c{i}' for i, _ in part)}",
        ]
        for i, nbrs in part:
            terms = [f"c{j}" for j in nbrs]
            total = "0.0"
            while len(terms) > _TERMS_PER_SUM:
                lines.append(f"        t = {' + '.join([total, *terms[:_TERMS_PER_SUM]])}")
                total, terms = "t", terms[_TERMS_PER_SUM:]
            lines.append(f"        c{i} = ({' + '.join([total, *terms])}) / {len(nbrs)}.0")
        lines.append("    return sweep")
        namespace: dict = {}
        exec(compile("\n".join(lines), "<layout sweep>", "exec"), namespace)
        code = namespace.pop("bind")(*used).__code__  # no function <-> namespace cycle
        closure = tuple(cells[int(name[1:])] for name in code.co_freevars)
        funcs.append(FunctionType(code, {}, "sweep", None, closure))
    sweeps = range(_SWEEPS)

    def relax(coords: list[float]) -> list[float]:
        for cell, value in zip(cells, coords):
            cell.cell_contents = value
        for _ in sweeps:
            for f in funcs:
                f()
        return [cell.cell_contents for cell in cells]

    return relax


def _layout_component(
    pmap: PlanarizedMap, nodes: list[str], outer: FaceWalk
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

    # Free nodes in ``nodes`` order, each with its neighbours in rotation
    # order, repeats kept.  Every node here lies on a face, so it has at
    # least one neighbour.
    pinned = set(distinct)
    head = pmap._head
    sweep = [
        (i, [index[head[d]] for d in pmap.rotation(node)])
        for i, node in enumerate(nodes)
        if node not in pinned
    ]
    relax = _compile_relaxation(sweep, len(nodes))
    return dict(zip(nodes, zip(relax(xs), relax(ys))))


def _to_svg(pmap: PlanarizedMap, outer_face_hint: str | None) -> str:
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
    point = {node: f"{x:.2f},{y:.2f}" for node, (x, y) in pos.items()}
    for e in pmap.edge_ids:
        points = " ".join([point[v] for v in pmap.node_sequence(e)])
        lines.append(
            f'  <polyline points="{points}" fill="none" stroke="black" stroke-width="1"/>'
        )
    for v in pmap.vertices:
        x, y = pos[v]
        lines.append(f'  <circle cx="{fmt(x)}" cy="{fmt(y)}" r="3" fill="black"/>')
        lines.append(
            f'  <text x="{fmt(x + 4)}" y="{fmt(y - 4)}" font-size="8">'
            f'{v.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")}</text>'
        )
    for c in pmap.crossing_ids:
        x, y = pos[c]
        lines.append(
            f'  <rect x="{fmt(x - 2)}" y="{fmt(y - 2)}" width="4" height="4" fill="gray"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
