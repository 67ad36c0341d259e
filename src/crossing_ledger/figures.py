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
y axes never read each other, so the sweeps of x may run before those of y,
or at the same time.
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

A component with at least ``_FORK_FREE_NODES`` free nodes relaxes its two
axes on two CPUs (``_relax_axes``).  After the compilation the process
forks one child, which relaxes y in its copy of the cells while the process
relaxes x.  The child writes the relaxed y to a pipe as raw IEEE doubles
(``array("d")`` bytes), so every bit, the sign of zero included, crosses
unchanged.  It ends in ``os._exit`` whatever happens, so it never returns
into the caller's stack, runs no ``atexit`` hook and flushes no inherited
stdio buffer.  The process always reaps it, and kills it first if its own
relaxation raises.  If the child exits non-zero or sends the wrong number
of bytes, the process relaxes y itself, which gives the same bits.  The
layout forks only where ``os.fork`` exists, the process may run on two CPUs
or more, and no other thread runs (a fork copies only the calling thread,
so the child could wait forever on a lock another thread held).  A fork and
its reaping take about 2 ms in a 35 MB process, and in-process layouts of
the tight family broke even between 100 and 150 free nodes (CPython 3.11.7,
2-CPU container); the threshold of 256 leaves a margin for larger
processes, whose forks copy more page tables.  At n = 202 (1297 free
nodes) an ``export --figure svg`` process takes about 270 ms against 315 ms
serially.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from types import CellType, FunctionType
from typing import Callable

from .drawing import FaceWalk, PlanarizedMap
from .errors import BadArgument, BadHint


def export_figure(pmap: PlanarizedMap, format: str, outer_face_hint: str | None = None) -> str:
    if format == "dot":
        return _to_dot(pmap)
    if format == "svg":
        return _to_svg(pmap, outer_face_hint)
    raise BadArgument(f"unknown figure format {format!r}")


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


# Bounds on the generated sweep code: free nodes per compiled function, and
# terms per addition chain.  Python's compiler recurses once per term of a
# chain, so an unbounded chain at a high-degree node (a pole of the tight
# family has degree 2n) raises RecursionError; the node bound keeps the size
# of each compiled function, and the memory its compilation takes, small.
_NODES_PER_FUNCTION = 128
_TERMS_PER_SUM = 32
_SWEEPS = 300  # Gauss–Seidel sweeps per axis: the layout's fixed iteration count
# Fewest free nodes for which relaxing y in a forked worker beats relaxing it
# here: below it the fork costs more than the axis (see the module docstring).
_FORK_FREE_NODES = 256


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
    return dict(zip(nodes, zip(*_relax_axes(relax, xs, ys, len(sweep)))))


def _may_fork(free: int) -> bool:
    """Whether relaxing ``free`` nodes' y in a forked worker can pay off."""
    if free < _FORK_FREE_NODES or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    try:  # Linux lists every thread of the process here, those started from C too
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        threading = sys.modules.get("threading")
        return threading is None or threading.active_count() == 1


def _relax_axes(
    relax: Callable[[list[float]], list[float]], xs: list[float], ys: list[float], free: int
) -> tuple[list[float], list[float]]:
    """``(relax(xs), relax(ys))``, the axes relaxed on two CPUs when worth it.

    A forked child relaxes y and writes the doubles to a pipe while this
    process relaxes x.  The child always ends in ``os._exit``; this process
    always reaps it, and relaxes y itself unless the child exited 0 with
    every value written.
    """
    if not _may_fork(free):
        return relax(xs), relax(ys)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return relax(xs), relax(ys)
    if pid == 0:  # the child: never returns into the caller's stack
        code = 1
        try:
            data = memoryview(array("d", relax(ys)).tobytes())
            while data:
                data = data[os.write(w, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    try:
        x = relax(xs)
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored): status unknown
            status = -1
    y = array("d")
    data = b"".join(chunks)
    if status != 0 or len(data) != y.itemsize * len(ys):
        return x, relax(ys)
    y.frombytes(data)
    return x, y.tolist()


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
            f'  <text x="{fmt(x + 4)}" y="{fmt(y - 4)}" font-size="8">{v}</text>'
        )
    for c in pmap.crossing_ids:
        x, y = pos[c]
        lines.append(
            f'  <rect x="{fmt(x - 2)}" y="{fmt(y - 2)}" width="4" height="4" fill="gray"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
