"""Construction of the densest drawings with three crossings per edge.

The frame is a generalized theta graph: two poles joined by m = (n-2)/2
internally disjoint paths of length 3, embedded with the paths in cyclic
order.  Every face is then a 6-walk, and each face receives eight extra
edges drawn as the diagonals of a convex hexagon (all six short ones plus
two long ones), none crossed more than three times.  The total comes to
3(n-2)/2 + 8(n-2)/2 = 11n/2 - 11 edges.

Gadget combinatorics are computed in exact integer arithmetic on an
integer-coordinate convex hexagon (parameters compared by
cross-multiplication); crossing order along convex-position chords is a
combinatorial invariant, so any convex realization gives the same drawing.

Every frame face is a hexagon, so ``generate_optimal`` computes the gadget
once, as index rows in canonical order read straight from ``_HEX_POINTS``
and ``_DIAGONALS`` (``_template``): corners are walk positions and ids are
suffixes, not names.  One pass over the frame map's faces then stamps each
face's ids and corners straight into the final rows, which
``DrawingSpec.build`` validates without reordering or re-anchoring anything.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from .drawing import MINUS, PLUS, DrawingSpec, _anchor_rotation, build_map
from .errors import BadN

# Corner coordinates in walk order (the walk runs clockwise, so the face
# interior lies to the right of each boundary dart, matching map orientation).
_HEX_POINTS = ((0, 4), (3, 2), (3, -2), (0, -4), (-3, -2), (-3, 2))

# The frame's two poles, joined by its paths; every face's gadget is anchored
# at the first.
_POLES = ("u", "w")

# Diagonal slots: the six short diagonals then the two long ones.
_DIAGONALS = ((0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1), (0, 3), (1, 4))


def chords_interleave(a: int, b: int, c: int, d: int) -> bool:
    """Two chords of a convex hexagon cross iff their endpoints interleave."""
    if len({a, b, c, d}) < 4:
        return False

    def inside(x: int, lo: int, hi: int) -> bool:
        return (x - lo) % 6 < (hi - lo) % 6 and x != lo

    return inside(c, a, b) != inside(d, a, b)


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _intersection_param(p1, p2, p3, p4) -> tuple[int, int]:
    """Parameter t along p1->p2 of the proper intersection with p3->p4, as
    (numerator, positive denominator)."""
    r = _sub(p2, p1)
    s = _sub(p4, p3)
    denom = _cross(r, s)
    if denom == 0:
        raise ValueError("segments are parallel")
    num = _cross(_sub(p3, p1), s)
    if denom < 0:
        num, denom = -num, -denom
    if not 0 < num < denom:
        raise ValueError("segments do not properly intersect")
    return num, denom


def _param_order(a, b) -> int:
    """Compare ``(parameter, crossing id)`` entries by parameter, then by id."""
    return _sign(a[0][0] * b[0][1] - b[0][0] * a[0][1]) or (a[1] > b[1]) - (a[1] < b[1])


def _ccw_sort(vectors: list[tuple]) -> list[int]:
    """Indices of the vectors in counterclockwise angular order from +x."""

    def half(v) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i: int, j: int) -> int:
        u, v = vectors[i], vectors[j]
        if half(u) != half(v):
            return half(u) - half(v)
        c = _cross(u, v)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(range(len(vectors)), key=cmp_to_key(cmp))


def theta_frame(n: int, strict: bool = False) -> DrawingSpec:
    """Plane frame with (n-2)/2 hexagonal faces and 3(n-2)/2 edges."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 6 or n % 2 != 0:
        raise BadN(f"n must be an even integer >= 6; got {n!r}")
    if strict and (n - 2) % 4 != 0:
        raise BadN(f"strict mode requires n-2 divisible by 4; got n={n}")
    m = (n - 2) // 2
    u, w = _POLES
    paths = [(f"a{j}", f"b{j}") for j in range(m)]
    vertices = [u, w] + [v for pair in paths for v in pair]
    edges = []
    rotations: dict[str, list] = {u: [], w: []}
    for j, (a, b) in enumerate(paths):
        edges += [(f"F{j}.0", u, a), (f"F{j}.1", a, b), (f"F{j}.2", b, w)]
        rotations[a] = [(f"F{j}.0", "-"), (f"F{j}.1", "+")]
        rotations[b] = [(f"F{j}.1", "-"), (f"F{j}.2", "+")]
        rotations[u].append((f"F{j}.0", "+"))
    for j in reversed(range(m)):
        rotations[w].append((f"F{j}.2", "-"))
    return DrawingSpec.build(vertices=vertices, edges=edges, rotations=rotations)


def _template() -> tuple[list, ...]:
    """The gadget of one hexagonal face as index rows in canonical order.

    Corners are the positions 0-5 of the face walk, from its anchor.  Ids are
    the suffixes ``.slot`` of the diagonals and ``.xc`` of their crossings, c
    counting the crossing pairs in slot order; they are numbered edges first,
    then crossings, each in sorted order (``.x10`` before ``.x2``), and the
    end ``(edge i, "+")`` is ``2i`` and ``(edge i, "-")`` is ``2i + 1``, so
    the ends sort as the ids do.  Returns the ids, the rows ``(edge, corner,
    corner)`` and ``(crossing, edge, edge)``, and :func:`_picker` functions
    that take each chain from the ids, and each anchored crossing rotation
    and each corner's spliced ends from the ends.  Prefixing every id keeps
    this order and anchoring.
    """
    slots = range(len(_DIAGONALS))
    pairs = [(i, j) for i in slots for j in slots[i + 1:]
             if chords_interleave(*_DIAGONALS[i], *_DIAGONALS[j])]
    names = sorted(f".{s}" for s in slots) + sorted(f".x{c}" for c in range(len(pairs)))
    index = {x: i for i, x in enumerate(names)}
    edge = [index[f".{s}"] for s in slots]
    cross = [index[f".x{c}"] for c in range(len(pairs))]
    points = [(_HEX_POINTS[p], _HEX_POINTS[q]) for p, q in _DIAGONALS]

    # Proper crossings among the diagonals, with exact positions along each.
    # The four directions leaving a crossing, sorted counterclockwise,
    # alternate between its two diagonals by transversality.
    along: list[list] = [[] for _ in slots]
    rotations = []
    for c, (i, j) in enumerate(pairs):
        along[i].append((_intersection_param(*points[i], *points[j]), cross[c]))
        along[j].append((_intersection_param(*points[j], *points[i]), cross[c]))
        vectors = []
        for s in (i, j):
            v = _sub(points[s][1], points[s][0])
            vectors += [v, (-v[0], -v[1])]
        rot = [2 * edge[s] + t for s in (i, j) for t in (0, 1)]
        rotations.append(_anchor_rotation([rot[t] for t in _ccw_sort(vectors)]))

    # The diagonals leaving each corner, sorted counterclockwise across the
    # interior wedge (from the previous corner's direction to the next's).  A
    # convex corner spans less than a half turn, so within the wedge the
    # pairwise cross product is a total counterclockwise order.
    spliced = []
    for k, point in enumerate(_HEX_POINTS):
        out = [(_sub(_HEX_POINTS[q if k == p else p], point), 2 * edge[s] + (k == q))
               for s, (p, q) in enumerate(_DIAGONALS) if k in (p, q)]
        out.sort(key=cmp_to_key(lambda a, b: -_sign(_cross(a[0], b[0]))))
        spliced.append(_picker([end for _, end in out]))

    by_edge = sorted(slots, key=edge.__getitem__)
    by_cross = sorted(range(len(pairs)), key=cross.__getitem__)
    return (
        names,
        [(edge[s], *_DIAGONALS[s]) for s in by_edge],
        [(cross[c], edge[pairs[c][0]], edge[pairs[c][1]]) for c in by_cross],
        [_picker([x for _, x in sorted(along[s], key=cmp_to_key(_param_order))]) for s in by_edge],
        [_picker(rotations[c]) for c in by_cross],
        spliced,
    )


def _picker(row: list[int]) -> Callable[[list], tuple]:
    """A function from a list to the tuple of its entries at the indices in ``row``."""
    if len(row) > 1:
        return itemgetter(*row)  # a tuple, in C
    return lambda xs: tuple([xs[i] for i in row])


def generate_optimal(n: int, strict: bool = False) -> DrawingSpec:
    """Drawing on n vertices with 11n/2 - 11 edges, none crossed over 3 times."""
    frame = theta_frame(n, strict)
    fmap = build_map(frame)
    walks, head, rot_index = fmap._walks, fmap._head, fmap._rot_index

    # Face f{i}'s gadget takes the prefix G{q}, q its place in face-id order,
    # and the faces are stamped in the string order of q, the canonical order
    # of their ids.  Both orders sort numbers as strings, so face order[q] is
    # stamped at step q as well.
    order = sorted(range(len(walks)), key=str)
    u = _POLES[0]
    # Every frame face is a hexagon, so one exact computation serves them all.
    names, edge_rows, cross_rows, chain_of, rotation_of, spliced_at = _template()
    edge_count = len(edge_rows)

    # The frame's rows come first, as "F" < "G", and its ids are the smallest
    # at every vertex, so its anchored rotations stay anchored.  Each frame
    # rotation entry gets the list of gadget ends spliced in after it.
    edges = list(frame.edges)
    chains = dict(frame.chains)
    crossings: dict[str, tuple[str, str]] = {}
    rotations: dict[str, Sequence] = {}
    spliced = {v: [[entry] for entry in rot] for v, rot in frame.rotations.items()}
    for q in order:
        walk = walks[order[q]]
        prefix = f"G{q}"
        ids = [prefix + x for x in names]
        ends = [(e, d) for e in ids[:edge_count] for d in (PLUS, MINUS)]
        nodes = [head[d] for d in walk]
        k = nodes.index(u)
        corners, darts = nodes[k:] + nodes[:k], walk[k:] + walk[:k]
        edges += [(ids[e], corners[a], corners[b]) for e, a, b in edge_rows]
        chains.update(zip(ids[:edge_count], [pick(ids) for pick in chain_of]))
        for (c, e, f), pick in zip(cross_rows, rotation_of):
            crossings[ids[c]] = (ids[e], ids[f])
            rotations[ids[c]] = pick(ends)
        # The walk dart arriving at corner k and the one leaving it flank the
        # corner's wedge, and the second follows the reversal of the first in
        # the frame rotation; the gadget's ends at corner k go between them.
        for corner, dart, pick in zip(corners, darts, spliced_at):
            spliced[corner][rot_index[dart ^ 1]] += pick(ends)
    for v, rows in spliced.items():
        rotations[v] = list(chain.from_iterable(rows))

    return DrawingSpec.build(frame.vertices, edges, chains, crossings, rotations)
