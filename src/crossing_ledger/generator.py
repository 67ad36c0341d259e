"""Construction of the densest drawings with three crossings per edge.

The frame is a generalized theta graph: two poles joined by m = (n-2)/2
internally disjoint paths of length 3, embedded with the paths in cyclic
order.  Every face is then a 6-walk, and each face receives eight extra
edges drawn as the diagonals of a convex hexagon (all six short ones plus
two long ones), none crossed more than three times.  The total comes to
3(n-2)/2 + 8(n-2)/2 = 11n/2 - 11 edges.

Every frame face is a hexagon, so ``generate_optimal`` computes the gadget
once, as index rows in canonical order derived from ``_DIAGONALS`` and the
corners' cyclic order alone, with no coordinates (``_template``): corners are
walk positions and ids are suffixes, not names.  One pass over the frame
map's faces then stamps each face's ids and corners straight into the final
rows, which ``DrawingSpec.build`` validates without reordering or
re-anchoring anything.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from .drawing import MINUS, PLUS, DrawingSpec, _anchor_rotation, build_map
from .errors import BadN

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

    The diagonals are chords of a convex hexagon whose walk runs clockwise,
    so the corners' cyclic order decides everything:

    - Along a diagonal a->b, each diagonal crossing it has one end on the
      forward arc from a and one on the backward arc.  Sorted by the forward
      distance of the first end from a, then the backward distance of the
      second, they come in crossing order: two that do not cross each other
      are nested.  This is exact because no two diagonals that cross a third
      also cross each other: a hexagon's only pairwise-crossing triple is its
      three long diagonals, and ``_DIAGONALS`` holds two of them.
    - From any interior point the corners lie counterclockwise in decreasing
      position, so a crossing's ends, by the corner each leads to in
      decreasing order, are its rotation up to anchoring.
    - At corner k the ends sort by (k - other end) mod 6, ascending.
    """
    slots = range(len(_DIAGONALS))
    pairs = [(i, j) for i in slots for j in slots[i + 1:]
             if chords_interleave(*_DIAGONALS[i], *_DIAGONALS[j])]
    names = sorted(f".{s}" for s in slots) + sorted(f".x{c}" for c in range(len(pairs)))
    index = {x: i for i, x in enumerate(names)}
    edge = [index[f".{s}"] for s in slots]
    cross = [index[f".x{c}"] for c in range(len(pairs))]

    # Along diagonal a->b, the crossing diagonal's ends lie at forward
    # distance `near` and backward distance 6 - far from a.  At the
    # crossing, "+" leads to a diagonal's second corner and "-" to its first.
    along: list[list] = [[] for _ in slots]
    rotations = []
    for c, (i, j) in enumerate(pairs):
        for s, t in ((i, j), (j, i)):
            a = _DIAGONALS[s][0]
            near, far = sorted((x - a) % 6 for x in _DIAGONALS[t])
            along[s].append((near, 6 - far, cross[c]))
        leads = {2 * edge[s] + t: _DIAGONALS[s][1 - t] for s in (i, j) for t in (0, 1)}
        rotations.append(_anchor_rotation(sorted(leads, key=leads.get, reverse=True)))

    # At corner k the other end of diagonal (p, q) is p + q - k.
    spliced = []
    for k in range(6):
        out = {2 * edge[s] + (k == q): (2 * k - p - q) % 6
               for s, (p, q) in enumerate(_DIAGONALS) if k in (p, q)}
        spliced.append(_picker(sorted(out, key=out.get)))

    by_edge = sorted(slots, key=edge.__getitem__)
    by_cross = sorted(range(len(pairs)), key=cross.__getitem__)
    return (
        names,
        [(edge[s], *_DIAGONALS[s]) for s in by_edge],
        [(cross[c], edge[pairs[c][0]], edge[pairs[c][1]]) for c in by_cross],
        [_picker([x for *_, x in sorted(along[s])]) for s in by_edge],
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
    # The ends "+" and "-" of every edge, in the order of the ends' indices.
    edge_twice = _picker([i for i in range(len(edge_rows)) for _ in (PLUS, MINUS)])
    signs = (PLUS, MINUS) * len(edge_rows)
    # A face walk turned to start at position k.
    turns = [_picker([(k + i) % 6 for i in range(6)]) for k in range(6)]

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
        nodes = list(map(head.__getitem__, walk))
        turn = turns[nodes.index(u)]
        corners, darts = turn(nodes), turn(walk)
        prefix = f"G{q}"
        ids = [prefix + x for x in names]
        ends = list(zip(edge_twice(ids), signs))
        edges += [(ids[e], corners[a], corners[b]) for e, a, b in edge_rows]
        # zip stops after the edges, which are the first ids.
        chains.update(zip(ids, [pick(ids) for pick in chain_of]))
        for (c, e, f), pick in zip(cross_rows, rotation_of):
            crossings[ids[c]] = (ids[e], ids[f])
            rotations[ids[c]] = pick(ends)
        # The walk dart arriving at corner k and the one leaving it flank the
        # corner's wedge, and the second follows the reversal of the first in
        # the frame rotation; the gadget's ends at corner k go between them.
        for corner, dart, pick in zip(corners, darts, spliced_at):
            spliced[corner][rot_index[dart ^ 1]] += pick(ends)
    for v, rows in spliced.items():
        rotations[v] = tuple(chain.from_iterable(rows))

    return DrawingSpec.build(frame.vertices, edges, chains, crossings, rotations)
