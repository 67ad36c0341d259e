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

Every frame face is a hexagon, so ``generate_optimal`` computes one gadget
and turns it into index rows in canonical order (``_indexed``).  One pass
over the frame map's faces then stamps each face's ids straight into the
final rows, which ``DrawingSpec.build`` validates without reordering or
re-anchoring anything.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .drawing import MINUS, PLUS, DrawingSpec, FaceWalk, _anchor_rotation, build_map
from .errors import BadN, NotHexagon

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


class HexGadget(NamedTuple):
    """Eight diagonals for one hexagonal face, as a partial drawing.

    ``corner_insertions`` lists, per corner occurrence, the rotation entries
    to splice into that corner's wedge, in counterclockwise order from the
    wedge's opening side.
    """

    prefix: str
    corners: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    chains: dict[str, tuple[str, ...]]
    crossings: dict[str, tuple[str, str]]
    crossing_rotations: dict[str, tuple[tuple[str, str], ...]]
    corner_insertions: dict[int, tuple[tuple[str, str], ...]]


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


def hexagon_gadget(
    face: FaceWalk, anchor: str | None = None, prefix: str = "G"
) -> HexGadget:
    """The eight interior diagonals for one hexagonal face.

    The face walk's vertex occurrences map to the corners of a convex
    hexagon; ``anchor`` picks which occurrence plays corner 0.  Raises
    :class:`NotHexagon` unless the face is a 6-walk over six distinct
    vertices.
    """
    if face.length != 6 or len(set(face.nodes)) != 6:
        raise NotHexagon(
            f"face {face.face_id} is a {face.length}-walk over "
            f"{len(set(face.nodes))} distinct vertices; need 6 over 6"
        )
    corners = list(face.nodes)
    if anchor is not None:
        if anchor not in corners:
            raise NotHexagon(f"anchor {anchor} is not on face {face.face_id}")
        i = corners.index(anchor)
        corners = corners[i:] + corners[:i]

    edge_ids = [f"{prefix}.{slot}" for slot in range(len(_DIAGONALS))]
    edges = tuple(
        (edge_ids[slot], corners[p], corners[q]) for slot, (p, q) in enumerate(_DIAGONALS)
    )

    # Proper crossings among the diagonals, with exact positions.
    crossing_ids: dict[tuple[int, int], str] = {}
    params: dict[int, list] = {slot: [] for slot in range(8)}
    counter = 0
    for i in range(8):
        for j in range(i + 1, 8):
            (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
            if not chords_interleave(a, b, c, d):
                continue
            cid = f"{prefix}.x{counter}"
            counter += 1
            crossing_ids[(i, j)] = cid
            p1, p2 = _HEX_POINTS[a], _HEX_POINTS[b]
            p3, p4 = _HEX_POINTS[c], _HEX_POINTS[d]
            t = _intersection_param(p1, p2, p3, p4)
            s = _intersection_param(p3, p4, p1, p2)
            params[i].append((t, cid))
            params[j].append((s, cid))

    chains = {
        edge_ids[slot]: tuple(cid for _, cid in sorted(params[slot], key=cmp_to_key(_param_order)))
        for slot in range(8)
    }
    crossings = {cid: (edge_ids[i], edge_ids[j]) for (i, j), cid in crossing_ids.items()}

    # Rotation at each crossing: the four outgoing directions sorted
    # counterclockwise; transversality makes them alternate automatically.
    crossing_rotations: dict[str, tuple[tuple[str, str], ...]] = {}
    for (i, j), cid in crossing_ids.items():
        entries = []
        vectors = []
        for slot in (i, j):
            p, q = _DIAGONALS[slot]
            direction = _sub(_HEX_POINTS[q], _HEX_POINTS[p])
            vectors.append(direction)
            entries.append((edge_ids[slot], "+"))
            vectors.append((-direction[0], -direction[1]))
            entries.append((edge_ids[slot], "-"))
        order = _ccw_sort(vectors)
        crossing_rotations[cid] = tuple(entries[t] for t in order)

    # Insertions at each corner: diagonals leaving that corner, sorted
    # counterclockwise across the interior wedge (which opens from the
    # direction of the previous corner around to the next corner).
    corner_insertions: dict[int, tuple[tuple[str, str], ...]] = {}
    for k in range(6):
        entries = []
        vectors = []
        for slot, (p, q) in enumerate(_DIAGONALS):
            if k == p:
                vectors.append(_sub(_HEX_POINTS[q], _HEX_POINTS[p]))
                entries.append((edge_ids[slot], "+"))
            elif k == q:
                vectors.append(_sub(_HEX_POINTS[p], _HEX_POINTS[q]))
                entries.append((edge_ids[slot], "-"))
        # A convex corner spans less than a half turn, so within the wedge the
        # pairwise cross product is a total counterclockwise order.
        order = sorted(
            range(len(entries)),
            key=cmp_to_key(lambda i, j: -_sign(_cross(vectors[i], vectors[j]))),
        )
        corner_insertions[k] = tuple(entries[t] for t in order)

    return HexGadget(
        prefix=prefix,
        corners=tuple(corners),
        edges=edges,
        chains=chains,
        crossings=crossings,
        crossing_rotations=crossing_rotations,
        corner_insertions=corner_insertions,
    )


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _indexed(gadget: HexGadget) -> tuple[list, ...]:
    """The gadget's rows in canonical order, with each id and corner as its index.

    Ids are numbered edges first, then crossings, each in sorted order; the
    end ``(edge i, "+")`` is ``2i`` and ``(edge i, "-")`` is ``2i + 1``.
    Returns the ids, the rows ``(edge, corner, corner)`` and ``(crossing,
    edge, edge)``, and :func:`_picker` functions that take each chain from
    the ids, and each anchored crossing rotation and each corner's spliced
    ends from the ends.  Prefixing every id keeps this order and anchoring.
    """
    edges = sorted(gadget.edges)
    cross_ids = sorted(gadget.crossings)
    ids = [e for e, _, _ in edges] + cross_ids
    index = {x: i for i, x in enumerate(ids)}
    corner = {c: k for k, c in enumerate(gadget.corners)}

    def ends(rot):
        return _picker([2 * index[e] + (d == MINUS) for e, d in rot])

    return (
        ids,
        [(index[e], corner[a], corner[b]) for e, a, b in edges],
        [(index[c], *map(index.__getitem__, gadget.crossings[c])) for c in cross_ids],
        [_picker([index[c] for c in gadget.chains[e]]) for e, _, _ in edges],
        [ends(_anchor_rotation(gadget.crossing_rotations[c])) for c in cross_ids],
        [ends(gadget.corner_insertions[k]) for k in range(len(gadget.corners))],
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
    walk = walks[0]
    face = FaceWalk("f0", tuple(walk), tuple([head[d] for d in walk]),
                    tuple([fmap._dart_edge[d] for d in walk]), (len(walk),))
    # Every frame face is a hexagon, so one exact computation serves them all.
    names, edge_rows, cross_rows, chain_of, rotation_of, spliced_at = _indexed(
        hexagon_gadget(face, anchor=u, prefix="")
    )
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
