"""Extraction of the largest crossing-free substructure of a drawing.

The edges that pairwise never cross form an independent set in the
crossing-conflict graph; the skeleton is a maximum such set (exact mode) or
a good one (greedy mode).  Exact search runs branch-and-bound per connected
conflict component with a greedy lower bound and a degree-based upper bound,
then reconstructs the lexicographically smallest maximum so results are
byte-stable.  The skeleton's faces are regions of the drawing's own map,
each bounded by one or more walks (see :class:`SkeletonDecomposition`).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .drawing import FaceWalk, PlanarizedMap
from .errors import BadArgument, BudgetExceeded, InvariantError
from .interchange import _TEMPLATE, _block, _ints, _quote, _strings

DEFAULT_EXACT_BUDGET = 24


class ConflictGraph(NamedTuple):
    """Edges of the drawing as nodes; adjacency means "these two edges cross"."""

    nodes: tuple[str, ...]
    adjacency: dict[str, frozenset[str]]
    pairs: tuple[tuple[str, str], ...]

    def components(self) -> list[list[str]]:
        seen: set[str] = set()
        out: list[list[str]] = []
        for start in self.nodes:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            out.append(sorted(comp))
        return out


def conflict_graph(pmap: PlanarizedMap) -> ConflictGraph:
    adj: dict[str, set[str]] = {e: set() for e in pmap.edge_ids}
    pairs: set[tuple[str, str]] = set()
    for e, f in pmap.spec.crossings.values():
        adj[e].add(f)
        adj[f].add(e)
        pairs.add((min(e, f), max(e, f)))
    return ConflictGraph(
        nodes=tuple(sorted(adj)),
        adjacency={e: frozenset(s) for e, s in adj.items()},
        pairs=tuple(sorted(pairs)),
    )


# -- exact maximum independent set -------------------------------------------
#
# Components are tiny in practice (the generated family yields 8-node
# components), so a plain include/exclude branch on the max-degree vertex
# with incumbent pruning is plenty.  The chosen indices depend only on a
# component's bitmasks ``nbr``, so one call solves each distinct ``nbr`` once.


class _MisSolver:
    def __init__(self, ids: list[str], adjacency: dict[str, frozenset[str]]):
        self.ids = sorted(ids)
        index = {e: i for i, e in enumerate(self.ids)}
        self.n = len(self.ids)
        self.nbr = [0] * self.n
        for e in self.ids:
            m = 0
            for f in adjacency[e]:
                if f in index:
                    m |= 1 << index[f]
            self.nbr[index[e]] = m
        self.full = (1 << self.n) - 1

    def greedy_set(self) -> list[int]:
        """Delete the max-degree vertex (ties by smallest id) until independent."""
        alive = self.full
        while True:
            degs = [(alive & self.nbr[i]).bit_count() if alive >> i & 1 else -1 for i in range(self.n)]
            top = max(degs)
            if top <= 0:
                break
            alive &= ~(1 << degs.index(top))
        return [i for i in range(self.n) if alive >> i & 1]

    def _upper_bound(self, mask: int) -> int:
        n = mask.bit_count()
        if n == 0:
            return 0
        twice_m = 0
        max_deg = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            d = (mask & self.nbr[i]).bit_count()
            twice_m += d
            if d > max_deg:
                max_deg = d
        if max_deg == 0:
            return n
        # A vertex cover needs at least ceil(m / max_deg) vertices.
        edges = twice_m // 2
        return n - (edges + max_deg - 1) // max_deg

    def max_size(self, mask: int | None = None, floor: int = 0) -> int:
        return self._search(self.full if mask is None else mask, 0, floor)

    def _search(self, cand: int, size: int, best: int) -> int:
        """The larger of ``best`` and ``size`` plus a maximum independent set of ``cand``."""
        if size + self._upper_bound(cand) <= best:
            return best
        if cand == 0:
            return max(best, size)
        # branch on the max-degree candidate, smallest index on ties
        pivot, pivot_deg = -1, -1
        m = cand
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            d = (cand & self.nbr[i]).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = i, d
        if pivot_deg == 0:
            return max(best, size + cand.bit_count())
        best = self._search(cand & ~(self.nbr[pivot] | (1 << pivot)), size + 1, best)
        return self._search(cand & ~(1 << pivot), size, best)

    def reaches(self, mask: int, need: int) -> bool:
        if need <= 0:
            return True
        return self.max_size(mask, floor=need - 1) >= need

    def lexicographically_smallest_maximum(self) -> list[int]:
        """Indices into ``ids`` of the smallest maximum independent set."""
        target = self.max_size(floor=len(self.greedy_set()))
        chosen: list[int] = []
        cand = self.full
        for i in range(self.n):
            if not (cand >> i & 1):
                continue
            rest = cand & ~(self.nbr[i] | (1 << i)) & ~((1 << (i + 1)) - 1)
            if self.reaches(rest, target - len(chosen) - 1):
                chosen.append(i)
                cand = rest
                if len(chosen) == target:
                    break
        assert len(chosen) == target
        return chosen


class SkeletonDecomposition(NamedTuple):
    """A chosen crossing-free edge set and the faces it cuts the drawing into.

    A skeleton face is a region of the full map, its faces joined across
    residual segments, bounded by one closed walk over skeleton darts or by
    several when it touches several skeleton components.  A walk dart is the
    full-map dart that leaves its skeleton edge's tail: the first segment
    forward, or the last segment backward.  A position indexes the face's
    walks concatenated.  ``occurrences`` is indexed by full-map dart: on
    every segment of a skeleton edge it holds the (face id, position) of
    the walk dart in the same direction, and on a residual dart None.
    """

    full_map: PlanarizedMap
    skeleton_edges: tuple[str, ...]
    residual_edges: tuple[str, ...]
    mode: str
    faces: tuple[FaceWalk, ...]
    occurrences: list[tuple[str, int] | None]
    hosts: tuple[str, ...]

    @property
    def optimal_certificate(self) -> bool:
        """Whether the skeleton is a proven maximum, which only exact mode finds."""
        return self.mode == "exact"

    def face_of_dart(self, d: int) -> tuple[str, int] | None:
        """(face id, position) of the walk dart on ``d``'s skeleton edge, in
        ``d``'s direction; ``d`` may lie on any segment of the edge.  None on
        a residual dart, and :class:`BadArgument` for what is no dart."""
        return self.occurrences[self.full_map._checked(d)]

    def host_of_dart(self, d: int) -> str:
        """Id of the skeleton face holding the full-map face right of ``d``."""
        return self.hosts[self.full_map._dart_face[self.full_map._checked(d)]]

    # The keys of ``to_dict``, in order.
    _keys = (
        "mode", "optimal_certificate", "skeleton_edges", "residual_edges", "skeleton_size",
        "faces",
    )

    def to_dict(self) -> dict:
        return dict(zip(self._keys, (
            self.mode,
            self.optimal_certificate,
            list(self.skeleton_edges),
            list(self.residual_edges),
            len(self.skeleton_edges),
            [f.to_dict() for f in self.faces],
        ), strict=True))

    def _json(self, depth: int) -> str:
        """``to_dict()`` as the report writer writes it at ``depth``, made from the fields."""
        deeper = depth + 1
        return _TEMPLATE[self._keys, depth, True] % (
            _quote(self.mode),
            "true" if self.optimal_certificate else "false",
            _strings(self.skeleton_edges, deeper),
            _strings(self.residual_edges, deeper),
            len(self.skeleton_edges),
            _block([_face_json(f, deeper + 1) for f in self.faces], deeper),
        )


def _face_json(face: FaceWalk, depth: int) -> str:
    """``face.to_dict()`` as the report writer writes it at ``depth``."""
    deeper = depth + 1
    walks = (_ints(face.walks, deeper),) if len(face.walks) > 1 else ()
    return _TEMPLATE[face._keys, depth, bool(walks)] % (
        _quote(face.face_id),
        len(face.darts),
        _strings(face.nodes, deeper),
        _strings(face.edges, deeper),
        *walks,
    )


def _skeleton_faces(pmap: PlanarizedMap, kept: set[str]):
    """(faces, occurrences, hosts) of a :class:`SkeletonDecomposition`.

    Walks are the face orbits of the skeleton's rotation system, which is the
    full rotation restricted to skeleton darts, started in the order
    :func:`~crossing_ledger.drawing.restrict` traces faces.  A walk lies in the
    region of the full face right of its first dart: the full faces that
    residual segments join, labelled by one flood when its first walk starts,
    so regions are numbered in the order of their first walk.
    """

    nxt, dart_edge, first, last = pmap._next, pmap._dart_edge, pmap._first, pmap._last
    map_walks, face_of = pmap._walks, pmap._dart_face

    region = [-1] * len(map_walks)
    regions: list[list[list[int]]] = []
    seen: set[int] = set()
    for e in sorted(kept):
        for d in (first[e], last[e]):
            if d in seen:
                continue
            start = face_of[d]
            if region[start] < 0:
                # Residual segments do not separate skeleton faces: flood across them.
                region[start] = len(regions)
                stack = [start]
                while stack:
                    for x in map_walks[stack.pop()]:
                        other = face_of[x ^ 1]
                        if region[other] < 0 and dart_edge[x] not in kept:
                            region[other] = len(regions)
                            stack.append(other)
                regions.append([])
            walk: list[int] = []
            regions[region[start]].append(walk)
            while d not in seen:
                seen.add(d)
                walk.append(d)
                # Arrive at the far end, then turn to the next skeleton dart
                # counterclockwise; the reversal of the arriving dart is one,
                # so the turn stops there at the latest.
                x = dart_edge[d]
                d = nxt[first[x] + 1 if d & 1 else last[x] - 1]
                while dart_edge[d] not in kept:
                    d = nxt[d ^ 1]

    # Every dart of a skeleton edge in one direction (every other dart from
    # the first of that direction) shares its walk dart's occurrence.
    occurrences: list[tuple[str, int] | None] = [None] * len(nxt)
    faces, ends = [], pmap._ends
    for walks in regions:
        fid = f"f{len(faces)}"
        darts = tuple(chain.from_iterable(walks))
        edges = tuple([dart_edge[d] for d in darts])
        for pos, (d, e) in enumerate(zip(darts, edges)):
            lo = first[e] + (d & 1)
            occurrences[lo:last[e] + 1:2] = [(fid, pos)] * ((last[e] - lo) // 2 + 1)
        nodes = tuple([ends[e][(d & 1) ^ 1] for e, d in zip(edges, darts)])
        faces.append(FaceWalk(fid, darts, nodes, edges, tuple(map(len, walks))))

    if -1 in region:
        raise InvariantError(
            "decompose-hostless", f"face f{region.index(-1)} is not bounded by any skeleton edge"
        )
    face_ids = [f"f{r}" for r in range(len(faces))]
    return tuple(faces), occurrences, tuple([face_ids[r] for r in region])


def _check_decomposition(conflicts: ConflictGraph, kept: set[str]) -> None:
    for e, f in conflicts.pairs:
        if e in kept and f in kept:
            raise InvariantError("skeleton-independence", f"kept edges {e} and {f} cross")
    for e in conflicts.nodes:
        if e not in kept and not (conflicts.adjacency[e] & kept):
            raise InvariantError(
                "skeleton-maximality", f"residual edge {e} crosses no kept edge"
            )


def _assemble(
    pmap: PlanarizedMap, conflicts: ConflictGraph, kept: set[str], mode: str
) -> SkeletonDecomposition:
    _check_decomposition(conflicts, kept)
    skeleton = tuple(sorted(kept))
    residual = tuple(sorted(set(pmap.edge_ids) - kept))
    return SkeletonDecomposition(
        pmap, skeleton, residual, mode, *_skeleton_faces(pmap, kept)
    )


def extract_skeleton(
    pmap: PlanarizedMap, mode: str = "exact", budget: int = DEFAULT_EXACT_BUDGET
) -> SkeletonDecomposition:
    """Chosen crossing-free substructure of the drawing.

    ``exact`` finds a maximum independent set per conflict component
    (deterministic tie-break: the lexicographically smallest edge-id set
    among the maxima) and raises :class:`BudgetExceeded` when a component
    exceeds ``budget`` nodes; callers must fall back to ``greedy``
    explicitly.  ``greedy`` deletes the max-conflict-degree edge (ties by
    smallest id) until no conflicts remain, then restores any deleted edge
    that turned out conflict-free so the result is maximal.
    """
    if mode not in ("exact", "greedy"):
        raise BadArgument(f"unknown skeleton mode {mode!r}")
    conflicts = conflict_graph(pmap)
    return _assemble(pmap, conflicts, _independent_edges(conflicts, mode, budget), mode)


def _independent_edges(conflicts: ConflictGraph, mode: str, budget: int) -> set[str]:
    """The edges :func:`extract_skeleton` keeps: the uncrossed ones and a set per component."""
    kept = {e for e in conflicts.nodes if not conflicts.adjacency[e]}
    solved: dict[tuple[int, ...], list[int]] = {}
    for comp in [c for c in conflicts.components() if len(c) > 1]:
        if mode == "exact" and len(comp) > budget:
            raise BudgetExceeded(
                f"conflict component with {len(comp)} edges (starting at {comp[0]}) "
                f"exceeds the exact-search budget of {budget}; rerun in greedy mode"
            )
        solver = _MisSolver(comp, conflicts.adjacency)
        if mode == "exact":
            shape = tuple(solver.nbr)
            if shape not in solved:
                solved[shape] = solver.lexicographically_smallest_maximum()
            kept.update([solver.ids[i] for i in solved[shape]])
        else:
            picked = {solver.ids[i] for i in solver.greedy_set()}
            for e in solver.ids:  # maximality pass
                if e not in picked and not (conflicts.adjacency[e] & picked):
                    picked.add(e)
            kept.update(picked)
    return kept


def decompose_with(pmap: PlanarizedMap, skeleton_edges) -> SkeletonDecomposition:
    """Decomposition around a caller-chosen crossing-free edge set.

    The set must be independent in the conflict graph and maximal (every
    left-out edge crosses a kept one); useful for auditing a specific
    substructure rather than the computed maximum.
    """
    kept = {str(e) for e in skeleton_edges}
    unknown = kept - set(pmap.edge_ids)
    if unknown:
        raise BadArgument(f"not edges of this map: {sorted(unknown)}")
    return _assemble(pmap, conflict_graph(pmap), kept, mode="manual")
