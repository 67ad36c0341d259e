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

from typing import NamedTuple

from .drawing import FaceWalk, PlanarizedMap
from .errors import BadArgument, BudgetExceeded, InvariantError

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
                for y in sorted(self.adjacency[x]):
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            out.append(sorted(comp))
        return out

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "conflicts": [list(p) for p in self.pairs],
        }


def conflict_graph(pmap: PlanarizedMap) -> ConflictGraph:
    adj: dict[str, set[str]] = {e: set() for e in pmap.edge_ids}
    pairs: set[tuple[str, str]] = set()
    for _, (e, f) in sorted(pmap.spec.crossings.items()):
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
# with incumbent pruning is plenty.


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

    def lexicographically_smallest_maximum(self) -> list[str]:
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
        return [self.ids[i] for i in chosen]


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
    optimal_certificate: bool
    faces: tuple[FaceWalk, ...]
    occurrences: list[tuple[str, int] | None]
    hosts: tuple[str, ...]

    def face_of_dart(self, d: int) -> tuple[str, int] | None:
        """(face id, position) of the walk dart on ``d``'s skeleton edge, in
        ``d``'s direction; ``d`` may lie on any segment of the edge.  None on
        a residual dart, and :class:`BadArgument` for what is no dart."""
        return self.occurrences[self.full_map._checked(d)]

    def host_of_dart(self, d: int) -> str:
        """Id of the skeleton face holding the full-map face right of ``d``."""
        return self.hosts[self.full_map._dart_face[self.full_map._checked(d)]]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "optimal_certificate": self.optimal_certificate,
            "skeleton_edges": list(self.skeleton_edges),
            "residual_edges": list(self.residual_edges),
            "skeleton_size": len(self.skeleton_edges),
            "faces": [f.to_dict() for f in self.faces],
        }


def _skeleton_faces(pmap: PlanarizedMap, kept: set[str], residual: tuple[str, ...]):
    """(faces, occurrences, hosts) of a :class:`SkeletonDecomposition`.

    Walks are the face orbits of the skeleton's rotation system, which is the
    full rotation restricted to skeleton darts, started in the order
    :func:`~crossing_ledger.drawing.restrict` traces faces.  A walk lies in the
    region of the full face right of its first dart; regions are numbered in
    the order of their first walk.
    """

    nxt, dart_edge, first, last = pmap._next, pmap._dart_edge, pmap._first, pmap._last

    def step(d: int) -> int:
        # Arrive at the far end, then turn to the next skeleton dart
        # counterclockwise; the reversal of the arriving dart is one, so the
        # turn stops there at the latest.
        e = dart_edge[d]
        d = nxt[first[e] + 1 if d & 1 else last[e] - 1]
        while dart_edge[d] not in kept:
            d = nxt[d ^ 1]
        return d

    parent = list(range(len(pmap.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Residual segments do not separate skeleton faces: union across them.
    face_of = pmap._dart_face
    for e in residual:
        for d in range(first[e], last[e], 2):
            parent[find(face_of[d])] = find(face_of[d + 1])

    regions: dict[int, list[list[int]]] = {}
    seen: set[int] = set()
    for e in sorted(kept):
        for d in (first[e], last[e]):
            walk: list[int] = []
            if d not in seen:
                regions.setdefault(find(face_of[d]), []).append(walk)
            while d not in seen:
                seen.add(d)
                walk.append(d)
                d = step(d)

    # Every dart of a skeleton edge in one direction (every other dart from
    # the first of that direction) shares its walk dart's occurrence.
    occurrences: list[tuple[str, int] | None] = [None] * len(nxt)
    faces, host_of_root = [], {}
    for root, walks in regions.items():
        fid = host_of_root[root] = f"f{len(faces)}"
        darts = tuple(d for walk in walks for d in walk)
        for pos, d in enumerate(darts):
            e = dart_edge[d]
            lo = first[e] + (d & 1)
            occurrences[lo:last[e] + 1:2] = [(fid, pos)] * ((last[e] - lo) // 2 + 1)
        edges = tuple([dart_edge[d] for d in darts])
        nodes = tuple([pmap._ends[e][(d & 1) ^ 1] for e, d in zip(edges, darts)])
        faces.append(FaceWalk(fid, darts, nodes, edges, tuple(len(walk) for walk in walks)))

    hosts = tuple(host_of_root.get(find(i)) for i in range(len(pmap.faces)))
    if None in hosts:
        face = pmap.faces[hosts.index(None)].face_id
        raise InvariantError(
            "decompose-hostless", f"face {face} is not bounded by any skeleton edge"
        )
    return tuple(faces), occurrences, hosts


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
    pmap: PlanarizedMap, conflicts: ConflictGraph, kept: set[str], mode: str, certificate: bool
) -> SkeletonDecomposition:
    _check_decomposition(conflicts, kept)
    skeleton = tuple(sorted(kept))
    residual = tuple(sorted(set(pmap.edge_ids) - kept))
    return SkeletonDecomposition(
        pmap, skeleton, residual, mode, certificate, *_skeleton_faces(pmap, kept, residual)
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
    kept = {e for e in conflicts.nodes if not conflicts.adjacency[e]}
    components = [c for c in conflicts.components() if len(c) > 1]
    for comp in components:
        if mode == "exact" and len(comp) > budget:
            raise BudgetExceeded(
                f"conflict component with {len(comp)} edges (starting at {comp[0]}) "
                f"exceeds the exact-search budget of {budget}; rerun in greedy mode"
            )
        solver = _MisSolver(comp, conflicts.adjacency)
        if mode == "exact":
            kept.update(solver.lexicographically_smallest_maximum())
        else:
            picked = {solver.ids[i] for i in solver.greedy_set()}
            for e in solver.ids:  # maximality pass
                if e not in picked and not (conflicts.adjacency[e] & picked):
                    picked.add(e)
            kept.update(picked)
    return _assemble(pmap, conflicts, kept, mode, certificate=(mode == "exact"))


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
    return _assemble(pmap, conflict_graph(pmap), kept, mode="manual", certificate=False)
