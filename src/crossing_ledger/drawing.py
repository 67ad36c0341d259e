"""Planarized combinatorial maps for topological graph drawings.

A drawing is described purely combinatorially: real vertices, edges whose
curves are recorded as ordered chains of crossing points, and a rotation (the
cyclic order of outgoing directions) at every node.  Building a map
planarizes the drawing: crossings become degree-4 nodes, edge curves split
into segments, and faces are recovered by orbit traversal.  The embedding
lives on the sphere; no outer face is distinguished.

Conventions used throughout:

* A *dart* is a directed segment side, written ``(edge, seg, dir)`` where
  ``seg`` indexes the segment along the edge (0 = the piece at ``end_a``) and
  ``dir`` is ``+1`` toward ``end_b`` or ``-1`` toward ``end_a``.
* Rotations list outgoing darts counterclockwise.  Faces are the orbits of
  ``next(d) = rotation-successor of the reversal of d``; each face lies to
  the right of its darts.  Orientation is only a bookkeeping choice; every
  derived quantity is orientation-independent.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadArgument,
    DanglingCrossing,
    InvalidRotation,
    InvariantError,
    NonSpherical,
)

Dart = tuple[str, int, int]
RotationEntry = tuple[str, str]

PLUS = "+"
MINUS = "-"


class Violation(NamedTuple):
    """One broken rule, with the ids it concerns."""

    rule: str
    subjects: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "subjects": list(self.subjects), "detail": self.detail}


def _entry_key(entry: RotationEntry) -> tuple[str, int]:
    return (entry[0], 0 if entry[1] == PLUS else 1)


def _anchor_rotation(entries: Sequence[RotationEntry]) -> tuple[RotationEntry, ...]:
    # Rotate the cyclic list so the smallest entry comes first; the cyclic
    # order itself is untouched.
    if not entries:
        return ()
    pivot = min(range(len(entries)), key=lambda i: _entry_key(entries[i]))
    return tuple(entries[pivot:]) + tuple(entries[:pivot])


def _check_ids(*groups: Iterable) -> None:
    """Refuse an id that is neither a string nor an integer (a bool is not one)."""
    if not {str, int}.issuperset(map(type, chain(*groups))):
        for v in chain(*groups):
            if not isinstance(v, (str, int)) or isinstance(v, bool):
                raise InvariantError("id-type", f"ids are strings or integers; got {v!r}")


def _check_rows(rows: list, size: int, rule: str) -> None:
    """Refuse a row that is not a list or tuple of ``size`` entries."""
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != size:
            raise InvariantError(rule, f"expected a list of {size} entries; got {row!r}")


class DrawingSpec(NamedTuple):
    """Canonical combinatorial description of a drawing.

    All identifiers are strings; the :meth:`build` factory coerces integer
    ids from input documents and refuses ids of any other type.  Instances
    are immutable and stored in a canonical order (sorted ids, rotation lists
    anchored at their smallest entry) so that equality and serialization are
    stable.

    :meth:`build` is the only constructor and the one place the drawing rules
    are checked, so every spec is valid by construction: it raises a typed
    :class:`InvariantError` naming the first broken rule.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    chains: dict[str, tuple[str, ...]]
    crossings: dict[str, tuple[str, str]]
    rotations: dict[str, tuple[RotationEntry, ...]]

    @staticmethod
    def build(
        vertices: Iterable,
        edges: Iterable[Sequence],
        chains: Mapping | None = None,
        crossings: Mapping | None = None,
        rotations: Mapping | None = None,
    ) -> "DrawingSpec":
        vertices, edges = list(vertices), list(edges)
        chains, crossings, rotations = chains or {}, crossings or {}, rotations or {}
        _check_rows(edges, 3, "edge-row")
        entries = [entry for rot in rotations.values() for entry in rot]
        _check_rows(entries, 2, "rotation-entry")
        _check_rows(list(crossings.values()), 2, "crossing-pair")
        _check_ids(vertices, *edges, chains, *chains.values(), crossings, *crossings.values(),
                   rotations, [e for e, _ in entries])
        verts = [str(v) for v in vertices]
        edge_rows = [(str(e), str(a), str(b)) for e, a, b in edges]
        if len(set(verts)) != len(verts):
            dup = sorted(v for v, c in Counter(verts).items() if c > 1)
            raise InvariantError("duplicate-vertex-id", f"vertex ids repeat: {dup}")
        edge_ids = [e for e, _, _ in edge_rows]
        if len(set(edge_ids)) != len(edge_ids):
            dup = sorted(e for e, c in Counter(edge_ids).items() if c > 1)
            raise InvariantError("duplicate-edge-id", f"edge ids repeat: {dup}")

        chain_map = {str(e): tuple(str(c) for c in cs) for e, cs in chains.items()}
        cross_map = {str(c): (str(e), str(f)) for c, (e, f) in crossings.items()}
        rot_map = {
            str(node): _anchor_rotation([(str(e), str(d)) for e, d in rot])
            for node, rot in rotations.items()
        }

        vert_set = set(verts)
        cross_set = set(cross_map)
        collision = vert_set & cross_set
        if collision:
            raise InvariantError(
                "node-id-collision",
                f"ids used both as vertex and crossing: {sorted(collision)}",
            )
        known_edges = set(edge_ids)
        for e, a, b in edge_rows:
            for end in (a, b):
                if end not in vert_set:
                    raise InvariantError("unknown-vertex", f"edge {e} endpoint {end} undeclared")
        for e in chain_map:
            if e not in known_edges:
                raise InvariantError("unknown-edge", f"chain given for unknown edge {e}")
        for c, (e, f) in cross_map.items():
            for x in (e, f):
                if x not in known_edges:
                    raise InvariantError("unknown-edge", f"crossing {c} names unknown edge {x}")
        for e, cs in chain_map.items():
            for c in cs:
                if c not in cross_set:
                    raise InvariantError("unknown-crossing", f"chain of {e} names unknown crossing {c}")
        for node in rot_map:
            if node not in vert_set and node not in cross_set:
                raise InvariantError("unknown-node", f"rotation given for unknown node {node}")
        for node, rot in rot_map.items():
            for e, d in rot:
                if e not in known_edges:
                    raise InvariantError("unknown-edge", f"rotation at {node} names unknown edge {e}")
                if d not in (PLUS, MINUS):
                    raise InvariantError(
                        "rotation-direction", f"rotation at {node} has direction {d!r}"
                    )

        # Canonical order everywhere; every edge gets a chain entry.
        full_chains = {e: chain_map.get(e, ()) for e in known_edges}
        spec = DrawingSpec(
            vertices=tuple(sorted(verts)),
            edges=tuple(sorted(edge_rows)),
            chains={e: full_chains[e] for e in sorted(full_chains)},
            crossings={c: cross_map[c] for c in sorted(cross_map)},
            rotations={n: rot_map[n] for n in sorted(rot_map)},
        )
        _check_rules(spec)
        return spec

    # -- views -------------------------------------------------------------

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _, _ in self.edges)

    def to_doc(self) -> dict:
        """Plain-dict form with the documented field order."""
        return {
            "vertices": list(self.vertices),
            "edges": [list(row) for row in self.edges],
            "chains": {e: list(cs) for e, cs in self.chains.items()},
            "crossings": {c: list(p) for c, p in self.crossings.items()},
            "rotations": {n: [list(x) for x in rot] for n, rot in self.rotations.items()},
        }


def _check_rules(spec: DrawingSpec) -> None:
    """Raise on the first broken drawing rule of a spec whose ids all resolve.

    Crossings are checked first (each joins two distinct edges and sits once
    on each of their chains), then the rotation at every vertex (exactly the
    incident edge ends), then the rotation at every crossing (the four ends
    of its two edges, alternating).
    """
    owners: dict[str, list[str]] = {c: [] for c in spec.crossings}
    for e, cs in spec.chains.items():
        for c in cs:
            owners[c].append(e)
    for c, (e, f) in spec.crossings.items():
        if e == f:
            raise InvariantError("self-crossing", f"crossing {c} joins edge {e} with itself")
        if owners[c] not in ([e, f], [f, e]):
            raise DanglingCrossing(
                "crossing-degree",
                f"crossing {c} must appear once in the chains of {e} and {f}; found in {sorted(owners[c])}",
            )

    ends: dict[str, list[RotationEntry]] = {v: [] for v in spec.vertices}
    for e, a, b in spec.edges:
        ends[a].append((e, PLUS))
        ends[b].append((e, MINUS))
    for v, want in ends.items():
        rot = spec.rotations.get(v, ())
        if sorted(rot) != sorted(want):
            raise InvalidRotation(
                "rotation-at-vertex",
                f"rotation at {v} must list exactly the incident edge ends "
                f"{sorted(want)}; found {list(rot)}",
            )

    for c, (e, f) in spec.crossings.items():
        rot = spec.rotations.get(c)
        if rot is None:
            raise InvalidRotation("rotation-at-crossing", f"crossing {c} has no rotation")
        want = {(e, PLUS), (e, MINUS), (f, PLUS), (f, MINUS)}
        if len(rot) != 4 or set(rot) != want:
            raise InvalidRotation(
                "rotation-at-crossing",
                f"rotation at {c} must contain the four ends of {e} and {f}; found {list(rot)}",
            )
        if rot[0][0] == rot[1][0]:
            raise InvalidRotation(
                "rotation-alternation", f"rotation at {c} does not alternate between {e} and {f}"
            )


class FaceWalk(NamedTuple):
    """A face boundary: one closed walk, or several concatenated with their lengths
    in ``walks``; vertices and edges may repeat on non-simple faces."""

    face_id: str
    darts: tuple[Dart, ...]
    nodes: tuple[str, ...]
    edges: tuple[str, ...]
    walks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.darts)

    def walk_length(self, *positions: int | None) -> int | None:
        """Length of the walk holding every position given (None is skipped);
        None if they lie on different walks."""
        start = 0
        for length in self.walks:
            if all(p is None or start <= p < start + length for p in positions):
                return length
            start += length
        return None

    def to_dict(self) -> dict:
        return {
            "face": self.face_id,
            "length": self.length,
            "nodes": list(self.nodes),
            "edges": list(self.edges),
            **({"walks": list(self.walks)} if len(self.walks) > 1 else {}),
        }


class PlanarizedMap:
    """Immutable planarization of a drawing, with faces computed.

    The spec already satisfies the drawing rules (see :class:`DrawingSpec`);
    construction adds only the sphere check, raising :class:`NonSpherical`
    when face tracing or the per-component Euler formula fails.

    Construction is single-threaded; built instances are safe to share
    between threads.
    """

    def __init__(self, spec: DrawingSpec):
        self.spec = spec
        self._ends = {e: (a, b) for e, a, b in spec.edges}

        # Node sequence of every edge: end_a, crossings in chain order, end_b.
        self._node_seq: dict[str, tuple[str, ...]] = {}
        self._chain_pos: dict[tuple[str, str], int] = {}
        for e, (a, b) in self._ends.items():
            chain = spec.chains.get(e, ())
            self._node_seq[e] = (a,) + chain + (b,)
            for i, c in enumerate(chain):
                self._chain_pos[(c, e)] = i

        self._rot: dict[str, tuple[Dart, ...]] = {}
        self._rot_index: dict[Dart, tuple[str, int]] = {}
        for node, entries in spec.rotations.items():
            darts = tuple(self._decode_entry(node, entry) for entry in entries)
            self._rot[node] = darts
            for i, d in enumerate(darts):
                self._rot_index[d] = (node, i)
        for v in spec.vertices:
            self._rot.setdefault(v, ())

        self._faces, self._dart_face = self._trace_faces()
        self._components = self._compute_components()
        self._check_euler()

    # -- construction helpers ---------------------------------------------

    def _decode_entry(self, node: str, entry: RotationEntry) -> Dart:
        e, d = entry
        if node in self.spec.crossings:
            p = self._chain_pos[(node, e)]
            return (e, p + 1, 1) if d == PLUS else (e, p, -1)
        if d == PLUS:
            return (e, 0, 1)
        return (e, len(self._node_seq[e]) - 2, -1)

    def _trace_faces(self) -> tuple[tuple[FaceWalk, ...], dict[Dart, tuple[int, int]]]:
        faces: list[FaceWalk] = []
        dart_face: dict[Dart, tuple[int, int]] = {}
        all_darts = sorted(self._rot_index, key=_dart_key)
        for start in all_darts:
            if start in dart_face:
                continue
            walk = []
            d = start
            while True:
                walk.append(d)
                dart_face[d] = (len(faces), len(walk) - 1)
                d = self.next_dart(d)
                if d == start:
                    break
                if d in dart_face:
                    raise NonSpherical(f"face traversal re-entered dart {d}")
            fid = f"f{len(faces)}"
            faces.append(
                FaceWalk(
                    face_id=fid,
                    darts=tuple(walk),
                    nodes=tuple(self.head(x) for x in walk),
                    edges=tuple(x[0] for x in walk),
                    walks=(len(walk),),
                )
            )
        return tuple(faces), dart_face

    def _compute_components(self) -> dict[str, int]:
        comp: dict[str, int] = {}
        n = 0
        for node in sorted((*self.spec.vertices, *self.spec.crossings)):
            if node in comp:
                continue
            comp[node] = n
            queue = deque([node])
            while queue:
                x = queue.popleft()
                for d in self._rot[x]:
                    y = self.head(d)
                    if y not in comp:
                        comp[y] = n
                        queue.append(y)
            n += 1
        return comp

    def _check_euler(self) -> None:
        v_count: Counter = Counter()
        e_count: Counter = Counter()
        f_count: Counter = Counter()
        for node, c in self._components.items():
            v_count[c] += 1
        for e, seq in self._node_seq.items():
            c = self._components[seq[0]]
            e_count[c] += len(seq) - 1
        for face in self._faces:
            c = self._components[face.nodes[0]]
            f_count[c] += 1
        for c in v_count:
            if e_count[c] == 0:
                continue  # an isolated vertex trivially embeds
            if v_count[c] - e_count[c] + f_count[c] != 2:
                raise NonSpherical(
                    f"component {c}: V-E+F = "
                    f"{v_count[c]}-{e_count[c]}+{f_count[c]} != 2; "
                    "the rotation system is not a sphere embedding"
                )

    # -- dart algebra -------------------------------------------------------

    def head(self, d: Dart) -> str:
        e, seg, direction = d
        seq = self._node_seq[e]
        return seq[seg + 1] if direction == 1 else seq[seg]

    def tail(self, d: Dart) -> str:
        e, seg, direction = d
        seq = self._node_seq[e]
        return seq[seg] if direction == 1 else seq[seg + 1]

    @staticmethod
    def twin(d: Dart) -> Dart:
        return (d[0], d[1], -d[2])

    def next_dart(self, d: Dart) -> Dart:
        node, i = self._rot_index[self.twin(d)]
        rot = self._rot[node]
        return rot[(i + 1) % len(rot)]

    def prev_dart(self, d: Dart) -> Dart:
        node, i = self._rot_index[d]
        rot = self._rot[node]
        return self.twin(rot[(i - 1) % len(rot)])

    # -- public views -------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.spec.vertices

    @property
    def crossing_ids(self) -> tuple[str, ...]:
        return tuple(self.spec.crossings)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return self.spec.edge_ids

    @property
    def faces(self) -> tuple[FaceWalk, ...]:
        return self._faces

    def endpoints(self, edge: str) -> tuple[str, str]:
        return self._ends[edge]

    def chain(self, edge: str) -> tuple[str, ...]:
        return self.spec.chains.get(edge, ())

    def node_sequence(self, edge: str) -> tuple[str, ...]:
        return self._node_seq[edge]

    def crossing_edges(self, crossing: str) -> tuple[str, str]:
        return self.spec.crossings[crossing]

    def rotation(self, node: str) -> tuple[Dart, ...]:
        return self._rot[node]

    def rotation_index(self, d: Dart) -> int:
        """Position of an outgoing dart in the rotation at its tail."""
        return self._rot_index[d][1]

    def face_of_dart(self, d: Dart) -> tuple[str, int]:
        idx, pos = self._dart_face[d]
        return (self._faces[idx].face_id, pos)

    def face_index_of_dart(self, d: Dart) -> int:
        """Index into :attr:`faces` of the face to the right of a dart."""
        return self._dart_face[d][0]

    def segment_count(self) -> int:
        return sum(len(seq) - 1 for seq in self._node_seq.values())

    def edge_crossing_counts(self) -> dict[str, int]:
        return {e: len(self.chain(e)) for e in self.edge_ids}

    def pair_crossing_counts(self) -> dict[frozenset, int]:
        pairs: Counter = Counter()
        for c, pair in self.spec.crossings.items():
            pairs[frozenset(pair)] += 1
        return dict(pairs)

    def component_of(self, node: str) -> int:
        return self._components[node]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarizedMap) and self.spec == other.spec

    def __hash__(self) -> int:  # pragma: no cover - maps are not dict keys in practice
        return hash(self.spec.edges)

    def __repr__(self) -> str:
        return (
            f"PlanarizedMap(n={len(self.vertices)}, edges={len(self.edge_ids)}, "
            f"crossings={len(self.spec.crossings)}, faces={len(self._faces)})"
        )


def _dart_key(d: Dart) -> tuple[str, int, int]:
    return (d[0], d[1], 0 if d[2] == 1 else 1)


def build_map(spec: DrawingSpec) -> PlanarizedMap:
    """Planarize a drawing; raises :class:`NonSpherical` unless it embeds in the sphere."""
    return PlanarizedMap(spec)


def restrict(pmap: PlanarizedMap, keep: Iterable[str]) -> PlanarizedMap:
    """Sub-drawing induced by a set of edges.

    Crossings with removed edges dissolve (the kept edge's segments merge);
    rotations at real vertices drop the removed entries; faces are recomputed.
    """
    keep_set = {str(e) for e in keep}
    unknown = keep_set - set(pmap.edge_ids)
    if unknown:
        raise BadArgument(f"not edges of this map: {sorted(unknown)}")

    spec = pmap.spec
    kept_crossings = {
        c: pair for c, pair in spec.crossings.items() if pair[0] in keep_set and pair[1] in keep_set
    }
    chains = {
        e: tuple(c for c in spec.chains.get(e, ()) if c in kept_crossings)
        for e in keep_set
    }
    rotations = {}
    for v in spec.vertices:
        entries = [x for x in spec.rotations.get(v, ()) if x[0] in keep_set]
        if entries:
            rotations[v] = entries
    for c in kept_crossings:
        rotations[c] = list(spec.rotations[c])
    return build_map(
        DrawingSpec.build(
            vertices=spec.vertices,
            edges=[row for row in spec.edges if row[0] in keep_set],
            chains=chains,
            crossings=kept_crossings,
            rotations=rotations,
        )
    )
