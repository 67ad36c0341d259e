"""Planarized combinatorial maps for topological graph drawings.

A drawing is described purely combinatorially: real vertices, edges whose
curves are recorded as ordered chains of crossing points, and a rotation (the
cyclic order of outgoing directions) at every node.  Building a map
planarizes the drawing: crossings become degree-4 nodes, edge curves split
into segments, and faces are recovered by orbit traversal.  The embedding
lives on the sphere; no outer face is distinguished.

Conventions used throughout:

* A *dart* is a directed segment side, an ``int``: segments are numbered in
  edge order, then along each chain from ``end_a``, and segment ``s`` has
  darts ``2s`` toward ``end_b`` and ``2s + 1`` toward ``end_a``, so the
  reversal of ``d`` is ``d ^ 1``.  ``describe(d)`` names it ``(edge, seg,
  dir)``, with ``dir`` ``+1`` toward ``end_b``; ``dart()`` is its inverse.
* Rotations list outgoing darts counterclockwise.  Faces are the orbits of
  ``next(d) = rotation-successor of the reversal of d``; each face lies to
  the right of its darts.  Orientation is only a bookkeeping choice; every
  derived quantity is orientation-independent.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadArgument,
    DanglingCrossing,
    InvalidRotation,
    InvariantError,
    NonSpherical,
)

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


def _anchor_rotation(entries: list[RotationEntry]) -> tuple[RotationEntry, ...]:
    # Rotate the cyclic list so the smallest entry comes first; the cyclic
    # order itself is untouched.  Every direction is "+" or "-" here, and
    # "+" < "-", so tuple order puts an edge's "+" end before its "-" end.
    if not entries:
        return ()
    pivot = entries.index(min(entries))
    return (*entries[pivot:], *entries[:pivot])


def _check_ids(*groups: Iterable) -> None:
    """Refuse an id that is not a string or an integer (a bool is not) or not ``str()``-able."""
    if {str}.issuperset(map(type, chain(*groups))):
        return
    for v in chain(*groups):
        if not isinstance(v, (str, int)) or isinstance(v, bool):
            raise InvariantError("id-type", f"ids are strings or integers; got {v!r}")
        try:
            str(v)
        except ValueError:  # an int of too many digits
            limit = sys.get_int_max_str_digits()
            raise InvariantError("id-digits", f"integer ids have at most {limit} digits") from None


def _string_keys(field: Mapping, value: Callable, rule: str, what: str) -> dict:
    """``field`` with ``str()`` keys and ``value``-converted values; refuses keys
    that ``str()`` makes equal (``0`` and ``"0"``), where a dict would keep the
    later one."""
    converted = {str(k): value(v) for k, v in field.items()}
    if len(converted) != len(field):
        dup = sorted(k for k, c in Counter(map(str, field)).items() if c > 1)
        raise InvariantError(rule, f"{what} repeat as strings: {dup}")
    return converted


def _check_fields(vertices, edges, chains, crossings, rotations) -> None:
    """Refuse ``vertices`` or ``edges`` that are not a list, another field that
    is not a mapping, and a chain or rotation that is not a list."""
    for name, field in (("vertices", vertices), ("edges", edges)):
        if not isinstance(field, (list, tuple)):
            raise InvariantError("field-list", f"{name} must be a list; got {field!r}")
    for name, field in (("chains", chains), ("crossings", crossings), ("rotations", rotations)):
        if not isinstance(field, Mapping):
            raise InvariantError("field-mapping", f"{name} must be a mapping; got {field!r}")
    for rule, what, field in (("chain-list", "chain of edge", chains),
                              ("rotation-list", "rotation at", rotations)):
        if not {list, tuple}.issuperset(map(type, field.values())):
            for key, row in field.items():
                if not isinstance(row, (list, tuple)):
                    raise InvariantError(rule, f"{what} {key} must be a list; got {row!r}")


def _check_rows(rows: list, size: int, rule: str) -> None:
    """Refuse a row that is not a list or tuple of ``size`` entries."""
    if {list, tuple}.issuperset(map(type, rows)) and {size}.issuperset(map(len, rows)):
        return
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
        vertices: Sequence,
        edges: Sequence[Sequence],
        chains: Mapping = MappingProxyType({}),
        crossings: Mapping = MappingProxyType({}),
        rotations: Mapping = MappingProxyType({}),
    ) -> "DrawingSpec":
        _check_fields(vertices, edges, chains, crossings, rotations)
        vertices, edges = list(vertices), list(edges)
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

        chain_map = _string_keys(
            chains, lambda cs: tuple(map(str, cs)), "duplicate-chain", "chain keys"
        )
        cross_map = _string_keys(
            crossings, lambda pair: (str(pair[0]), str(pair[1])),
            "duplicate-crossing-id", "crossing ids",
        )
        rot_map = _string_keys(
            rotations, lambda rot: [(str(e), str(d)) for e, d in rot],
            "duplicate-rotation", "rotation keys",
        )
        entries = [entry for rot in rot_map.values() for entry in rot]

        # Each membership rule is tested with one set operation; its loop,
        # which finds the first offending entry for the message, runs only
        # when that test fails.
        vert_set = set(verts)
        cross_set = set(cross_map)
        collision = vert_set & cross_set
        if collision:
            raise InvariantError(
                "node-id-collision",
                f"ids used both as vertex and crossing: {sorted(collision)}",
            )
        known_edges = set(edge_ids)
        if not vert_set.issuperset([end for row in edge_rows for end in row[1:]]):
            for e, a, b in edge_rows:
                for end in (a, b):
                    if end not in vert_set:
                        raise InvariantError("unknown-vertex", f"edge {e} endpoint {end} undeclared")
        if not known_edges.issuperset(chain_map):
            for e in chain_map:
                if e not in known_edges:
                    raise InvariantError("unknown-edge", f"chain given for unknown edge {e}")
        if not known_edges.issuperset(chain.from_iterable(cross_map.values())):
            for c, (e, f) in cross_map.items():
                for x in (e, f):
                    if x not in known_edges:
                        raise InvariantError("unknown-edge", f"crossing {c} names unknown edge {x}")
        if not cross_set.issuperset(chain.from_iterable(chain_map.values())):
            for e, cs in chain_map.items():
                for c in cs:
                    if c not in cross_set:
                        raise InvariantError(
                            "unknown-crossing", f"chain of {e} names unknown crossing {c}"
                        )
        for node in rot_map:
            if node not in vert_set and node not in cross_set:
                raise InvariantError("unknown-node", f"rotation given for unknown node {node}")
        if not (
            known_edges.issuperset(map(itemgetter(0), entries))
            and {PLUS, MINUS}.issuperset(map(itemgetter(1), entries))
        ):
            # The first offending entry in the anchored order, with an
            # unknown direction sorting after "-".
            for node, rot in rot_map.items():
                pivot = min(
                    range(len(rot)), key=lambda i: (rot[i][0], rot[i][1] != PLUS), default=0
                )
                for e, d in rot[pivot:] + rot[:pivot]:
                    if e not in known_edges:
                        raise InvariantError(
                            "unknown-edge", f"rotation at {node} names unknown edge {e}"
                        )
                    if d not in (PLUS, MINUS):
                        raise InvariantError(
                            "rotation-direction", f"rotation at {node} has direction {d!r}"
                        )

        # Canonical order everywhere; every edge gets a chain entry.
        spec = DrawingSpec(
            vertices=tuple(sorted(verts)),
            edges=tuple(sorted(edge_rows)),
            chains={e: chain_map.get(e, ()) for e in sorted(edge_ids)},
            crossings={c: cross_map[c] for c in sorted(cross_map)},
            rotations={n: _anchor_rotation(rot_map[n]) for n in sorted(rot_map)},
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
    darts: tuple[int, ...]
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


def _lookup(table: Mapping, key: str, what: str):
    """``table[key]``, or :class:`BadArgument` naming ``key`` if there is no such ``what``."""
    try:
        return table[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key
        raise BadArgument(f"no {what} {key!r}") from None


class PlanarizedMap:
    """Immutable planarization of a drawing, with faces computed.

    The spec already satisfies the drawing rules (see :class:`DrawingSpec`);
    construction adds only the sphere check, raising :class:`NonSpherical`
    when face tracing or the per-component Euler formula fails.

    Lists indexed by dart table its face successor, head, edge, rotation
    index, face and walk position (``_next``, ``_head``, ``_dart_edge``,
    ``_rot_index``, ``_dart_face``, ``_dart_pos``); ``_first`` and ``_last``
    map an edge to its darts leaving ``end_a`` and ``end_b``.  The public
    dart queries refuse anything but a dart of the map, and the queries by id
    (``dart``, ``endpoints``, ``chain``, ``node_sequence``, ``crossing_edges``,
    ``rotation``, ``component_of``) an id the map lacks, with
    :class:`BadArgument`; the package's own loops read the tables directly,
    unchecked.  They are never written after construction.

    Construction is single-threaded; built instances are safe to share
    between threads.
    """

    def __init__(self, spec: DrawingSpec):
        self.spec = spec
        self._ends = {e: (a, b) for e, a, b in spec.edges}

        # Node sequence of every edge: end_a, crossings in chain order, end_b.
        # The dart leaving crossing c along e toward end_b is out[(c, e)];
        # the one toward end_a is one less.
        self._node_seq: dict[str, tuple[str, ...]] = {}
        self._first: dict[str, int] = {}
        self._last: dict[str, int] = {}
        self._dart_edge: list[str] = []
        out: dict[tuple[str, str], int] = {}
        d = 0
        for e, (a, b) in self._ends.items():
            chain = spec.chains.get(e, ())
            self._node_seq[e] = (a,) + chain + (b,)
            first = self._first[e] = d
            for c in chain:
                d += 2
                out[(c, e)] = d
            self._last[e] = d + 1
            d += 2
            self._dart_edge += [e] * (d - first)

        # Decode every outgoing dart o at its node.  Its twin o ^ 1 arrives
        # there: the node is its head, and o's rotation successor its face
        # successor.
        crossings, first, last = spec.crossings, self._first, self._last
        self._rot: dict[str, tuple[int, ...]] = {}
        self._next = nxt = [0] * d
        self._head = head = [""] * d
        self._rot_index = rot_index = [0] * d
        for node, entries in spec.rotations.items():
            if node in crossings:
                darts = tuple([
                    out[(node, e)] if sign == PLUS else out[(node, e)] - 1 for e, sign in entries
                ])
            else:
                darts = tuple([first[e] if sign == PLUS else last[e] for e, sign in entries])
            self._rot[node] = darts
            for i, (o, s) in enumerate(zip(darts, darts[1:] + darts[:1])):
                rot_index[o] = i
                nxt[o ^ 1] = s
                head[o ^ 1] = node
        for v in spec.vertices:
            self._rot.setdefault(v, ())

        self._faces = self._trace_faces()
        self._components = self._compute_components()
        self._check_euler()

    # -- construction helpers ---------------------------------------------

    def _trace_faces(self) -> tuple[FaceWalk, ...]:
        """The face orbits; fills ``_dart_face`` and ``_dart_pos``."""
        faces: list[FaceWalk] = []
        nxt, head, dart_edge = self._next, self._head, self._dart_edge
        self._dart_face = dart_face = [-1] * len(nxt)
        self._dart_pos = dart_pos = [0] * len(nxt)
        # Walks start at darts 0, 1, 2, ...: (edge, seg, +1 before -1) order.
        for start in range(len(nxt)):
            if dart_face[start] >= 0:
                continue
            index = len(faces)
            walk = []
            d = start
            while dart_face[d] < 0:
                dart_face[d] = index
                dart_pos[d] = len(walk)
                walk.append(d)
                d = nxt[d]
            if d != start:
                raise NonSpherical(f"face traversal re-entered dart {self.describe(d)}")
            faces.append(
                FaceWalk(
                    face_id=f"f{index}",
                    darts=tuple(walk),
                    nodes=tuple([head[x] for x in walk]),
                    edges=tuple([dart_edge[x] for x in walk]),
                    walks=(len(walk),),
                )
            )
        return tuple(faces)

    def _compute_components(self) -> dict[str, int]:
        comp: dict[str, int] = {}
        rot, head = self._rot, self._head
        n = 0
        for node in sorted((*self.spec.vertices, *self.spec.crossings)):
            if node in comp:
                continue
            comp[node] = n
            queue = deque([node])
            while queue:
                for d in rot[queue.popleft()]:
                    y = head[d]
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

    def dart(self, edge: str, seg: int, direction: int) -> int:
        """The dart on ``edge``'s segment ``seg`` toward ``end_b`` (+1) or ``end_a`` (-1)."""
        first = _lookup(self._first, edge, "edge")
        if isinstance(seg, int) and not isinstance(seg, bool) and direction in (1, -1):
            d = first + 2 * seg + (direction == -1)
            if first <= d <= self._last[edge]:
                return d
        raise BadArgument(f"no dart {(edge, seg, direction)}")

    def _checked(self, d: int) -> int:
        """``d`` if it is a dart of this map; otherwise :class:`BadArgument`."""
        if isinstance(d, int) and 0 <= d < len(self._next):
            return d
        if isinstance(d, tuple):
            raise BadArgument(
                f"no dart {d!r}: darts are ints; dart(edge, seg, direction) converts "
                "an (edge, seg, direction) tuple, and describe(d) converts back"
            )
        raise BadArgument(f"no dart {d!r}")

    def describe(self, d: int) -> tuple[str, int, int]:
        """``(edge, seg, direction)`` of a dart; the inverse of :meth:`dart`."""
        e = self._dart_edge[self._checked(d)]
        return (e, (d - self._first[e]) >> 1, -1 if d & 1 else 1)

    def head(self, d: int) -> str:
        return self._head[self._checked(d)]

    def tail(self, d: int) -> str:
        return self._head[self._checked(d) ^ 1]

    @staticmethod
    def twin(d: int) -> int:
        return d ^ 1

    def next_dart(self, d: int) -> int:
        """Successor of ``d`` on its face: the rotation successor of its reversal."""
        return self._next[self._checked(d)]

    def prev_dart(self, d: int) -> int:
        """Predecessor of ``d`` on its face: the reversal of its rotation predecessor."""
        return self._rot[self._head[self._checked(d) ^ 1]][self._rot_index[d] - 1] ^ 1

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
        return _lookup(self._ends, edge, "edge")

    def chain(self, edge: str) -> tuple[str, ...]:
        return _lookup(self.spec.chains, edge, "edge")

    def node_sequence(self, edge: str) -> tuple[str, ...]:
        return _lookup(self._node_seq, edge, "edge")

    def crossing_edges(self, crossing: str) -> tuple[str, str]:
        return _lookup(self.spec.crossings, crossing, "crossing")

    def rotation(self, node: str) -> tuple[int, ...]:
        return _lookup(self._rot, node, "node")

    def rotation_index(self, d: int) -> int:
        """Position of an outgoing dart in the rotation at its tail."""
        return self._rot_index[self._checked(d)]

    def face_of_dart(self, d: int) -> tuple[str, int]:
        return (self._faces[self._dart_face[self._checked(d)]].face_id, self._dart_pos[d])

    def face_index_of_dart(self, d: int) -> int:
        """Index into :attr:`faces` of the face to the right of a dart."""
        return self._dart_face[self._checked(d)]

    def segment_count(self) -> int:
        return sum(len(seq) - 1 for seq in self._node_seq.values())

    def edge_crossing_counts(self) -> dict[str, int]:
        return {e: len(cs) for e, cs in self.spec.chains.items()}

    def pair_crossing_counts(self) -> dict[frozenset, int]:
        pairs: Counter = Counter()
        for c, pair in self.spec.crossings.items():
            pairs[frozenset(pair)] += 1
        return dict(pairs)

    def component_of(self, node: str) -> int:
        return _lookup(self._components, node, "node")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarizedMap) and self.spec == other.spec

    def __hash__(self) -> int:  # pragma: no cover - maps are not dict keys in practice
        return hash(self.spec.edges)

    def __repr__(self) -> str:
        return (
            f"PlanarizedMap(n={len(self.vertices)}, edges={len(self.edge_ids)}, "
            f"crossings={len(self.spec.crossings)}, faces={len(self._faces)})"
        )


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
