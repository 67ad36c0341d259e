"""The per-entry ``DrawingSpec.build``, kept as a test oracle.

``crossing_ledger.drawing`` checks the form of the rows in one pass over
their types and lengths, takes the rows' columns (the rotation entries'
edges and directions among them), tests the type of each defining id once
and every reference with one set operation per column, and runs the
per-entry loops only when a test fails.  It anchors each rotation while it
checks the drawing rules: one pass over the crossings tests both crossing
rules and anchors their rotations, and one pass over the vertices notes
where each edge end sits and anchors each rotation at its smallest entry.
This module keeps the code it replaced: every row checked on its own,
every rotation anchored by ``_entry_key`` before any check, and every rule
checked entry by entry, the drawing rules of :func:`_check_rules` too.
``tests/test_build_oracle.py`` requires the same spec, or the same
exception type, rule and message, from both.

Six edits since: the three collision rules (``duplicate-chain``,
``duplicate-crossing-id``, ``duplicate-rotation``), which refuse two keys
that become equal under ``str()``, where the old code kept the later one;
a field given as None, which is refused as ``field-mapping`` where the old
code read it as empty (a field left out still means none); ``vertices``
or ``edges`` that are not a list or tuple, refused as ``field-list`` by the
first check, where the old code raised a raw ``TypeError`` or iterated a
string; the alternation rule at a crossing, which compared only the
edges of entries 0 and 1 and so let ``[e+, f+, f-, e-]`` and
``[e+, f-, f+, e-]`` through; and a rotation direction that ``str()``
refuses (an int of more digits than it converts), refused as
``rotation-direction`` right after the id checks, with a message that does
not write the number, where the old code raised a raw ``ValueError``; and
an id of a vertex, edge, chain, crossing or rotation that UTF-8 cannot
encode (a lone surrogate), refused as ``id-encoding`` next, where the old
code accepted it and the CLI then failed to write it.

:func:`trace_faces` keeps the eager face trace that ``PlanarizedMap`` ran
when it built every :class:`FaceWalk` record during construction; the map
now keeps dart walks and builds the records on first access of ``faces``.
:func:`map_tables` keeps the map's constructor as it was before it decoded
crossing rotations two ends at a time and read heads off the node
sequences: it builds every table dart by dart and node by node.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from crossing_ledger.drawing import (
    MINUS,
    PLUS,
    DrawingSpec,
    FaceWalk,
    PlanarizedMap,
    RotationEntry,
    _check_fields,
    _check_ids,
)
from crossing_ledger.errors import DanglingCrossing, InvalidRotation, InvariantError, NonSpherical


def _entry_key(entry: RotationEntry) -> tuple[str, int]:
    return (entry[0], 0 if entry[1] == PLUS else 1)


def _anchor_rotation(entries: Sequence[RotationEntry]) -> tuple[RotationEntry, ...]:
    if not entries:
        return ()
    pivot = min(range(len(entries)), key=lambda i: _entry_key(entries[i]))
    return tuple(entries[pivot:]) + tuple(entries[:pivot])


def _check_rows(rows: list, size: int, rule: str) -> None:
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != size:
            raise InvariantError(rule, f"expected a list of {size} entries; got {row!r}")


def _unique_keys(field: Mapping, rule: str, what: str) -> None:
    """Refuse keys of ``field`` that ``str()`` makes equal."""
    counts = Counter(str(k) for k in field)
    dup = sorted(k for k, c in counts.items() if c > 1)
    if dup:
        raise InvariantError(rule, f"{what} repeat as strings: {dup}")


def build(
    vertices: Iterable,
    edges: Iterable[Sequence],
    chains: Mapping = MappingProxyType({}),
    crossings: Mapping = MappingProxyType({}),
    rotations: Mapping = MappingProxyType({}),
) -> DrawingSpec:
    _check_fields(vertices, edges, chains, crossings, rotations)
    vertices, edges = list(vertices), list(edges)
    _check_rows(edges, 3, "edge-row")
    entries = [entry for rot in rotations.values() for entry in rot]
    _check_rows(entries, 2, "rotation-entry")
    _check_rows(list(crossings.values()), 2, "crossing-pair")
    _check_ids(vertices, *edges, chains, *chains.values(), crossings, *crossings.values(),
               rotations, [e for e, _ in entries])
    for _, d in entries:
        try:
            str(d)
        except ValueError:  # an int of too many digits
            limit = sys.get_int_max_str_digits()
            raise InvariantError(
                "rotation-direction", f"a rotation direction has more than {limit} digits"
            ) from None
    for v in [*vertices, *(e for e, _, _ in edges), *chains, *crossings, *rotations]:
        try:
            str(v).encode("utf-8")
        except UnicodeEncodeError:
            raise InvariantError("id-encoding", f"ids are UTF-8 text; got {str(v)!r}") from None
    verts = [str(v) for v in vertices]
    edge_rows = [(str(e), str(a), str(b)) for e, a, b in edges]
    if len(set(verts)) != len(verts):
        dup = sorted(v for v, c in Counter(verts).items() if c > 1)
        raise InvariantError("duplicate-vertex-id", f"vertex ids repeat: {dup}")
    edge_ids = [e for e, _, _ in edge_rows]
    if len(set(edge_ids)) != len(edge_ids):
        dup = sorted(e for e, c in Counter(edge_ids).items() if c > 1)
        raise InvariantError("duplicate-edge-id", f"edge ids repeat: {dup}")

    _unique_keys(chains, "duplicate-chain", "chain keys")
    _unique_keys(crossings, "duplicate-crossing-id", "crossing ids")
    _unique_keys(rotations, "duplicate-rotation", "rotation keys")
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


def _check_rules(spec: DrawingSpec) -> None:
    """Raise on the first broken drawing rule, checked entry by entry.

    Crossings first (two distinct edges, once on each of their chains), then
    the rotation at every vertex (exactly the incident edge ends), then the
    rotation at every crossing (the four ends of its two edges, with entries
    0 and 2, and entries 1 and 3, the two ends of one edge).
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
        if not (rot[0][0] == rot[2][0] and rot[1][0] == rot[3][0] and rot[0][0] != rot[1][0]):
            raise InvalidRotation(
                "rotation-alternation", f"rotation at {c} does not alternate between {e} and {f}"
            )


def trace_faces(pmap: PlanarizedMap) -> tuple[tuple[FaceWalk, ...], list[tuple[str, int]]]:
    """Every face record, and the (face id, position) of every dart, traced at once.

    Walks start at darts 0, 1, 2, ... and follow ``next_dart``; face ``f{i}``
    is the i-th walk found.
    """
    faces: list[FaceWalk] = []
    place: list[tuple[str, int] | None] = [None] * (2 * pmap.segment_count())
    for start in range(len(place)):
        if place[start] is not None:
            continue
        face_id = f"f{len(faces)}"
        walk = []
        d = start
        while place[d] is None:
            place[d] = (face_id, len(walk))
            walk.append(d)
            d = pmap.next_dart(d)
        assert d == start
        faces.append(
            FaceWalk(
                face_id=face_id,
                darts=tuple(walk),
                nodes=tuple(pmap.head(x) for x in walk),
                edges=tuple(pmap.describe(x)[0] for x in walk),
                walks=(len(walk),),
            )
        )
    return tuple(faces), place


# The tables ``PlanarizedMap`` builds, by the names of its attributes.
MAP_TABLES = (
    "_ends", "_node_seq", "_first", "_last", "_dart_edge", "_next", "_head", "_rot",
    "_rot_index", "_walks", "_dart_face", "_components",
)


def map_tables(spec: DrawingSpec) -> dict:
    """The tables of ``PlanarizedMap(spec)``, built as its constructor built
    them before: every rotation entry decoded on its own, through a
    ``(crossing, edge)`` dict at a crossing, each head written from the
    rotations, and Euler's formula counted on every component."""
    ends = {e: (a, b) for e, a, b in spec.edges}
    node_seq: dict[str, tuple[str, ...]] = {}
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    dart_edge: list[str] = []
    out: dict[tuple[str, str], int] = {}
    d = 0
    for e, (a, b) in ends.items():
        chain = spec.chains.get(e, ())
        node_seq[e] = (a,) + chain + (b,)
        start = first[e] = d
        for c in chain:
            d += 2
            out[(c, e)] = d
        last[e] = d + 1
        d += 2
        dart_edge += [e] * (d - start)

    rot: dict[str, tuple[int, ...]] = {}
    nxt = [0] * d
    head = [""] * d
    rot_index = [0] * d
    for node, entries in spec.rotations.items():
        if node in spec.crossings:
            darts = tuple([
                out[(node, e)] if sign == PLUS else out[(node, e)] - 1 for e, sign in entries
            ])
        else:
            darts = tuple([first[e] if sign == PLUS else last[e] for e, sign in entries])
        rot[node] = darts
        for i, (o, s) in enumerate(zip(darts, darts[1:] + darts[:1])):
            rot_index[o] = i
            nxt[o ^ 1] = s
            head[o ^ 1] = node
    for v in spec.vertices:
        rot.setdefault(v, ())

    walks: list[list[int]] = []
    dart_face = [-1] * d
    for start in range(d):
        if dart_face[start] >= 0:
            continue
        index = len(walks)
        walk = []
        x = start
        while dart_face[x] < 0:
            dart_face[x] = index
            walk.append(x)
            x = nxt[x]
        if x != start:
            e = dart_edge[x]
            described = (e, (x - first[e]) >> 1, -1 if x & 1 else 1)
            raise NonSpherical(f"face traversal re-entered dart {described}")
        walks.append(walk)

    comp: dict[str, int] = {}
    n = 0
    for node in sorted((*spec.vertices, *spec.crossings)):
        if node in comp:
            continue
        comp[node] = n
        queue = deque([node])
        while queue:
            for x in rot[queue.popleft()]:
                y = head[x]
                if y not in comp:
                    comp[y] = n
                    queue.append(y)
        n += 1

    v_count = Counter(comp.values())
    e_count: Counter = Counter()
    for seq in node_seq.values():
        e_count[comp[seq[0]]] += len(seq) - 1
    f_count = Counter([comp[head[walk[0]]] for walk in walks])
    for c in v_count:
        if e_count[c] == 0:
            continue
        if v_count[c] - e_count[c] + f_count[c] != 2:
            raise NonSpherical(
                f"component {c}: V-E+F = "
                f"{v_count[c]}-{e_count[c]}+{f_count[c]} != 2; "
                "the rotation system is not a sphere embedding"
            )

    return {
        "_ends": ends, "_node_seq": node_seq, "_first": first, "_last": last,
        "_dart_edge": dart_edge, "_next": nxt, "_head": head, "_rot": rot,
        "_rot_index": rot_index, "_walks": walks, "_dart_face": dart_face,
        "_components": comp,
    }
