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
from collections import Counter
from itertools import accumulate, chain, filterfalse, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _anchor_rotation(entries: tuple[RotationEntry, ...]) -> tuple[RotationEntry, ...]:
    # Rotate the cyclic list so the smallest entry comes first; the cyclic
    # order itself is untouched.  Every direction is "+" or "-" here, and
    # "+" < "-", so tuple order puts an edge's "+" end before its "-" end.
    if not entries or entries[0] == min(entries):
        return entries
    pivot = entries.index(min(entries))
    return (*entries[pivot:], *entries[:pivot])


def _check_ids(*groups: Iterable) -> None:
    """Refuse an id that is not a str or int (a bool is not) or not ``str()``-able."""
    for v in chain(*groups):
        if not isinstance(v, (str, int)) or isinstance(v, bool):
            raise InvariantError("id-type", f"ids are strings or integers; got {v!r}")
        try:
            str(v)
        except ValueError:  # an int of too many digits
            limit = sys.get_int_max_str_digits()
            raise InvariantError("id-digits", f"integer ids have at most {limit} digits") from None


def _check_encoding(*groups: Sequence[str]) -> None:
    """Refuse an id that UTF-8 cannot encode, such as a lone surrogate."""
    for ids in groups:
        text = "".join(ids)
        if text.isascii():
            continue
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            for v in ids:
                try:
                    v.encode("utf-8")
                except UnicodeEncodeError:
                    raise InvariantError("id-encoding", f"ids are UTF-8 text; got {v!r}") from None


def _columns(rows: list, size: int) -> tuple[tuple, ...]:
    """The ``size`` columns of rows of ``size`` entries each."""
    return tuple(zip(*rows)) or ((),) * size


def _string_keys(keys: list, values: list, rule: str, what: str) -> dict:
    """``keys`` with their ``values``; refuses keys that repeat, as ``str()``
    makes two keys of one mapping equal."""
    converted = dict(zip(keys, values))
    if len(converted) != len(keys):
        dup = sorted(k for k, c in Counter(keys).items() if c > 1)
        raise InvariantError(rule, f"{what} repeat as strings: {dup}")
    return converted


def _in_order(field: dict, keys: list) -> dict:
    """``field`` with exactly ``keys``, in their order, and () for a missing
    key: ``field`` itself when it already is so."""
    return field if list(field) == keys else {k: field.get(k, ()) for k in keys}


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


def _check_rows(rows: list, size: int, rule: str) -> bool:
    """Refuse a row that is not a list or tuple of ``size`` entries; True
    if every row is a tuple."""
    kinds = set(map(type, rows))
    if not ({list, tuple}.issuperset(kinds) and {size}.issuperset(map(len, rows))):
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != size:
                raise InvariantError(rule, f"expected a list of {size} entries; got {row!r}")
    return list not in kinds


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
        """The canonical spec of a drawing, or the first broken rule raised.

        The checks run as passes over whole columns, in this order; a pass
        whose quick test fails runs a loop that names the first offender.

        1. Fields and rows: ``field-list``, ``field-mapping``, ``chain-list``
           and ``rotation-list``, then ``edge-row``, ``rotation-entry`` and
           ``crossing-pair`` from the types and lengths of the rows.
        2. Types: one pass over the type of each defining id (vertex, edge
           id, crossing, chain key and rotation key), then one set
           operation per column of references (edge ends, crossing pairs,
           chain entries, rotation entries and their directions): an int
           or None never equals a str, so a reference that resolves is a
           str (a str subclass is kept as given) equal to a checked id.
           When both hold, rows are kept as they are (tuple rows are not
           copied).  Otherwise every id and
           direction has its type tested: ``id-type`` and ``id-digits``
           name the first id that is neither a str nor an int of at most
           the digits ``str()`` converts, ``rotation-direction`` a direction
           ``str()`` refuses, and unless all are str, every id and
           direction is converted with ``str()``.
        3. Encoding: ``id-encoding``, an id of a vertex, edge, crossing,
           chain or rotation that UTF-8 cannot encode.
        4. Uniqueness, one set or dict per field: ``duplicate-vertex-id``,
           ``duplicate-edge-id``, then ``duplicate-chain``,
           ``duplicate-crossing-id`` and ``duplicate-rotation`` for keys
           that ``str()`` makes equal.
        5. References, one set operation each: ``node-id-collision``,
           ``unknown-vertex`` (edge ends), ``unknown-edge`` (chain keys,
           then crossing pairs), ``unknown-crossing`` (chain entries),
           ``unknown-node`` (rotation keys), then ``unknown-edge`` or
           ``rotation-direction``, whichever a rotation entry breaks first
           in the anchored order.  Those on references run only where a
           reference did not resolve in pass 2.
        6. The drawing rules on the canonical spec, by :func:`_check_rules`.
        """
        # Two calls, so that the columns of the first are freed before the rules run.
        spec, edge_columns = _canonical(vertices, edges, chains, crossings, rotations)
        _check_rules(spec, *edge_columns)
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


def _canonical(vertices, edges, chains, crossings, rotations) -> tuple[DrawingSpec, tuple]:
    """Passes 1 to 5 of :meth:`DrawingSpec.build`: the spec in canonical
    order, its rotations as given, and the columns of its edges."""
    _check_fields(vertices, edges, chains, crossings, rotations)
    vertices, edges = list(vertices), list(edges)
    _check_rows(edges, 3, "edge-row")
    rot_given = list(rotations.values())
    entries = list(chain.from_iterable(rot_given))
    tuple_entries = _check_rows(entries, 2, "rotation-entry")
    pairs = list(crossings.values())
    _check_rows(pairs, 2, "crossing-pair")

    # Every column of ids and directions, each taken in one pass.
    edge_ids, end_a, end_b = _columns(edges, 3)
    firsts, seconds = _columns(pairs, 2)
    stops = list(chain.from_iterable(chains.values()))
    named, directions = list(map(itemgetter(0), entries)), list(map(itemgetter(1), entries))
    del entries  # only its columns are needed now; freeing it lowers build's peak memory
    # Pass 2: a reference resolves when it is in the set of its ids.
    resolved = False
    if {str}.issuperset(map(type, chain(vertices, edge_ids, chains, crossings, rotations))):
        vert_set, known_edges, cross_set = set(vertices), set(edge_ids), set(crossings)
        try:
            resolved = (
                vert_set.issuperset(end_a) and vert_set.issuperset(end_b)
                and known_edges.issuperset(firsts) and known_edges.issuperset(seconds)
                and cross_set.issuperset(stops) and known_edges.issuperset(named)
                and {PLUS, MINUS}.issuperset(directions)
            )
        except TypeError:  # an unhashable reference
            pass
    plain = resolved or {str}.issuperset(map(type, chain(
        vertices, edge_ids, chains, crossings, rotations,
        end_a, end_b, stops, firsts, seconds, named, directions,
    )))
    if plain:
        verts, edge_rows = vertices, list(map(tuple, edges))
        chain_keys, cross_keys, rot_keys = list(chains), list(crossings), list(rotations)
        chain_rows, pair_rows = list(map(tuple, chains.values())), list(map(tuple, pairs))
    else:
        _check_ids(
            vertices, *edges, chains, *chains.values(), crossings, *pairs, rotations, named,
        )
        try:
            named, directions = list(map(str, named)), list(map(str, directions))
        except ValueError:  # a direction that is an int of too many digits
            limit = sys.get_int_max_str_digits()
            raise InvariantError(
                "rotation-direction", f"a rotation direction has more than {limit} digits"
            ) from None
        verts = list(map(str, vertices))
        edge_rows = [tuple(map(str, row)) for row in edges]
        chain_keys, cross_keys, rot_keys = (
            list(map(str, f)) for f in (chains, crossings, rotations)
        )
        chain_rows = [tuple(map(str, row)) for row in chains.values()]
        pair_rows = [tuple(map(str, row)) for row in pairs]
        edge_ids, end_a, end_b = _columns(edge_rows, 3)
        firsts, seconds = _columns(pair_rows, 2)
        stops = list(chain.from_iterable(chain_rows))
        vert_set, known_edges, cross_set = set(verts), set(edge_ids), set(cross_keys)
    _check_encoding(verts, edge_ids, chain_keys, cross_keys, rot_keys)

    if len(vert_set) != len(verts):
        dup = sorted(v for v, c in Counter(verts).items() if c > 1)
        raise InvariantError("duplicate-vertex-id", f"vertex ids repeat: {dup}")
    if len(known_edges) != len(edge_ids):
        dup = sorted(e for e, c in Counter(edge_ids).items() if c > 1)
        raise InvariantError("duplicate-edge-id", f"edge ids repeat: {dup}")
    chain_map = _string_keys(chain_keys, chain_rows, "duplicate-chain", "chain keys")
    cross_map = _string_keys(cross_keys, pair_rows, "duplicate-crossing-id", "crossing ids")
    if plain and tuple_entries:
        rot_rows = list(map(tuple, rot_given))  # a tuple row is kept, not copied
    else:
        # All entries are made tuples in one pass, then cut per node.
        flat = tuple(zip(named, directions))
        cuts = [0, *accumulate(map(len, rot_given))]
        rot_rows = [flat[i:j] for i, j in zip(cuts, cuts[1:])]
    rot_map = _string_keys(rot_keys, rot_rows, "duplicate-rotation", "rotation keys")

    # Each membership rule is tested with one set operation, the
    # references' all at once when they resolved above; a loop, which
    # finds the first offending entry, runs only when that fails.
    collision = vert_set & cross_set
    if collision:
        raise InvariantError(
            "node-id-collision",
            f"ids used both as vertex and crossing: {sorted(collision)}",
        )
    if not (resolved or vert_set.issuperset(end_a) and vert_set.issuperset(end_b)):
        for e, a, b in edge_rows:
            for end in (a, b):
                if end not in vert_set:
                    raise InvariantError("unknown-vertex", f"edge {e} endpoint {end} undeclared")
    if not known_edges.issuperset(chain_map):
        for e in chain_map:
            if e not in known_edges:
                raise InvariantError("unknown-edge", f"chain given for unknown edge {e}")
    if not (resolved or known_edges.issuperset(firsts) and known_edges.issuperset(seconds)):
        for c, (e, f) in cross_map.items():
            for x in (e, f):
                if x not in known_edges:
                    raise InvariantError("unknown-edge", f"crossing {c} names unknown edge {x}")
    if not (resolved or cross_set.issuperset(stops)):
        for e, cs in chain_map.items():
            for c in cs:
                if c not in cross_set:
                    raise InvariantError(
                        "unknown-crossing", f"chain of {e} names unknown crossing {c}"
                    )
    if not vert_set.issuperset(filterfalse(cross_set.__contains__, rot_map)):
        for node in rot_map:
            if node not in vert_set and node not in cross_set:
                raise InvariantError("unknown-node", f"rotation given for unknown node {node}")
    if not (resolved or known_edges.issuperset(named) and {PLUS, MINUS}.issuperset(directions)):
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
        chains=_in_order(chain_map, sorted(edge_ids)),
        crossings=_in_order(cross_map, sorted(cross_map)),
        rotations=_in_order(rot_map, sorted(rot_map)),
    )
    return spec, (edge_ids, end_a, end_b)


def _check_rules(spec: DrawingSpec, edge_ids: Sequence[str], end_a: Sequence[str],
                 end_b: Sequence[str]) -> None:
    """Raise on the first broken drawing rule of a spec whose ids all resolve,
    and anchor its rotations, which ``spec.rotations`` holds as given;
    ``edge_ids``, ``end_a`` and ``end_b`` are the columns of its edges, in
    any one order.

    Crossings are checked first (each joins two distinct edges and sits once
    on each of their chains), then the rotation at every vertex (exactly the
    incident edge ends), then the rotation at every crossing (the four ends
    of its two edges, alternating: entries 0 and 2, and entries 1 and 3, are
    the two ends of one edge).  One pass over the crossings tests the first
    and the third rule and anchors the rotations that pass, and one pass over
    the vertices tests the second; the loops that name a broken rule run
    only where a pass fails, in the order above.
    """
    chains, rotations, crossings = spec.chains, spec.rotations, spec.crossings
    # With two chain entries per crossing in all, a crossing on the chains of
    # both its edges is on each once and on no other.  A rotation alternates
    # when entries 0 and 2 are the ends of one edge of the pair and entries 1
    # and 3 of the other; it is anchored when it starts at the "+" end of the
    # smaller edge.
    on_chains = sum(map(len, chains.values())) == 2 * len(crossings)
    alternate = True
    if on_chains:
        for c, (e, f) in crossings.items():
            if e == f or c not in chains[e] or c not in chains[f]:
                on_chains = False
                break
            rot = rotations.get(c, ())
            if len(rot) == 4:
                (e0, d0), (e1, d1), (e2, d2), (e3, d3) = rot
                if e0 == e2 and e1 == e3 and d0 != d2 and d1 != d3 and (
                    e0 == e and e1 == f or e0 == f and e1 == e
                ):
                    if d0 != PLUS or e1 < e0:
                        rotations[c] = _anchor_rotation(rot)
                    continue
            alternate = False
    if not on_chains:
        owners: dict[str, list[str]] = {c: [] for c in crossings}
        for e, cs in chains.items():
            for c in cs:
                owners[c].append(e)
        for c, (e, f) in crossings.items():
            if e == f:
                raise InvariantError("self-crossing", f"crossing {c} joins edge {e} with itself")
            found = owners[c]  # [e, f] or [f, e]
            if len(found) != 2 or e not in found or f not in found:
                raise DanglingCrossing(
                    "crossing-degree",
                    f"crossing {c} must appear once in the chains of {e} and {f}; "
                    f"found in {sorted(found)}",
                )

    # The vertex rotations list exactly the incident edge ends iff they hold
    # two entries per edge in all and put each edge's "+" end at its end_a
    # and its "-" end at its end_b: the ends then are distinct and all there.
    # A rotation of distinct ends is anchored at the smallest.
    at_a: dict[str, str] = {}
    at_b: dict[str, str] = {}
    count = 0
    for v in spec.vertices:
        rot = rotations.get(v, ())
        count += len(rot)
        for e, d in rot:
            if d == PLUS:
                at_a[e] = v
            else:
                at_b[e] = v
        if rot and rot[0] != min(rot):
            rotations[v] = _anchor_rotation(rot)
    if not (count == 2 * len(edge_ids) and tuple(map(at_a.get, edge_ids)) == end_a
            and tuple(map(at_b.get, edge_ids)) == end_b):
        ends: dict[str, list[RotationEntry]] = {v: [] for v in spec.vertices}
        for e, a, b in spec.edges:
            ends[a].append((e, PLUS))
            ends[b].append((e, MINUS))
        for v, want in ends.items():
            rot = rotations.get(v, ())
            if sorted(rot) != want:
                raise InvalidRotation(
                    "rotation-at-vertex",
                    f"rotation at {v} must list exactly the incident edge ends "
                    f"{want}; found {list(rot)}",
                )

    if not alternate:
        for c, (e, f) in crossings.items():
            rot = rotations.get(c, ())
            if c not in rotations:
                raise InvalidRotation("rotation-at-crossing", f"crossing {c} has no rotation")
            if len(rot) != 4 or set(rot) != {(e, PLUS), (e, MINUS), (f, PLUS), (f, MINUS)}:
                raise InvalidRotation(
                    "rotation-at-crossing",
                    f"rotation at {c} must contain the four ends of {e} and {f}; "
                    f"found {list(_anchor_rotation(rot))}",
                )
            (e0, _), (e1, _), (e2, _), (e3, _) = rot
            if not e0 == e2 != e1 == e3:
                raise InvalidRotation(
                    "rotation-alternation",
                    f"rotation at {c} does not alternate between {e} and {f}",
                )


class FaceWalk(NamedTuple):
    """A face boundary: one closed walk, or several concatenated with their lengths
    in ``walks``; vertices and edges may repeat on non-simple faces."""

    face_id: str
    darts: tuple[int, ...]
    nodes: tuple[str, ...]
    edges: tuple[str, ...]
    walks: tuple[int, ...]

    # The keys of ``to_dict``, in order; a face of one walk has no ``walks``.
    _keys = ("face", "length", "nodes", "edges", "walks")

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
        doc = dict(zip(self._keys, (
            self.face_id, self.length, list(self.nodes), list(self.edges), list(self.walks),
        ), strict=True))
        if len(self.walks) == 1:
            del doc["walks"]
        return doc


def _lookup(table: Mapping, key: str, what: str):
    """``table[key]``, or :class:`BadArgument` naming ``key`` if there is no such ``what``."""
    try:
        return table[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key
        raise BadArgument(f"no {what} {key!r}") from None


class PlanarizedMap:
    """Immutable planarization of a drawing, with faces traced.

    The spec satisfies the drawing rules (see :class:`DrawingSpec`), so
    construction adds only the sphere check, raising :class:`NonSpherical`
    when face tracing or the per-component Euler formula fails.

    Lists indexed by dart table its face successor, head, edge, rotation
    index and face (``_next``, ``_head``, ``_dart_edge``, ``_rot_index``,
    ``_dart_face``); ``_first`` and ``_last`` map an edge to its darts
    leaving ``end_a`` and ``end_b``; ``_walks`` holds each face's darts.  The
    :class:`FaceWalk` records of :attr:`faces` are built on first access,
    which no audit or export stage makes.  The
    public dart queries refuse anything but a dart of the map, and the
    queries by id (``dart``, ``endpoints``, ``chain``, ``node_sequence``,
    ``crossing_edges``, ``rotation``, ``component_of``) an id the map lacks,
    with :class:`BadArgument`; the package's own loops read the tables
    unchecked.  No table is written after construction.

    Construction is single-threaded; built instances are safe to share
    between threads, as threads that race on the first access of
    :attr:`faces` each build an equal tuple.
    """

    def __init__(self, spec: DrawingSpec):
        self.spec = spec
        self._ends = {e: (a, b) for e, a, b in spec.edges}

        # Node sequence of every edge: end_a, crossings in chain order, end_b.
        # Segments are numbered along them in edge order; segment s has darts
        # 2s, leaving its first node, and 2s + 1, leaving its second.
        chains, crossings = spec.chains, spec.crossings
        self._node_seq = seqs = {e: (a, *chains[e], b) for e, a, b in spec.edges}
        sizes = [2 * len(seq) - 2 for seq in seqs.values()]
        starts = list(accumulate(sizes, initial=0))
        self._first = first = dict(zip(seqs, starts))
        self._last = last = dict(zip(seqs, [s - 1 for s in starts[1:]]))
        self._dart_edge = list(chain.from_iterable(map(repeat, seqs, sizes)))
        d = starts[-1]
        self._head = head = [""] * d
        head[0::2] = chain.from_iterable([seq[1:] for seq in seqs.values()])
        head[1::2] = chain.from_iterable([seq[:-1] for seq in seqs.values()])

        # Decode every outgoing dart o at its node: o's rotation successor is
        # the face successor of its twin o ^ 1.  A crossing's rotation holds
        # one edge's ends at positions 0 and 2, the other's at 1 and 3.  The
        # dart leaving the i-th crossing on e toward end_b is p = first[e] +
        # 2i + 2, and the one toward end_a is p - 1, so the two sum to 2p - 1.
        self._rot = rot = {}
        self._next = nxt = [0] * d
        self._rot_index = rot_index = [0] * d
        for node, entries in spec.rotations.items():
            if node in crossings:
                (e, x), (f, y), _, _ = entries
                p = first[e] + 2 * chains[e].index(node) + 2
                q = first[f] + 2 * chains[f].index(node) + 2
                a, b = p - (x != PLUS), q - (y != PLUS)
                c, z = 2 * p - 1 - a, 2 * q - 1 - b
                rot[node] = (a, b, c, z)
                rot_index[a], rot_index[b], rot_index[c], rot_index[z] = 0, 1, 2, 3
                nxt[a ^ 1], nxt[b ^ 1], nxt[c ^ 1], nxt[z ^ 1] = b, c, z, a
                continue
            darts = rot[node] = tuple([first[e] if s == PLUS else last[e] for e, s in entries])
            for i, (o, s) in enumerate(zip(darts, darts[1:] + darts[:1])):
                rot_index[o] = i
                nxt[o ^ 1] = s
        for v in spec.vertices:
            rot.setdefault(v, ())

        self._walks = self._trace_faces()
        self._faces: tuple[FaceWalk, ...] | None = None
        self._components = self._compute_components()
        self._check_euler()

    # -- construction helpers ---------------------------------------------

    def _trace_faces(self) -> list[list[int]]:
        """The face orbits as dart walks; fills ``_dart_face``."""
        walks: list[list[int]] = []
        nxt = self._next
        self._dart_face = dart_face = [-1] * len(nxt)
        # Walks start at darts 0, 1, 2, ...: (edge, seg, +1 before -1) order.
        for start in range(len(nxt)):
            if dart_face[start] >= 0:
                continue
            index = len(walks)
            walk = [start]
            dart_face[start] = index
            d = nxt[start]
            while dart_face[d] < 0:
                dart_face[d] = index
                walk.append(d)
                d = nxt[d]
            if d != start:
                raise NonSpherical(f"face traversal re-entered dart {self.describe(d)}")
            walks.append(walk)
        return walks

    def _compute_components(self) -> dict[str, int]:
        comp: dict[str, int] = {}
        rot, head = self._rot, self._head
        n = 0
        for node in sorted((*self.spec.vertices, *self.spec.crossings)):
            if node in comp:
                continue
            comp[node] = n
            queue = [node]
            for x in queue:  # the search appends to the list it reads
                for d in rot[x]:
                    y = head[d]
                    if y not in comp:
                        comp[y] = n
                        queue.append(y)
            n += 1
        return comp

    def _check_euler(self) -> None:
        # V - E + F = 2 on every component with an edge.  A component's
        # rotation system embeds it in an orientable surface, where V - E + F
        # = 2 - 2 * genus <= 2, so the sums over all components meet the
        # bound only if each one does; they are tested first.
        comp = self._components
        isolated = list(map(len, self._rot.values())).count(0)
        components = max(comp.values(), default=-1) + 1
        if len(comp) - len(self._next) // 2 + len(self._walks) == 2 * components - isolated:
            return
        v_count = Counter(comp.values())
        e_count = Counter(map(comp.__getitem__, self._head[0::2]))  # by each segment's head
        f_count = Counter([comp[self._head[walk[0]]] for walk in self._walks])
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
        ints = all(isinstance(x, int) and not isinstance(x, bool) for x in (seg, direction))
        if ints and direction in (1, -1):
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
        """One record per face walk, face ``f{i}`` at index ``i``; built on first access."""
        if self._faces is None:
            head, dart_edge = self._head, self._dart_edge
            self._faces = tuple([
                FaceWalk(f"f{i}", tuple(walk), tuple([head[d] for d in walk]),
                         tuple([dart_edge[d] for d in walk]), (len(walk),))
                for i, walk in enumerate(self._walks)
            ])
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
        """The face to the right of a dart, and the dart's position in its walk."""
        f = self._dart_face[self._checked(d)]
        return (f"f{f}", self._walks[f].index(d))

    def face_index_of_dart(self, d: int) -> int:
        """Index into :attr:`faces` of the face to the right of a dart."""
        return self._dart_face[self._checked(d)]

    def segment_count(self) -> int:
        return sum(len(seq) - 1 for seq in self._node_seq.values())

    def edge_crossing_counts(self) -> dict[str, int]:
        return {e: len(cs) for e, cs in self.spec.chains.items()}

    def pair_crossing_counts(self) -> dict[frozenset, int]:
        return dict(Counter(map(frozenset, self.spec.crossings.values())))

    def component_of(self, node: str) -> int:
        return _lookup(self._components, node, "node")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarizedMap) and self.spec == other.spec

    def __hash__(self) -> int:  # pragma: no cover - maps are not dict keys in practice
        return hash(self.spec.edges)

    def __repr__(self) -> str:
        return (
            f"PlanarizedMap(n={len(self.vertices)}, edges={len(self.edge_ids)}, "
            f"crossings={len(self.spec.crossings)}, faces={len(self._walks)})"
        )


def build_map(spec: DrawingSpec) -> PlanarizedMap:
    """Planarize a drawing; raises :class:`NonSpherical` unless it embeds in the sphere."""
    return PlanarizedMap(spec)


def _edge_set(pmap: PlanarizedMap, edges: Iterable[str]) -> set[str]:
    """The ids in ``edges`` as strings; :class:`BadArgument` unless each is an edge of the map."""
    try:
        if isinstance(edges, (str, bytes, bytearray)):  # one id, not an iterable of them
            raise TypeError
        ids = iter(edges)
    except TypeError:
        raise BadArgument(f"edges must be an iterable of edge ids; got {edges!r}") from None
    try:
        kept = {str(e) for e in ids}
    except ValueError:  # an int of too many digits
        limit = sys.get_int_max_str_digits()
        raise BadArgument(f"integer edge ids have at most {limit} digits") from None
    unknown = kept - set(pmap.edge_ids)
    if unknown:
        raise BadArgument(f"not edges of this map: {sorted(unknown)}")
    return kept


def restrict(pmap: PlanarizedMap, keep: Iterable[str]) -> PlanarizedMap:
    """Sub-drawing induced by a set of edges.

    Crossings with removed edges dissolve (the kept edge's segments merge);
    rotations at real vertices drop the removed entries; faces are recomputed.
    """
    keep_set = _edge_set(pmap, keep)
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
