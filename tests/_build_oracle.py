"""The per-entry ``DrawingSpec.build``, kept as a test oracle.

``crossing_ledger.drawing`` checks the form of the rows in one pass over
their types and lengths, tests each membership rule with one set operation
and runs the per-entry loops only when that test fails, and anchors a
rotation at ``entries.index(min(entries))`` once every direction is known
to be ``+`` or ``-``.  This module keeps the code it replaced: every row
checked on its own, every rotation anchored by ``_entry_key`` before any
check, and every rule checked entry by entry.  ``tests/test_build_oracle.py``
requires the same spec, or the same exception type, rule and message, from
both.

Three edits since: the three collision rules (``duplicate-chain``,
``duplicate-crossing-id``, ``duplicate-rotation``), which refuse two keys
that become equal under ``str()``, where the old code kept the later one;
a field given as None, which is refused as ``field-mapping`` where the old
code read it as empty (a field left out still means none); and ``vertices``
or ``edges`` that are not a list or tuple, refused as ``field-list`` by the
first check, where the old code raised a raw ``TypeError`` or iterated a
string.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from crossing_ledger.drawing import (
    MINUS,
    PLUS,
    DrawingSpec,
    RotationEntry,
    _check_fields,
    _check_ids,
    _check_rules,
)
from crossing_ledger.errors import InvariantError


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
