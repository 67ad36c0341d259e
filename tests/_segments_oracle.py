"""The per-item segments stages and the union-find skeleton regions, kept as test oracles.

``crossing_ledger.segments`` builds its records positionally, formats an
error message only when it raises, reads the walk length of a face of one
walk directly, sorts each face's pieces once and orders each intra-crossing
pair by one comparison; ``crossing_ledger.skeleton`` labels the skeleton
regions with one flood over the map faces across residual segments.  This
module keeps the code they replaced: :func:`decompose`,
:func:`face_profiles` and :func:`skeleton_faces` (union-find over the map
faces).  ``tests/test_segments_oracle.py`` requires equal records from
both, or the same exception type, rule and message.
"""

from __future__ import annotations

from crossing_ledger.drawing import FaceWalk, PlanarizedMap
from crossing_ledger.errors import InvariantError
from crossing_ledger.segments import (
    MIDDLE,
    STICK,
    CrossedRef,
    FaceProfile,
    Pieces,
    Profiles,
    SegmentPiece,
    _check_pieces,
    classify_middle,
    classify_stick,
)
from crossing_ledger.skeleton import SkeletonDecomposition


def _position(dec: SkeletonDecomposition, d: int, host: str, what: str) -> int:
    """Position of walk dart ``d`` in face ``host``; positions index the walks concatenated."""
    face_id, pos = dec.occurrences[d]
    if face_id != host:
        raise InvariantError(
            "decompose-host-mismatch",
            f"{what} resolves to {face_id}, but the piece lives in {host}",
        )
    return pos


def _crossed(
    dec: SkeletonDecomposition, skeleton: set[str], boundary_dart: int, crossing: str,
    host: str, after: int,
) -> CrossedRef:
    """The skeleton-edge occurrence a piece crosses at one of its ends.

    ``after`` is the piece's dart at ``crossing`` and ``boundary_dart`` its
    full-map walk neighbour there: the successor of the dart that arrives, or
    the predecessor of the dart that departs.  That neighbour is the skeleton
    dart bounding the piece's side, and its position is the crossed occurrence.
    """
    full = dec.full_map
    edge = full._dart_edge[boundary_dart]
    if edge not in skeleton:
        raise InvariantError(
            "decompose-misaligned",
            f"expected a skeleton dart next to {full.describe(after)}; "
            f"found {full.describe(boundary_dart)}",
        )
    pos = _position(dec, boundary_dart, host, f"crossed occurrence of {edge}")
    return CrossedRef(crossing=crossing, edge=edge, position=pos)


def _stick_occurrence(
    dec: SkeletonDecomposition, skeleton: set[str], vertex: str, out_dart: int, host: str
) -> int | None:
    """Boundary occurrence of ``vertex`` whose corner wedge hosts the stick.

    Scanning the full rotation clockwise from the stick's outgoing dart, in
    place, the first skeleton dart reached is the reversal of the walk dart
    that enters the wedge; the occurrence is that walk dart's position.
    Returns None when the vertex lies on no skeleton edge (isolated in the
    skeleton, floating inside the face).
    """
    full = dec.full_map
    rot = full._rot[vertex]
    i = full._rot_index[out_dart]
    dart_edge = full._dart_edge
    for j in range(i, i - len(rot), -1):
        d = rot[j]
        if dart_edge[d] in skeleton:
            return _position(dec, d ^ 1, host, f"wedge of stick at {vertex}")
    return None


def decompose(dec: SkeletonDecomposition) -> Pieces:
    """Cut every residual edge into sticks and middle parts.

    The pieces come as a :class:`Pieces` tuple that remembers ``dec``.

    Raises :class:`InvariantError` if a residual edge crosses no skeleton
    edge; that breaks the decomposition contract and indicates a defective
    skeleton, not a property of the drawing.
    """
    faces = {f.face_id: f for f in dec.faces}
    full = dec.full_map
    hosts, dart_face = dec.hosts, full._dart_face
    nxt, head, first = full._next, full._head, full._first
    rot, rot_index = full._rot, full._rot_index
    chains, crossings = full.spec.chains, full.spec.crossings
    skeleton = set(dec.skeleton_edges)

    spans: list[tuple[str, int, int, int, bool]] = []  # (edge, index, lo, hi, last)
    piece_at_crossing: dict[tuple[str, str], str] = {}
    for e in dec.residual_edges:
        chain = chains[e]
        cuts = [
            i for i, c in enumerate(chain)
            if _other_edge(crossings[c], e) in skeleton
        ]
        if not cuts:
            raise InvariantError(
                "decompose-uncut",
                f"residual edge {e} crosses no skeleton edge; the skeleton is not maximal",
            )
        boundaries = [-1] + cuts + [len(chain)]
        for idx in range(len(boundaries) - 1):
            lo, hi = boundaries[idx], boundaries[idx + 1]
            for c in chain[lo + 1:hi]:
                piece_at_crossing[(c, e)] = f"{e}#{idx}"
            spans.append((e, idx, lo, hi, idx == len(boundaries) - 2))

    pieces: list[SegmentPiece] = []
    for e, idx, lo, hi, last in spans:
        chain = chains[e]
        kind = STICK if idx == 0 or last else MIDDLE
        warnings: list[str] = []
        vertex: str | None = None
        occ: int | None = None

        # Segment ``seg`` of ``e`` has darts f + 2 seg (forward) and f + 2 seg + 1.
        f = first[e]
        if kind == STICK:
            # The stick leaves ``vertex`` along ``out_dart`` and reaches its cut along ``arrive``.
            vertex = full._ends[e][0 if idx == 0 else 1]
            out_dart = f if idx == 0 else full._last[e]
            arrive = f + 2 * hi if idx == 0 else f + 2 * lo + 3
            host = hosts[dart_face[out_dart]]
            crossed = (_crossed(dec, skeleton, nxt[arrive], head[arrive], host, arrive),)
            occ = _stick_occurrence(dec, skeleton, vertex, out_dart, host)
            walk_len = faces[host].walk_length(occ, crossed[0].position)
            classification, orientation = classify_stick(occ, crossed[0].position, walk_len)
            if occ is None:
                warnings.append(
                    f"stick of {e} emanates from {vertex}, which is not on the host "
                    "face boundary (isolated in the skeleton)"
                )
        else:
            depart = f + 2 * lo + 2
            arrive = f + 2 * hi
            host = hosts[dart_face[depart]]
            # The face predecessor of ``depart``: the reversal of its rotation predecessor.
            before = rot[head[depart ^ 1]][rot_index[depart] - 1] ^ 1
            crossed = (
                _crossed(dec, skeleton, before, head[depart ^ 1], host, depart),
                _crossed(dec, skeleton, nxt[arrive], head[arrive], host, arrive),
            )
            if crossed[0].edge == crossed[1].edge:
                warnings.append(
                    f"middle part of {e} crosses two occurrences of edge {crossed[0].edge}"
                )
            walk_len = faces[host].walk_length(crossed[0].position, crossed[1].position)
            classification = classify_middle(crossed[0].position, crossed[1].position, walk_len)
            orientation = None

        pieces.append(
            SegmentPiece(
                piece_id=f"{e}#{idx}",
                edge=e,
                index=idx,
                kind=kind,
                host_face=host,
                emanates_from=vertex,
                occurrence=occ,
                crossed=crossed,
                classification=classification,
                orientation=orientation,
                intra_crossings=chain[lo + 1:hi],
                intra_pieces=tuple(
                    sorted(
                        piece_at_crossing[(c, _other_edge(crossings[c], e))]
                        for c in chain[lo + 1:hi]
                    )
                ),
                warnings=tuple(warnings),
            )
        )

    by_id = {p.piece_id: p for p in pieces}
    for p in pieces:
        for q_id in p.intra_pieces:
            if by_id[q_id].host_face != p.host_face:
                raise InvariantError(
                    "decompose-host-mismatch",
                    f"pieces {p.piece_id} and {q_id} cross but resolve to different faces",
                )
    return Pieces(pieces, decomposition=dec)


def _other_edge(pair: tuple[str, str], edge: str) -> str:
    return pair[1] if pair[0] == edge else pair[0]



def face_profiles(dec: SkeletonDecomposition, pieces: Pieces) -> Profiles:
    """Per-face summary: type tuple, bridges, passing-through edges, crossings.

    ``pieces`` must be what ``decompose(dec)`` returned, or
    :class:`BadArgument` is raised.  The profiles come as a
    :class:`Profiles` tuple that remembers ``pieces``.
    """
    _check_pieces(dec, pieces)
    by_face: dict[str, list[SegmentPiece]] = {f.face_id: [] for f in dec.faces}
    for p in pieces:
        by_face[p.host_face].append(p)

    occurrences = dec.occurrences
    profiles = []
    for face in dec.faces:
        members = by_face[face.face_id]
        sticks = sorted((p for p in members if p.kind == STICK), key=lambda p: p.piece_id)
        middles = sorted((p for p in members if p.kind == MIDDLE), key=lambda p: p.piece_id)
        warnings: list[str] = []

        tau = [0] * face.length
        for p in sticks:
            if p.occurrence is None:
                warnings.append(f"stick {p.piece_id} floats (no boundary occurrence)")
            else:
                tau[p.occurrence] += 1

        edge_occurrences: dict[str, int] = {}
        for e in face.edges:
            edge_occurrences[e] = edge_occurrences.get(e, 0) + 1
        bridges = tuple(sorted(e for e, c in edge_occurrences.items() if c == 2))
        non_bridges = tuple(sorted(e for e, c in edge_occurrences.items() if c == 1))

        crossed_by_passing = {ref.edge for p in middles for ref in p.crossed}
        uncrossed = tuple(sorted(e for e in non_bridges if e not in crossed_by_passing))

        neighbors = tuple([occurrences[d ^ 1][0] for d in face.darts])

        ss_pairs: set[tuple[str, str]] = set()
        sm_pairs: set[tuple[str, str]] = set()
        kinds = {p.piece_id: p.kind for p in members}
        for p in members:
            for q_id in p.intra_pieces:
                a, b = sorted((p.piece_id, q_id))
                kind_a, kind_b = kinds[a], kinds[b]
                if kind_a == STICK and kind_b == STICK:
                    ss_pairs.add((a, b))
                elif STICK in (kind_a, kind_b):
                    sm_pairs.add((a, b))

        for p in members:
            warnings.extend(p.warnings)

        profiles.append(
            FaceProfile(
                face=face.face_id,
                size=face.length,
                walk_nodes=face.nodes,
                walk_edges=face.edges,
                walks=face.walks,
                neighbors=neighbors,
                type_tuple=tuple(tau),
                sticks=tuple(p.piece_id for p in sticks),
                middles=tuple(p.piece_id for p in middles),
                passing_edges=tuple(sorted({p.edge for p in middles})),
                bridges=bridges,
                non_bridges=non_bridges,
                uncrossed_non_bridges=uncrossed,
                stick_stick_pairs=tuple(sorted(ss_pairs)),
                stick_middle_pairs=tuple(sorted(sm_pairs)),
                warnings=tuple(warnings),
            )
        )
    return Profiles(profiles, pieces=pieces)


def skeleton_faces(pmap: PlanarizedMap, kept: set[str]):
    """(faces, occurrences, hosts) of a :class:`SkeletonDecomposition`.

    Walks are the face orbits of the skeleton's rotation system, which is the
    full rotation restricted to skeleton darts, started in the order
    :func:`~crossing_ledger.drawing.restrict` traces faces.  A walk lies in the
    region of the full face right of its first dart; regions are numbered in
    the order of their first walk.
    """

    # The caller passed these: the edges that are not kept.
    residual = tuple(sorted(set(pmap.edge_ids) - kept))
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

    parent = list(range(len(pmap._walks)))

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

    hosts = tuple(host_of_root.get(find(i)) for i in range(len(parent)))
    if None in hosts:
        raise InvariantError(
            "decompose-hostless", f"face f{hosts.index(None)} is not bounded by any skeleton edge"
        )
    return tuple(faces), occurrences, hosts


