"""Stick and middle-part decomposition of residual edges.

Every edge outside the skeleton crosses at least one skeleton edge; cutting
its chain at exactly those crossings yields two sticks (the end pieces) and
0, 1, or 2 middle parts.  Each piece lies inside one skeleton face, and its
attachment data is resolved at the level of boundary *occurrences* so that
non-simple faces (repeated vertices or edges, several walks) are handled
correctly.  Crossings with other residual edges never cut a piece; they are
recorded as intra-face crossings.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadArgument, InvariantError
from .skeleton import SkeletonDecomposition

STICK = "stick"
MIDDLE = "middle"
SHORT = "short"
LONG = "long"
FAR = "far"
LEFT = "left"
RIGHT = "right"


class CrossedRef(NamedTuple):
    """One boundary crossing of a piece: which edge, at which walk position."""

    crossing: str
    edge: str
    position: int

    def to_dict(self) -> dict:
        return {"crossing": self.crossing, "edge": self.edge, "position": self.position}


class SegmentPiece(NamedTuple):
    piece_id: str
    edge: str
    index: int
    kind: str
    host_face: str
    emanates_from: str | None
    occurrence: int | None
    crossed: tuple[CrossedRef, ...]
    classification: str
    orientation: str | None
    intra_crossings: tuple[str, ...]
    intra_pieces: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "piece": self.piece_id,
            "edge": self.edge,
            "kind": self.kind,
            "host_face": self.host_face,
            "emanates_from": self.emanates_from,
            "occurrence": self.occurrence,
            "crossed": [c.to_dict() for c in self.crossed],
            "classification": self.classification,
            "orientation": self.orientation,
            "intra_crossings": list(self.intra_crossings),
            "intra_pieces": list(self.intra_pieces),
            "warnings": list(self.warnings),
        }


class FaceProfile(NamedTuple):
    """Everything the density audit needs to know about one skeleton face."""

    face: str
    size: int
    walk_nodes: tuple[str, ...]
    walk_edges: tuple[str, ...]
    walks: tuple[int, ...]
    neighbors: tuple[str, ...]
    type_tuple: tuple[int, ...]
    sticks: tuple[str, ...]
    middles: tuple[str, ...]
    passing_edges: tuple[str, ...]
    bridges: tuple[str, ...]
    non_bridges: tuple[str, ...]
    uncrossed_non_bridges: tuple[str, ...]
    stick_stick_pairs: tuple[tuple[str, str], ...]
    stick_middle_pairs: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...] = ()

    @property
    def is_triangle(self) -> bool:
        """One boundary walk of length 3; a face of several walks never is."""
        return self.walks == (3,)

    @property
    def stick_count(self) -> int:
        return len(self.sticks)

    @property
    def bridge_count(self) -> int:
        return len(self.bridges)

    @property
    def non_bridge_count(self) -> int:
        return len(self.non_bridges)

    @property
    def uncrossed_count(self) -> int:
        return len(self.uncrossed_non_bridges)

    def to_dict(self) -> dict:
        return {
            "face": self.face,
            "size": self.size,
            "nodes": list(self.walk_nodes),
            "edges": list(self.walk_edges),
            **({"walks": list(self.walks)} if len(self.walks) > 1 else {}),
            "type": list(self.type_tuple),
            "sticks": list(self.sticks),
            "middles": list(self.middles),
            "passing_edges": list(self.passing_edges),
            "bridges": list(self.bridges),
            "non_bridges": list(self.non_bridges),
            "uncrossed_non_bridges": list(self.uncrossed_non_bridges),
            "stick_stick_pairs": [list(p) for p in self.stick_stick_pairs],
            "stick_middle_pairs": [list(p) for p in self.stick_middle_pairs],
            "warnings": list(self.warnings),
        }


class _Derived(tuple):
    """A stage's results, as a tuple that also names the input they came from.

    The input is given as one keyword at construction and cannot be set or
    deleted later; being a tuple, the results cannot change either.  So a
    stage checks where its input came from by identity alone.
    """

    def __new__(cls, items, **source):
        self = super().__new__(cls, items)
        vars(self).update(source)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Pieces(_Derived):
    """``decompose(dec)``'s pieces in order; ``decomposition`` is that ``dec``."""

    decomposition: SkeletonDecomposition


class Profiles(_Derived):
    """``face_profiles(dec, pieces)``'s profiles in face order; ``pieces`` are those pieces."""

    pieces: Pieces


def _check_pieces(dec: SkeletonDecomposition, pieces: Pieces) -> None:
    """Refuse ``pieces`` unless they are what ``decompose(dec)`` returned."""
    if getattr(pieces, "decomposition", None) is not dec:
        raise BadArgument("pieces must be what decompose(dec) returned for this decomposition")


# -- classification ------------------------------------------------------------


def classify_stick(
    occurrence: int | None, crossed_position: int, walk_length: int | None
) -> tuple[str, str | None]:
    """(class, side) of a stick.  Short iff one boundary direction passes exactly
    one other vertex occurrence: a right stick exits across the next-but-one
    boundary edge, a left stick across the previous one.  On a walk shorter
    than 4 (a triangle: the two coincide) a stick has no side; a
    ``walk_length`` of None means the positions lie on different walks."""
    if occurrence is None or walk_length is None:
        return LONG, None  # no boundary occurrence on the walk of the crossed side
    if (crossed_position - occurrence) % walk_length == 2:
        side = RIGHT
    elif (occurrence - crossed_position) % walk_length == 1:
        side = LEFT
    else:
        return LONG, None
    return SHORT, side if walk_length >= 4 else None


def classify_middle(entry_position: int, exit_position: int, walk_length: int | None) -> str:
    """Short iff the two crossed boundary occurrences are walk-adjacent."""
    if walk_length is None:
        return FAR  # the crossed sides lie on different walks of the face
    gap = (entry_position - exit_position) % walk_length
    return SHORT if gap in (1, walk_length - 1) else FAR


# -- decomposition ---------------------------------------------------------------


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
