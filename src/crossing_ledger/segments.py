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

from operator import attrgetter
from typing import NamedTuple

from .errors import BadArgument, InvariantError
from .interchange import _TEMPLATE, _block, _ints, _null, _quote, _strings
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

    _keys = ("crossing", "edge", "position")

    def to_dict(self) -> dict:
        return dict(zip(self._keys, self, strict=True))


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

    # The keys of ``to_dict``, in order; ``index`` is left out.
    _keys = (
        "piece", "edge", "kind", "host_face", "emanates_from", "occurrence", "crossed",
        "classification", "orientation", "intra_crossings", "intra_pieces", "warnings",
    )

    def to_dict(self) -> dict:
        return dict(zip(self._keys, (
            self.piece_id,
            self.edge,
            self.kind,
            self.host_face,
            self.emanates_from,
            self.occurrence,
            [c.to_dict() for c in self.crossed],
            self.classification,
            self.orientation,
            list(self.intra_crossings),
            list(self.intra_pieces),
            list(self.warnings),
        ), strict=True))

    def _json(self, depth: int) -> str:
        """``to_dict()`` as the report writer writes it at ``depth``, made from the fields."""
        deeper = depth + 1
        crossed = _TEMPLATE[CrossedRef._keys, deeper + 1, True]
        return _TEMPLATE[self._keys, depth, True] % (
            _quote(self.piece_id),
            _quote(self.edge),
            _quote(self.kind),
            _quote(self.host_face),
            _null(self.emanates_from),
            "null" if self.occurrence is None else self.occurrence,
            _block(
                [crossed % (_quote(c.crossing), _quote(c.edge), c.position) for c in self.crossed],
                deeper,
            ),
            _quote(self.classification),
            _null(self.orientation),
            _strings(self.intra_crossings, deeper),
            _strings(self.intra_pieces, deeper),
            _strings(self.warnings, deeper),
        )


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
    def non_bridge_count(self) -> int:
        return len(self.non_bridges)

    @property
    def uncrossed_count(self) -> int:
        return len(self.uncrossed_non_bridges)

    # The keys of ``to_dict``, in order; a face of one walk has no ``walks``.
    _keys = (
        "face", "size", "nodes", "edges", "walks", "type", "sticks", "middles", "passing_edges",
        "bridges", "non_bridges", "uncrossed_non_bridges", "stick_stick_pairs",
        "stick_middle_pairs", "warnings",
    )

    def to_dict(self) -> dict:
        doc = dict(zip(self._keys, (
            self.face,
            self.size,
            list(self.walk_nodes),
            list(self.walk_edges),
            list(self.walks),
            list(self.type_tuple),
            list(self.sticks),
            list(self.middles),
            list(self.passing_edges),
            list(self.bridges),
            list(self.non_bridges),
            list(self.uncrossed_non_bridges),
            [list(p) for p in self.stick_stick_pairs],
            [list(p) for p in self.stick_middle_pairs],
            list(self.warnings),
        ), strict=True))
        if len(self.walks) == 1:
            del doc["walks"]
        return doc

    def _json(self, depth: int) -> str:
        """``to_dict()`` as the report writer writes it at ``depth``, made from the fields."""
        deeper = depth + 1
        walks = (_ints(self.walks, deeper),) if len(self.walks) > 1 else ()
        return _TEMPLATE[self._keys, depth, bool(walks)] % (
            _quote(self.face),
            self.size,
            _strings(self.walk_nodes, deeper),
            _strings(self.walk_edges, deeper),
            *walks,
            _ints(self.type_tuple, deeper),
            _strings(self.sticks, deeper),
            _strings(self.middles, deeper),
            _strings(self.passing_edges, deeper),
            _strings(self.bridges, deeper),
            _strings(self.non_bridges, deeper),
            _strings(self.uncrossed_non_bridges, deeper),
            _block([_strings(pair, deeper + 1) for pair in self.stick_stick_pairs], deeper),
            _block([_strings(pair, deeper + 1) for pair in self.stick_middle_pairs], deeper),
            _strings(self.warnings, deeper),
        )


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


def _position(dec: SkeletonDecomposition, d: int, host: str, what: str, name: str) -> int:
    """Position of walk dart ``d`` in face ``host``; positions index the walks concatenated.

    An error names the dart as ``what.format(name)``, formatted only when raised.
    """
    face_id, pos = dec.occurrences[d]
    if face_id != host:
        raise InvariantError(
            "decompose-host-mismatch",
            f"{what.format(name)} resolves to {face_id}, but the piece lives in {host}",
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
    pos = _position(dec, boundary_dart, host, "crossed occurrence of {}", edge)
    return CrossedRef(crossing, edge, pos)


def decompose(dec: SkeletonDecomposition) -> Pieces:
    """Cut every residual edge into sticks and middle parts.

    The pieces come as a :class:`Pieces` tuple that remembers ``dec``.

    Raises :class:`InvariantError` if a residual edge crosses no skeleton
    edge; that breaks the decomposition contract and indicates a defective
    skeleton, not a property of the drawing.
    """
    faces = {f.face_id: f for f in dec.faces}
    # A face of one walk: every position lies on it, so that is its walk length.
    single = {f.face_id: f.walks[0] for f in dec.faces if len(f.walks) == 1}
    full = dec.full_map
    hosts, dart_face, ends = dec.hosts, full._dart_face, full._ends
    nxt, head, first, last_dart = full._next, full._head, full._first, full._last
    rot, rot_index, dart_edge = full._rot, full._rot_index, full._dart_edge
    chains, crossings = full.spec.chains, full.spec.crossings
    skeleton = set(dec.skeleton_edges)
    # A residual edge is cut where it crosses a skeleton edge.
    cut_at = {c for c, (a, b) in crossings.items() if a in skeleton or b in skeleton}

    spans: list[tuple[str, int, str, int, int, bool]] = []  # (edge, index, id, lo, hi, last)
    piece_at_crossing: dict[tuple[str, str], str] = {}
    for e in dec.residual_edges:
        chain = chains[e]
        cuts = [i for i, c in enumerate(chain) if c in cut_at]
        if not cuts:
            raise InvariantError(
                "decompose-uncut",
                f"residual edge {e} crosses no skeleton edge; the skeleton is not maximal",
            )
        boundaries = [-1, *cuts, len(chain)]
        for idx in range(len(boundaries) - 1):
            lo, hi = boundaries[idx], boundaries[idx + 1]
            piece_id = f"{e}#{idx}"
            for c in chain[lo + 1:hi]:
                piece_at_crossing[c, e] = piece_id
            spans.append((e, idx, piece_id, lo, hi, idx == len(boundaries) - 2))

    pieces: list[SegmentPiece] = []
    host_of: dict[str, str] = {}
    for e, idx, piece_id, lo, hi, last in spans:
        kind = STICK if idx == 0 or last else MIDDLE
        warnings: tuple[str, ...] = ()
        vertex: str | None = None
        occ: int | None = None

        # Segment ``seg`` of ``e`` has darts f + 2 seg (forward) and f + 2 seg + 1.
        f = first[e]
        if kind == STICK:
            # The stick leaves ``vertex`` along ``out_dart`` and reaches its cut along ``arrive``.
            vertex = ends[e][0 if idx == 0 else 1]
            out_dart = f if idx == 0 else last_dart[e]
            arrive = f + 2 * hi if idx == 0 else f + 2 * lo + 3
            host = hosts[dart_face[out_dart]]
            crossed = (_crossed(dec, skeleton, nxt[arrive], head[arrive], host, arrive),)
            pos = crossed[0].position
            # The boundary occurrence of ``vertex`` whose corner wedge hosts the
            # stick: scanning the rotation clockwise from ``out_dart``, the first
            # skeleton dart reached is the reversal of the walk dart that enters
            # the wedge.  None when the vertex is on no skeleton edge (it floats).
            vertex_rot = rot[vertex]
            i = rot_index[out_dart]
            for j in range(i, i - len(vertex_rot), -1):
                d = vertex_rot[j]
                if dart_edge[d] in skeleton:
                    occ = _position(dec, d ^ 1, host, "wedge of stick at {}", vertex)
                    break
            walk_len = single.get(host) or faces[host].walk_length(occ, pos)
            classification, orientation = classify_stick(occ, pos, walk_len)
            if occ is None:
                warnings = (
                    f"stick of {e} emanates from {vertex}, which is not on the host "
                    "face boundary (isolated in the skeleton)",
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
            (_, entry_edge, entry), (_, exit_edge, exit_) = crossed
            if entry_edge == exit_edge:
                warnings = (f"middle part of {e} crosses two occurrences of edge {entry_edge}",)
            walk_len = single.get(host) or faces[host].walk_length(entry, exit_)
            classification = classify_middle(entry, exit_, walk_len)
            orientation = None

        intra = chains[e][lo + 1:hi]
        partners = [piece_at_crossing[c, _other_edge(crossings[c], e)] for c in intra]
        host_of[piece_id] = host
        pieces.append(SegmentPiece(
            piece_id, e, idx, kind, host, vertex, occ, crossed, classification, orientation,
            intra, tuple(sorted(partners)) if partners else (), warnings,
        ))

    for p in pieces:
        for q_id in p.intra_pieces:
            if host_of[q_id] != p.host_face:
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
    kinds: dict[str, str] = {}
    for p in pieces:
        by_face[p.host_face].append(p)
        kinds[p.piece_id] = p.kind

    occurrences = dec.occurrences
    by_id = attrgetter("piece_id")
    profiles = []
    for face in dec.faces:
        members = by_face[face.face_id]
        sticks: list[str] = []
        middles: list[str] = []
        passing: set[str] = set()
        crossed_by_passing: set[str] = set()
        warnings: list[str] = []
        tau = [0] * len(face.darts)
        for p in sorted(members, key=by_id):
            if p.kind == STICK:
                sticks.append(p.piece_id)
                if p.occurrence is None:
                    warnings.append(f"stick {p.piece_id} floats (no boundary occurrence)")
                else:
                    tau[p.occurrence] += 1
            else:
                middles.append(p.piece_id)
                passing.add(p.edge)
                crossed_by_passing.update([ref.edge for ref in p.crossed])

        edge_occurrences: dict[str, int] = {}
        for e in face.edges:
            edge_occurrences[e] = edge_occurrences.get(e, 0) + 1
        face_edges = sorted(edge_occurrences)
        bridges = tuple([e for e in face_edges if edge_occurrences[e] == 2])
        non_bridges = tuple([e for e in face_edges if edge_occurrences[e] == 1])
        uncrossed = tuple([e for e in non_bridges if e not in crossed_by_passing])

        neighbors = tuple([occurrences[d ^ 1][0] for d in face.darts])

        # Each crossing pair is met from both of its pieces; it is kept from the smaller id.
        ss_pairs: set[tuple[str, str]] = set()
        sm_pairs: set[tuple[str, str]] = set()
        for p in members:
            a = p.piece_id
            for b in p.intra_pieces:
                if a < b:
                    if kinds[a] == STICK and kinds[b] == STICK:
                        ss_pairs.add((a, b))
                    elif STICK in (kinds[a], kinds[b]):
                        sm_pairs.add((a, b))
            warnings.extend(p.warnings)

        profiles.append(FaceProfile(
            face.face_id, len(face.darts), face.nodes, face.edges, face.walks, neighbors,
            tuple(tau), tuple(sticks), tuple(middles), tuple(sorted(passing)), bridges,
            non_bridges, uncrossed, tuple(sorted(ss_pairs)), tuple(sorted(sm_pairs)),
            tuple(warnings),
        ))
    return Profiles(profiles, pieces=pieces)
