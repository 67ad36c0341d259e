"""Stick and middle-part decomposition of residual edges.

Every edge outside the skeleton crosses at least one skeleton edge; cutting
its chain at exactly those crossings yields two sticks (the end pieces) and
0, 1, or 2 middle parts.  Each piece lies inside one skeleton face, and its
attachment data is resolved at the level of boundary *occurrences* so that
non-simple faces (repeated vertices or edges on the walk) are handled
correctly.  Crossings with other residual edges never cut a piece; they are
recorded as intra-face crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import Dart
from .errors import InvariantError
from .skeleton import SkeletonDecomposition

STICK = "stick"
MIDDLE = "middle"
SHORT = "short"
LONG = "long"
FAR = "far"
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class CrossedRef:
    """One boundary crossing of a piece: which edge, at which walk position."""

    crossing: str
    edge: str
    position: int

    def to_dict(self) -> dict:
        return {"crossing": self.crossing, "edge": self.edge, "position": self.position}


@dataclass(frozen=True)
class SegmentPiece:
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


@dataclass(frozen=True)
class FaceProfile:
    """Everything the density audit needs to know about one skeleton face."""

    face: str
    size: int
    walk_nodes: tuple[str, ...]
    walk_edges: tuple[str, ...]
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
    opposite_flags: dict[tuple[str, str], bool]
    warnings: tuple[str, ...] = ()

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


# -- classification ------------------------------------------------------------


def classify_stick(occurrence: int | None, crossed_position: int, walk_length: int) -> str:
    """Short iff one boundary direction passes exactly one other vertex occurrence."""
    if occurrence is None:
        return LONG  # emanates from a vertex with no boundary occurrence
    forward = (crossed_position - occurrence) % walk_length == 2
    backward = (occurrence - crossed_position) % walk_length == 1
    return SHORT if (forward or backward) else LONG


def stick_orientation(occurrence: int | None, crossed_position: int, walk_length: int) -> str | None:
    """Right sticks exit across the next-but-one boundary edge, left sticks across
    the previous one; on triangles the two coincide, so no orientation."""
    if occurrence is None or walk_length < 4:
        return None
    if (crossed_position - occurrence) % walk_length == 2:
        return RIGHT
    if (occurrence - crossed_position) % walk_length == 1:
        return LEFT
    return None


def classify_middle(entry_position: int, exit_position: int, walk_length: int) -> str:
    """Short iff the two crossed boundary occurrences are walk-adjacent."""
    gap = (entry_position - exit_position) % walk_length
    return SHORT if gap in (1, walk_length - 1) else FAR


# -- decomposition ---------------------------------------------------------------


class _Resolver:
    """Maps full-map geometry onto the skeleton map's faces and occurrences."""

    def __init__(self, dec: SkeletonDecomposition):
        self.full = dec.full_map
        self.skel = dec.skeleton_map
        self.skeleton_set = set(dec.skeleton_edges)
        self._host_by_face = self._refine_faces()
        self._walk_len = {f.face_id: f.length for f in self.skel.faces}

    def _skel_dart(self, d: Dart) -> Dart:
        # A skeleton edge is crossing-free in the skeleton map: one segment.
        return (d[0], 0, d[2])

    def _refine_faces(self) -> dict[str, str]:
        """full-map face id -> skeleton face id containing it."""
        full = self.full
        parent: dict[str, str] = {f.face_id: f.face_id for f in full.faces}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # Residual segments do not separate skeleton faces: union across them.
        for face in full.faces:
            for d in face.darts:
                if d[0] not in self.skeleton_set and d[2] == 1:
                    a, _ = full.face_of_dart(d)
                    b, _ = full.face_of_dart(full.twin(d))
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

        rep_to_host: dict[str, str] = {}
        for face in full.faces:
            rep = find(face.face_id)
            for d in face.darts:
                if d[0] not in self.skeleton_set:
                    continue
                host = self.skel.face_of_dart(self._skel_dart(d))[0]
                if rep_to_host.setdefault(rep, host) != host:
                    # One drawing region bounded by several skeleton components:
                    # the rotation system does not record their relative
                    # placement, so pieces in it have no well-defined host.
                    raise InvariantError(
                        "skeleton-disconnected-region",
                        "a region of the drawing is bounded by more than one "
                        "skeleton component; segment decomposition requires "
                        "each region to close up within a single component",
                    )
        out = {}
        for face in full.faces:
            rep = find(face.face_id)
            if rep not in rep_to_host:
                raise InvariantError(
                    "decompose-hostless",
                    f"face {face.face_id} is not bounded by any skeleton edge",
                )
            out[face.face_id] = rep_to_host[rep]
        return out

    def walk_length(self, face_id: str) -> int:
        return self._walk_len[face_id]

    def host_of_dart(self, d: Dart) -> str:
        fid, _ = self.full.face_of_dart(d)
        return self._host_by_face[fid]

    def boundary_ref(self, d_arrive: Dart, host: str) -> CrossedRef:
        """The skeleton-edge occurrence a piece runs into.

        ``d_arrive`` is the piece's final dart, pointing into the crossing;
        its walk successor in the full map is the skeleton dart bounding the
        piece's side, and that dart's position in the skeleton face walk is
        the crossed occurrence.
        """
        nxt = self.full.next_dart(d_arrive)
        return self._ref(nxt, self.full.head(d_arrive), host, after=d_arrive)

    def entry_ref(self, d_depart: Dart, host: str) -> CrossedRef:
        """Like :meth:`boundary_ref` for the crossing a piece departs from."""
        prv = self.full.prev_dart(d_depart)
        return self._ref(prv, self.full.tail(d_depart), host, after=d_depart)

    def _ref(self, boundary_dart: Dart, crossing: str, host: str, after: Dart) -> CrossedRef:
        if boundary_dart[0] not in self.skeleton_set:
            raise InvariantError(
                "decompose-misaligned",
                f"expected a skeleton dart next to {after}; found {boundary_dart}",
            )
        face_id, pos = self.skel.face_of_dart(self._skel_dart(boundary_dart))
        if face_id != host:
            raise InvariantError(
                "decompose-host-mismatch",
                f"crossed occurrence of {boundary_dart[0]} resolves to {face_id}, "
                f"but the piece lives in {host}",
            )
        return CrossedRef(crossing=crossing, edge=boundary_dart[0], position=pos)

    def stick_occurrence(self, vertex: str, out_dart: Dart, host: str) -> int | None:
        """Boundary occurrence of ``vertex`` whose corner wedge hosts the stick.

        Scanning the full rotation counterclockwise from the stick's outgoing
        dart, the first skeleton dart reached is the wedge's outgoing walk
        dart; the occurrence sits one walk position before it.  Returns None
        when the vertex lies on no skeleton edge (isolated in the skeleton,
        floating inside the face).
        """
        rot = self.full.rotation(vertex)
        i = self.full.rotation_index(out_dart)
        for step in range(1, len(rot) + 1):
            d = rot[(i + step) % len(rot)]
            if d[0] in self.skeleton_set:
                face_id, pos = self.skel.face_of_dart(self._skel_dart(d))
                if face_id != host:
                    raise InvariantError(
                        "decompose-host-mismatch",
                        f"wedge of stick at {vertex} resolves to {face_id}, "
                        f"but the piece lives in {host}",
                    )
                return (pos - 1) % self.walk_length(face_id)
        return None


def decompose(dec: SkeletonDecomposition) -> list[SegmentPiece]:
    """Cut every residual edge into sticks and middle parts.

    Raises :class:`InvariantError` if a residual edge crosses no skeleton
    edge; that breaks the decomposition contract and indicates a defective
    skeleton, not a property of the drawing.
    """
    resolver = _Resolver(dec)
    full = dec.full_map
    skeleton_set = set(dec.skeleton_edges)

    spans: list[dict] = []
    piece_at_crossing: dict[tuple[str, str], str] = {}
    for e in dec.residual_edges:
        chain = full.chain(e)
        cuts = [
            i for i, c in enumerate(chain)
            if _other_edge(full.crossing_edges(c), e) in skeleton_set
        ]
        if not cuts:
            raise InvariantError(
                "decompose-uncut",
                f"residual edge {e} crosses no skeleton edge; the skeleton is not maximal",
            )
        boundaries = [-1] + cuts + [len(chain)]
        for idx in range(len(boundaries) - 1):
            lo, hi = boundaries[idx], boundaries[idx + 1]
            intra = [chain[j] for j in range(lo + 1, min(hi, len(chain)))]
            piece_id = f"{e}#{idx}"
            for c in intra:
                piece_at_crossing[(c, e)] = piece_id
            spans.append(
                {
                    "piece_id": piece_id,
                    "edge": e,
                    "index": idx,
                    "lo": lo,
                    "hi": hi,
                    "kind": STICK if idx in (0, len(boundaries) - 2) else MIDDLE,
                    "side": "a" if idx == 0 else ("b" if idx == len(boundaries) - 2 else None),
                    "intra": tuple(intra),
                    "chain_len": len(chain),
                }
            )

    pieces: list[SegmentPiece] = []
    for span in spans:
        e, lo, hi = span["edge"], span["lo"], span["hi"]
        warnings: list[str] = []
        vertex: str | None = None
        occ: int | None = None

        if span["kind"] == STICK and span["side"] == "a":
            vertex = full.endpoints(e)[0]
            out_dart: Dart = (e, 0, 1)
            arrive: Dart = (e, hi, 1)
            host = resolver.host_of_dart(out_dart)
            crossed = (resolver.boundary_ref(arrive, host),)
            occ = resolver.stick_occurrence(vertex, out_dart, host)
        elif span["kind"] == STICK:
            vertex = full.endpoints(e)[1]
            out_dart = (e, span["chain_len"], -1)
            arrive = (e, lo + 1, -1)
            host = resolver.host_of_dart(out_dart)
            crossed = (resolver.boundary_ref(arrive, host),)
            occ = resolver.stick_occurrence(vertex, out_dart, host)
        else:
            depart: Dart = (e, lo + 1, 1)
            arrive = (e, hi, 1)
            host = resolver.host_of_dart(depart)
            crossed = (resolver.entry_ref(depart, host), resolver.boundary_ref(arrive, host))
            if crossed[0].edge == crossed[1].edge:
                warnings.append(
                    f"middle part of {e} crosses two occurrences of edge {crossed[0].edge}"
                )

        walk_len = resolver.walk_length(host)
        if span["kind"] == STICK:
            classification = classify_stick(occ, crossed[0].position, walk_len)
            orientation = stick_orientation(occ, crossed[0].position, walk_len)
            if occ is None:
                warnings.append(
                    f"stick of {e} emanates from {vertex}, which is not on the host "
                    "face boundary (isolated in the skeleton)"
                )
        else:
            classification = classify_middle(crossed[0].position, crossed[1].position, walk_len)
            orientation = None

        pieces.append(
            SegmentPiece(
                piece_id=span["piece_id"],
                edge=e,
                index=span["index"],
                kind=span["kind"],
                host_face=host,
                emanates_from=vertex,
                occurrence=occ,
                crossed=crossed,
                classification=classification,
                orientation=orientation,
                intra_crossings=span["intra"],
                intra_pieces=tuple(
                    sorted(
                        piece_at_crossing[(c, _other_edge(full.crossing_edges(c), e))]
                        for c in span["intra"]
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
    return pieces


def _other_edge(pair: tuple[str, str], edge: str) -> str:
    return pair[1] if pair[0] == edge else pair[0]


def face_profiles(dec: SkeletonDecomposition, pieces: list[SegmentPiece]) -> list[FaceProfile]:
    """Per-face summary: type tuple, bridges, passing-through edges, crossings."""
    skel = dec.skeleton_map
    by_face: dict[str, list[SegmentPiece]] = {f.face_id: [] for f in skel.faces}
    for p in pieces:
        by_face[p.host_face].append(p)

    profiles = []
    for face in skel.faces:
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

        neighbors = tuple(skel.face_of_dart(skel.twin(d))[0] for d in face.darts)

        ss_pairs: set[tuple[str, str]] = set()
        sm_pairs: set[tuple[str, str]] = set()
        kinds = {p.piece_id: p.kind for p in members}
        for p in members:
            for q_id in p.intra_pieces:
                a, b = sorted((p.piece_id, q_id))
                if kinds[a] == STICK and kinds[b] == STICK:
                    ss_pairs.add((a, b))
                elif STICK in (kinds[a], kinds[b]):
                    sm_pairs.add((a, b))
        by_id = {p.piece_id: p for p in members}
        opposite = {
            pair: (
                by_id[pair[0]].orientation is not None
                and by_id[pair[1]].orientation is not None
                and by_id[pair[0]].orientation != by_id[pair[1]].orientation
            )
            for pair in sorted(ss_pairs)
        }

        for p in members:
            warnings.extend(p.warnings)

        profiles.append(
            FaceProfile(
                face=face.face_id,
                size=face.length,
                walk_nodes=face.nodes,
                walk_edges=face.edges,
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
                opposite_flags=opposite,
                warnings=tuple(warnings),
            )
        )
    return profiles
