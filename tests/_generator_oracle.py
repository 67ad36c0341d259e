"""The tight family built face by face, kept as the oracle of ``generate_optimal``.

:func:`hexagon_gadget` computes one face's eight diagonals with string ids,
as the library did before it computed its index-row template directly.  Each
frame face gets a :class:`HexGadget` of its own: the first face's gadget,
relabelled under the face's ``G{q}`` prefix with its corners replaced, and
then spliced into the frame.  ``DrawingSpec.build`` puts every row in
canonical order and anchors every rotation.  The library's stamping pass must
give byte-identical ``emit_drawing`` text.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import NamedTuple, Sequence

from crossing_ledger.drawing import DrawingSpec, FaceWalk, build_map
from crossing_ledger.generator import (
    _DIAGONALS,
    _HEX_POINTS,
    _POLES,
    _ccw_sort,
    _cross,
    _intersection_param,
    _param_order,
    _sign,
    _sub,
    chords_interleave,
    theta_frame,
)


class HexGadget(NamedTuple):
    """Eight diagonals for one hexagonal face, as a partial drawing.

    ``corner_insertions`` lists, per corner occurrence, the rotation entries
    to splice into that corner's wedge, in counterclockwise order from the
    wedge's opening side.
    """

    prefix: str
    corners: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    chains: dict[str, tuple[str, ...]]
    crossings: dict[str, tuple[str, str]]
    crossing_rotations: dict[str, tuple[tuple[str, str], ...]]
    corner_insertions: dict[int, tuple[tuple[str, str], ...]]


def hexagon_gadget(
    face: FaceWalk, anchor: str | None = None, prefix: str = "G"
) -> HexGadget:
    """The eight interior diagonals for one hexagonal face.

    The face walk's vertex occurrences map to the corners of a convex
    hexagon; ``anchor`` picks which occurrence plays corner 0.  Raises
    ``ValueError`` unless the face is a 6-walk over six distinct vertices.
    """
    if face.length != 6 or len(set(face.nodes)) != 6:
        raise ValueError(
            f"face {face.face_id} is a {face.length}-walk over "
            f"{len(set(face.nodes))} distinct vertices; need 6 over 6"
        )
    corners = list(face.nodes)
    if anchor is not None:
        if anchor not in corners:
            raise ValueError(f"anchor {anchor} is not on face {face.face_id}")
        i = corners.index(anchor)
        corners = corners[i:] + corners[:i]

    edge_ids = [f"{prefix}.{slot}" for slot in range(len(_DIAGONALS))]
    edges = tuple(
        (edge_ids[slot], corners[p], corners[q]) for slot, (p, q) in enumerate(_DIAGONALS)
    )

    # Proper crossings among the diagonals, with exact positions.
    crossing_ids: dict[tuple[int, int], str] = {}
    params: dict[int, list] = {slot: [] for slot in range(8)}
    counter = 0
    for i in range(8):
        for j in range(i + 1, 8):
            (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
            if not chords_interleave(a, b, c, d):
                continue
            cid = f"{prefix}.x{counter}"
            counter += 1
            crossing_ids[(i, j)] = cid
            p1, p2 = _HEX_POINTS[a], _HEX_POINTS[b]
            p3, p4 = _HEX_POINTS[c], _HEX_POINTS[d]
            t = _intersection_param(p1, p2, p3, p4)
            s = _intersection_param(p3, p4, p1, p2)
            params[i].append((t, cid))
            params[j].append((s, cid))

    chains = {
        edge_ids[slot]: tuple(cid for _, cid in sorted(params[slot], key=cmp_to_key(_param_order)))
        for slot in range(8)
    }
    crossings = {cid: (edge_ids[i], edge_ids[j]) for (i, j), cid in crossing_ids.items()}

    # Rotation at each crossing: the four outgoing directions sorted
    # counterclockwise; transversality makes them alternate automatically.
    crossing_rotations: dict[str, tuple[tuple[str, str], ...]] = {}
    for (i, j), cid in crossing_ids.items():
        entries = []
        vectors = []
        for slot in (i, j):
            p, q = _DIAGONALS[slot]
            direction = _sub(_HEX_POINTS[q], _HEX_POINTS[p])
            vectors.append(direction)
            entries.append((edge_ids[slot], "+"))
            vectors.append((-direction[0], -direction[1]))
            entries.append((edge_ids[slot], "-"))
        order = _ccw_sort(vectors)
        crossing_rotations[cid] = tuple(entries[t] for t in order)

    # Insertions at each corner: diagonals leaving that corner, sorted
    # counterclockwise across the interior wedge (which opens from the
    # direction of the previous corner around to the next corner).
    corner_insertions: dict[int, tuple[tuple[str, str], ...]] = {}
    for k in range(6):
        entries = []
        vectors = []
        for slot, (p, q) in enumerate(_DIAGONALS):
            if k == p:
                vectors.append(_sub(_HEX_POINTS[q], _HEX_POINTS[p]))
                entries.append((edge_ids[slot], "+"))
            elif k == q:
                vectors.append(_sub(_HEX_POINTS[p], _HEX_POINTS[q]))
                entries.append((edge_ids[slot], "-"))
        # A convex corner spans less than a half turn, so within the wedge the
        # pairwise cross product is a total counterclockwise order.
        order = sorted(
            range(len(entries)),
            key=cmp_to_key(lambda i, j: -_sign(_cross(vectors[i], vectors[j]))),
        )
        corner_insertions[k] = tuple(entries[t] for t in order)

    return HexGadget(
        prefix=prefix,
        corners=tuple(corners),
        edges=edges,
        chains=chains,
        crossings=crossings,
        crossing_rotations=crossing_rotations,
        corner_insertions=corner_insertions,
    )


def _relabel(template: HexGadget, corners: tuple[str, ...], prefix: str) -> HexGadget:
    """The template gadget with its ids moved under ``prefix`` and its corners replaced.

    Corners map by position, so the result equals :func:`hexagon_gadget` on a
    face whose anchored walk visits ``corners``.  Each id is stamped once, so
    the gadget's rows share their id strings.
    """
    cut = len(template.prefix)
    stamp = {x: prefix + x[cut:] for x in (*template.chains, *template.crossings)}
    corner_of = dict(zip(template.corners, corners))

    def entries(rot):
        return tuple([(stamp[e], d) for e, d in rot])

    return HexGadget(
        prefix=prefix,
        corners=corners,
        edges=tuple([(stamp[e], corner_of[a], corner_of[b]) for e, a, b in template.edges]),
        chains={stamp[e]: tuple([stamp[c] for c in cs]) for e, cs in template.chains.items()},
        crossings={stamp[c]: (stamp[e], stamp[f]) for c, (e, f) in template.crossings.items()},
        crossing_rotations={stamp[c]: entries(r) for c, r in template.crossing_rotations.items()},
        corner_insertions={k: entries(r) for k, r in template.corner_insertions.items()},
    )


def generate_optimal(n: int, strict: bool = False) -> DrawingSpec:
    """Drawing on n vertices with 11n/2 - 11 edges, none crossed over 3 times."""
    frame = theta_frame(n, strict)
    fmap = build_map(frame)

    edges = list(frame.edges)
    chains = dict(frame.chains)
    crossings: dict[str, tuple[str, str]] = {}
    rotations: dict[str, Sequence] = dict(frame.rotations)
    # node -> frame rotation position -> gadget entries spliced in after it.
    splices: dict[str, dict[int, tuple[tuple[str, str], ...]]] = {}

    u = _POLES[0]
    faces = sorted(fmap.faces, key=lambda f: f.face_id)
    # Every frame face is a hexagon, so one exact computation serves them all.
    template = hexagon_gadget(faces[0], anchor=u, prefix="G0")
    for q, face in enumerate(faces):
        offset = face.nodes.index(u)
        gadget = _relabel(template, face.nodes[offset:] + face.nodes[:offset], f"G{q}")
        edges.extend(gadget.edges)
        chains.update(gadget.chains)
        crossings.update(gadget.crossings)
        rotations.update(gadget.crossing_rotations)

        # The walk dart arriving at corner occurrence k and the one leaving it
        # flank the corner's wedge, and the second follows the reversal of the
        # first in the frame rotation; splice the gadget entries between them.
        for k in range(6):
            inserted = gadget.corner_insertions[k]
            if not inserted:
                continue
            opening = fmap.twin(face.darts[(offset + k) % 6])
            splices.setdefault(gadget.corners[k], {})[fmap._rot_index[opening]] = inserted

    for node, after in splices.items():
        rotations[node] = [
            x for i, entry in enumerate(frame.rotations[node]) for x in (entry, *after.get(i, ()))
        ]

    return DrawingSpec.build(
        vertices=frame.vertices,
        edges=edges,
        chains=chains,
        crossings=crossings,
        rotations=rotations,
    )
