"""The tight family built face by face, kept as the oracle of ``generate_optimal``.

Each frame face gets a :class:`HexGadget` of its own: the first face's gadget,
relabelled under the face's ``G{q}`` prefix with its corners replaced, and
then spliced into the frame.  ``DrawingSpec.build`` puts every row in
canonical order and anchors every rotation.  The library's stamping pass must
give byte-identical ``emit_drawing`` text.
"""

from __future__ import annotations

from typing import Sequence

from crossing_ledger.drawing import DrawingSpec, build_map
from crossing_ledger.generator import _POLES, HexGadget, hexagon_gadget, theta_frame


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
