"""The association with a linear scan per conflict, kept as a test oracle.

``crossing_ledger.audit.associate`` tracks the partners already claimed in a
``Counter``.  This module keeps the function it replaced, verbatim, which
tests a fallback partner with ``cand not in mapping.values()``.
``tests/test_association_cases.py`` checks that both give the same result.
"""

from __future__ import annotations

from crossing_ledger.audit import AssociationResult, Diagnosis
from crossing_ledger.segments import FaceProfile, SegmentPiece


def associate(
    profiles: list[FaceProfile], pieces: list[SegmentPiece]
) -> AssociationResult:
    """Pair every 3-stick triangle with a distinct triangle holding at most 2 sticks.

    Construction: a triangle whose three sticks share one corner is paired
    with the neighbor across its thrice-crossed side; a 2+1 triangle is
    paired with the neighbor across the side joining its 2-stick and 0-stick
    corners.  Three mutually crossing sticks (one per corner) certify the
    drawing is not edge-maximal: the surrounding region supports a denser
    local configuration, so that face is reported as a diagnosis rather than
    paired.  When two triangles claim the same partner, one of them is
    re-routed to the face across the partner's remaining side, which the
    crossing budget forces to hold at most two sticks; if that face is not
    free, the input is not a conformant drawing and the conflict is reported.
    """
    if any(p.size != 3 for p in profiles):
        return AssociationResult(
            applicable=False,
            mapping={},
            notes=("association requires a fully triangulated skeleton",),
            diagnoses=(),
        )

    by_id = {p.face: p for p in profiles}
    pieces_by_id = {p.piece_id: p for p in pieces}
    mapping: dict[str, str] = {}
    notes: list[str] = []
    diagnoses: list[Diagnosis] = []

    sources = sorted(p.face for p in profiles if p.stick_count == 3)
    for face_id in sources:
        prof = by_id[face_id]
        if any(pieces_by_id[s].occurrence is None for s in prof.sticks):
            diagnoses.append(
                Diagnosis(
                    (face_id,),
                    "floating-stick",
                    f"triangle {face_id} has a stick with no boundary occurrence",
                )
            )
            continue
        tau = sorted(prof.type_tuple, reverse=True)
        crossed = [pieces_by_id[s].crossed[0].position for s in prof.sticks]
        if tau == [3, 0, 0]:
            if len(set(crossed)) != 1:
                diagnoses.append(
                    Diagnosis(
                        (face_id,),
                        "nonconformant",
                        f"triangle {face_id} has three sticks at one corner that do "
                        "not all cross the opposite side",
                    )
                )
                continue
            dart_pos = crossed[0]
        elif tau == [2, 1, 0]:
            # The partner sits across the side joining the 2-stick and 0-stick
            # corners, which is the side opposite the 1-stick corner.
            one = prof.type_tuple.index(1)
            dart_pos = (one + 2) % 3
            lone = next(
                s for s in prof.sticks if pieces_by_id[s].occurrence == one
            )
            if pieces_by_id[lone].crossed[0].position != dart_pos:
                diagnoses.append(
                    Diagnosis(
                        (face_id,),
                        "nonconformant",
                        f"the single stick of triangle {face_id} does not cross the "
                        "side opposite its corner",
                    )
                )
                continue
        else:  # (1, 1, 1)
            diagnoses.append(
                Diagnosis(
                    (face_id,),
                    "optimality-violation",
                    f"triangle {face_id} carries three mutually crossing sticks, one "
                    "per corner; the six edges inside the surrounding hexagon can be "
                    "replaced by eight, so the drawing is not edge-maximal",
                )
            )
            continue
        target = prof.neighbors[dart_pos]
        if target == face_id:
            diagnoses.append(
                Diagnosis(
                    (face_id,),
                    "self-neighbor",
                    f"triangle {face_id} is its own neighbor across the crossed side",
                )
            )
            continue
        tprof = by_id[target]
        if tprof.stick_count > 2:
            diagnoses.append(
                Diagnosis(
                    (face_id, target),
                    "target-overfull",
                    f"partner {target} of {face_id} holds {tprof.stick_count} sticks",
                )
            )
            continue
        mapping[face_id] = target

    # Resolve pairs of triangles that claimed the same partner.
    claims: dict[str, list[str]] = {}
    for src, dst in sorted(mapping.items()):
        claims.setdefault(dst, []).append(src)
    for target, srcs in sorted(claims.items()):
        if len(srcs) == 1:
            continue
        if len(srcs) > 2:
            diagnoses.append(
                Diagnosis(
                    tuple(srcs) + (target,),
                    "conflict",
                    f"{len(srcs)} triangles all claim partner {target}",
                )
            )
            for s in srcs[1:]:
                del mapping[s]
            continue
        keep, move = sorted(srcs)
        tprof = by_id[target]
        # The partner's two claimed sides face the conflicting triangles; its
        # remaining side leads to the fallback face, which the crossing budget
        # forces to hold at most two sticks.
        free = [i for i in range(3) if tprof.neighbors[i] not in (keep, move)]
        fallback = None
        for i in free:
            cand = tprof.neighbors[i]
            cprof = by_id.get(cand)
            if (
                cprof is not None
                and cand not in mapping.values()
                and cand not in mapping
                and cprof.stick_count <= 2
                and cand != target
            ):
                fallback = cand
                break
        if fallback is None:
            diagnoses.append(
                Diagnosis(
                    (keep, move, target),
                    "conflict",
                    f"triangles {keep} and {move} both claim {target} and no "
                    "fallback partner is free",
                )
            )
            del mapping[move]
            continue
        mapping[move] = fallback
        notes.append(
            f"{move} re-routed from {target} to {fallback} (both {keep} and {move} "
            f"claimed {target})"
        )

    # Injectivity must hold after resolution.
    seen: dict[str, str] = {}
    for src, dst in sorted(mapping.items()):
        if dst in seen:
            diagnoses.append(
                Diagnosis(
                    (seen[dst], src, dst),
                    "conflict",
                    f"association is not injective at {dst}",
                )
            )
        seen[dst] = src

    return AssociationResult(
        applicable=True,
        mapping=mapping,
        notes=tuple(notes),
        diagnoses=tuple(diagnoses),
    )
