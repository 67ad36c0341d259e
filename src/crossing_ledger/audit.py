"""Density audit: triangle stick counting, association, bound ledger, predicates.

The audit takes a skeleton decomposition and its face profiles and replays
the counting argument for the edge-density bound: triangular faces hold at
most three sticks, every 3-stick triangle can be paired off injectively with
a triangle holding at most two sticks, and chaining the resulting
inequalities caps the edge count at 11n/2 - 11 for a crossing budget of 3
(6n - 12 for a budget of 4, conditional on a triangulated skeleton).  The
pairing runs in two phases: each 3-stick triangle proposes one partner or a
diagnosis that refuses it, then claims on a shared partner are resolved.
All checks report; nothing here ever transforms the drawing.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .errors import BadArgument, InvariantError, UnsupportedK
from .segments import LEFT, RIGHT, FaceProfile, Pieces, Profiles, SegmentPiece, _check_pieces
from .skeleton import SkeletonDecomposition

SQRT_COEFFICIENT = 4.1208


# -- bound table ---------------------------------------------------------------

# k -> (coefficient, constant): at most ``coefficient*n - constant`` edges.
BOUND_TABLE: dict[int, tuple[Fraction, int]] = {
    1: (Fraction(4), 8),
    2: (Fraction(5), 10),
    3: (Fraction(11, 2), 11),
    4: (Fraction(6), 12),
}


def k_bound(n: int, k: int) -> int:
    """Maximum edge count of a drawing on ``n`` vertices with crossing budget ``k``.

    The bound is stated for ``n >= 3``; fewer vertices raise
    :class:`InvariantError` with rule ``bound-vertex-count``.  A budget below
    1 raises :class:`BadArgument`, and one with no tabulated bound
    :class:`UnsupportedK`.
    """
    if n < 3:
        raise InvariantError(
            "bound-vertex-count", f"the edge-count bound needs at least 3 vertices; got {n}"
        )
    if k < 1:
        raise BadArgument(f"k must be a positive integer; got {k}")
    if k not in BOUND_TABLE:
        raise UnsupportedK(k, n, SQRT_COEFFICIENT * math.sqrt(k) * n)
    coefficient, constant = BOUND_TABLE[k]
    return math.floor(coefficient * n - constant)


# -- association ------------------------------------------------------------------


class Diagnosis(NamedTuple):
    faces: tuple[str, ...]
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return {"faces": list(self.faces), "kind": self.kind, "detail": self.detail}


class AssociationResult(NamedTuple):
    applicable: bool
    mapping: dict[str, str]
    notes: tuple[str, ...]
    diagnoses: tuple[Diagnosis, ...]

    @property
    def ok(self) -> bool:
        return self.applicable and not self.diagnoses

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "ok": self.ok,
            "mapping": dict(sorted(self.mapping.items())),
            "notes": list(self.notes),
            "diagnoses": [d.to_dict() for d in self.diagnoses],
        }


def _partner(prof: FaceProfile, pieces_by_id: dict[str, SegmentPiece]) -> str | Diagnosis:
    """The face a 3-stick triangle pairs with, or the :class:`Diagnosis` refusing it.

    A triangle whose three sticks share one corner pairs with the neighbor
    across its thrice-crossed side; a 2+1 triangle pairs with the neighbor
    across the side joining its 2-stick and 0-stick corners.  Three mutually
    crossing sticks (one per corner) certify the drawing is not edge-maximal:
    the surrounding region supports a denser local configuration, so that
    face is diagnosed rather than paired.
    """
    face_id = prof.face
    if any(pieces_by_id[s].occurrence is None for s in prof.sticks):
        return Diagnosis((face_id,), "floating-stick",
                         f"triangle {face_id} has a stick with no boundary occurrence")
    tau = sorted(prof.type_tuple, reverse=True)
    crossed = [pieces_by_id[s].crossed[0].position for s in prof.sticks]
    if tau == [3, 0, 0]:
        if len(set(crossed)) != 1:
            return Diagnosis((face_id,), "nonconformant",
                             f"triangle {face_id} has three sticks at one corner that do "
                             "not all cross the opposite side")
        dart_pos = crossed[0]
    elif tau == [2, 1, 0]:
        # The partner sits across the side joining the 2-stick and 0-stick
        # corners, which is the side opposite the 1-stick corner.
        one = prof.type_tuple.index(1)
        dart_pos = (one + 2) % 3
        lone = next(s for s in prof.sticks if pieces_by_id[s].occurrence == one)
        if pieces_by_id[lone].crossed[0].position != dart_pos:
            return Diagnosis((face_id,), "nonconformant",
                             f"the single stick of triangle {face_id} does not cross the "
                             "side opposite its corner")
    else:  # (1, 1, 1)
        return Diagnosis((face_id,), "optimality-violation",
                         f"triangle {face_id} carries three mutually crossing sticks, one "
                         "per corner; the six edges inside the surrounding hexagon can be "
                         "replaced by eight, so the drawing is not edge-maximal")
    target = prof.neighbors[dart_pos]
    if target == face_id:
        return Diagnosis((face_id,), "self-neighbor",
                         f"triangle {face_id} is its own neighbor across the crossed side")
    return target


def _associate(
    triangles: Sequence[FaceProfile], pieces_by_id: dict[str, SegmentPiece]
) -> AssociationResult:
    """Pair every 3-stick triangle with a distinct triangle holding at most 2 sticks.

    The pairing runs on a fully triangulated skeleton, in two phases.  First
    each 3-stick triangle proposes its partner (see :func:`_partner`), and a
    proposal whose partner holds more than two sticks is diagnosed
    ``target-overfull``.  Then, when two triangles claim the same partner,
    one of them is re-routed to the face across the partner's remaining
    side, which the crossing budget forces to hold at most two sticks; if
    that face is not free, the input is not a conformant drawing and the
    conflict is reported.
    """
    by_id = {p.face: p for p in triangles}
    mapping: dict[str, str] = {}
    notes: list[str] = []
    diagnoses: list[Diagnosis] = []

    for prof in sorted((p for p in triangles if p.stick_count == 3), key=lambda p: p.face):
        target = _partner(prof, pieces_by_id)
        if isinstance(target, Diagnosis):
            diagnoses.append(target)
        elif by_id[target].stick_count > 2:
            diagnoses.append(Diagnosis(
                (prof.face, target), "target-overfull",
                f"partner {target} of {prof.face} holds {by_id[target].stick_count} sticks"))
        else:
            mapping[prof.face] = target

    # Resolve pairs of triangles that claimed the same partner.  ``claimed``
    # counts the sources mapped to each partner; before resolution several
    # can share one, so it is a multiset and not a set.
    claimed = Counter(mapping.values())
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
                claimed[target] -= 1
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
                and not claimed[cand]
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
            claimed[target] -= 1
            continue
        mapping[move] = fallback
        claimed[target] -= 1
        claimed[fallback] += 1
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


# -- structural predicates ---------------------------------------------------------


class PredicateVerdict(NamedTuple):
    name: str
    holds: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


class PredicateReport(NamedTuple):
    skeleton_connected: bool
    skeleton_triangulated: bool
    faces: dict[str, tuple[PredicateVerdict, ...]]

    @property
    def ok(self) -> bool:
        return (
            self.skeleton_connected
            and self.skeleton_triangulated
            and all(v.holds for vs in self.faces.values() for v in vs)
        )

    def to_dict(self) -> dict:
        return {
            "skeleton_connected": self.skeleton_connected,
            "skeleton_triangulated": self.skeleton_triangulated,
            "faces": {
                f: [v.to_dict() for v in vs] for f, vs in sorted(self.faces.items())
            },
            "ok": self.ok,
        }


def _skeleton_connected(dec: SkeletonDecomposition) -> bool:
    """One skeleton component spans every vertex: embedded alone, each component
    has V - E + W = 2 over its vertices, edges and walks."""
    n = len(dec.full_map.vertices)
    touched = {v for face in dec.faces for v in face.nodes}
    walks = sum(len(face.walks) for face in dec.faces)
    return n <= 1 or (len(touched) == n and n - len(dec.skeleton_edges) + walks == 2)


def _no_offenders(name: str, offenders: list, ok_detail: str, label: str) -> PredicateVerdict:
    """A predicate that holds iff ``offenders`` is empty, and lists them if not."""
    detail = f"{label}: {offenders}" if offenders else ok_detail
    return PredicateVerdict(name, not offenders, detail)


def _predicates(
    dec: SkeletonDecomposition, others: list[FaceProfile], pieces_by_id: dict[str, SegmentPiece]
) -> PredicateReport:
    """Conformance matrix for the structure a densest drawing must exhibit.

    Each predicate is evaluated per non-triangular skeleton face, the faces
    in ``others`` (the connectivity and triangulation checks are global).  A
    failing predicate certifies the input is not a crossing-minimal densest
    drawing; nothing is ever repaired.
    """
    faces: dict[str, tuple[PredicateVerdict, ...]] = {}

    for prof in others:
        sticks = [pieces_by_id[s] for s in prof.sticks]
        middles = [pieces_by_id[m] for m in prof.middles]
        verdicts = [
            _no_offenders("sticks_crossed", [s.piece_id for s in sticks if not s.intra_crossings],
                       "every stick is crossed inside the face", "uncrossed stick(s)"),
            _no_offenders("middles_short",
                       [m.piece_id for m in middles if m.classification != "short"],
                       "every middle part crosses consecutive boundary edges",
                       "far middle part(s)"),
            _no_offenders("sticks_short", [s.piece_id for s in sticks if s.classification != "short"],
                       "every stick is short", "long stick(s)"),
        ]
        if not sticks:
            ok = 2 * prof.uncrossed_count < prof.non_bridge_count
            verdicts.append(
                PredicateVerdict(
                    "stickless_uncrossed_minority",
                    ok,
                    f"{prof.uncrossed_count} of {prof.non_bridge_count} non-bridge "
                    "sides untouched by passing-through edges"
                    + ("" if ok else "; at least half untouched"),
                )
            )
        verdicts.append(
            PredicateVerdict("stick_present", bool(sticks), f"face holds {len(sticks)} stick(s)")
        )

        # three mutually crossing sticks
        triple = []
        stick_ids = [s.piece_id for s in sticks]
        crossing_graph = {s.piece_id: set(s.intra_pieces) for s in sticks}
        for i, a in enumerate(stick_ids):
            for b in stick_ids[i + 1:]:
                if b not in crossing_graph[a]:
                    continue
                for c in stick_ids:
                    if c > b and c in crossing_graph[a] and c in crossing_graph[b]:
                        triple = [a, b, c]
                        break

        non_opposite = [
            [a, b] for a, b in prof.stick_stick_pairs
            if {pieces_by_id[a].orientation, pieces_by_id[b].orientation} != {LEFT, RIGHT}
        ]
        verdicts += [
            _no_offenders("no_three_mutually_crossing_sticks", triple,
                       "no stick triple pairwise crosses", "mutually crossing sticks"),
            _no_offenders("sticks_crossed_once",
                       [s.piece_id for s in sticks if len(s.intra_crossings) != 1],
                       "every stick is crossed exactly once inside the face",
                       "stick(s) with crossing count != 1"),
            _no_offenders("no_stick_middle_crossings", [list(p) for p in prof.stick_middle_pairs],
                       "sticks never cross middle parts", "stick-middle crossing(s)"),
            _no_offenders("stick_crossings_opposite", non_opposite,
                       "every stick-stick crossing pairs a left with a right stick",
                       "non-opposite stick crossing(s)"),
            PredicateVerdict("two_sticks", len(sticks) == 2,
                             f"face holds {len(sticks)} stick(s); exactly two expected"),
        ]
        faces[prof.face] = tuple(verdicts)

    return PredicateReport(
        skeleton_connected=_skeleton_connected(dec),
        skeleton_triangulated=not others,
        faces=faces,
    )


# -- density report ------------------------------------------------------------------


class LedgerStep(NamedTuple):
    label: str
    lhs: str
    lhs_value: Fraction
    relation: str
    rhs: str
    rhs_value: Fraction
    slack: Fraction
    holds: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "lhs_value": str(self.lhs_value),
            "relation": self.relation,
            "rhs": self.rhs,
            "rhs_value": str(self.rhs_value),
            "slack": str(self.slack),
            "holds": self.holds,
        }


class AuditReport(NamedTuple):
    k: int
    n: int
    edge_count: int
    skeleton_edge_count: int
    skeleton_connected: bool
    skeleton_triangulated: bool
    triangle_counts: dict[int, int]
    triangular_face_count: int
    triangular_face_count_expected: int | None
    stick_cap_violations: tuple[str, ...]
    stick_identity_holds: bool | None
    association: AssociationResult
    ledger: tuple[LedgerStep, ...]
    chain_applicable: bool
    bound_max_edges: int
    bound_verdict: str
    predicates: PredicateReport
    conditional_assumptions: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            not self.stick_cap_violations
            and not self.association.diagnoses
            and self.bound_verdict in ("tight", "within")
            and self.predicates.ok
        )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "edges": self.edge_count,
            "skeleton_edges": self.skeleton_edge_count,
            "skeleton_connected": self.skeleton_connected,
            "skeleton_triangulated": self.skeleton_triangulated,
            "triangle_counts": {str(i): c for i, c in sorted(self.triangle_counts.items())},
            "triangular_faces": self.triangular_face_count,
            "triangular_faces_expected": self.triangular_face_count_expected,
            "stick_cap_violations": list(self.stick_cap_violations),
            "stick_identity_holds": self.stick_identity_holds,
            "association": self.association.to_dict(),
            "ledger": [s.to_dict() for s in self.ledger],
            "chain_applicable": self.chain_applicable,
            "bound_max_edges": self.bound_max_edges,
            "bound_verdict": self.bound_verdict,
            "conditional_assumptions": list(self.conditional_assumptions),
            "predicates": self.predicates.to_dict(),
            "ok": self.ok,
        }


def density_report(
    dec: SkeletonDecomposition,
    profiles: Profiles,
    pieces: Pieces,
    k: int = 3,
) -> AuditReport:
    """Replay the counting argument and compare the edge count to the bound.

    The ledger is two chains, each step's right-hand side the next step's
    left-hand side: the residual edges ``|E| - |E_p|``, counted as sticks per
    skeleton triangle, up to a multiple of the triangle count ``t_p``; then
    ``|E|`` up to the bound, ``11*n/2 - 11`` for ``k=3`` or ``6*n - 12`` for
    ``k=4``.  The chains need a connected, fully triangulated skeleton with no
    triangle over the stick cap; otherwise only the raw counts and the bound
    comparison are reported and the chain is marked inapplicable.  With
    ``k=4`` the first chain uses the conditional pairing assumption, which is
    recorded (with its truth value on this input) rather than silently
    trusted.  The pairing of 3-stick triangles is built only for ``k=3`` on a
    triangulated skeleton; otherwise its result is marked inapplicable with a
    note saying why.  The report is ``ok`` when no triangle is over the cap,
    the pairing diagnosed nothing, the edge count is within the bound and
    every structural predicate holds.

    ``pieces`` must be what ``decompose(dec)`` returned and ``profiles``
    what ``face_profiles(dec, pieces)`` returned, or :class:`BadArgument`
    is raised.
    """
    if k not in (3, 4):
        raise BadArgument(f"density audit supports crossing budgets 3 and 4; got {k}")
    _check_pieces(dec, pieces)
    if getattr(profiles, "pieces", None) is not pieces:
        raise BadArgument(
            "profiles must be what face_profiles(dec, pieces) returned for these pieces"
        )
    pmap = dec.full_map
    n = len(pmap.vertices)
    edge_count = len(pmap.edge_ids)
    skeleton_count = len(dec.skeleton_edges)
    cap = k

    triangles = [p for p in profiles if p.is_triangle]
    others = [p for p in profiles if not p.is_triangle]
    pieces_by_id = {p.piece_id: p for p in pieces}
    t_p = len(triangles)
    sizes = Counter(p.stick_count for p in triangles)
    counts = {i: sizes[i] for i in range(cap + 1)}
    weighted = sum(i * c for i, c in counts.items())
    cap_violations = tuple(sorted(p.face for p in triangles if p.stick_count > cap))

    # The pairing applies to k=3 on a triangulated skeleton; otherwise the
    # result says why it was not built.
    not_built = ("pairing is not constructed for k=4" if k == 4
                 else "association requires a fully triangulated skeleton" if others else None)
    association = (AssociationResult(False, {}, (not_built,), ()) if not_built
                   else _associate(triangles, pieces_by_id))

    predicates = _predicates(dec, others, pieces_by_id)
    connected = predicates.skeleton_connected
    triangulated = predicates.skeleton_triangulated
    chain_applicable = connected and triangulated and not cap_violations
    t_expected = 2 * n - 4 if (connected and triangulated) else None

    total_sticks = sum(p.stick_count for p in profiles)
    residual = edge_count - skeleton_count
    stick_identity = (weighted == total_sticks == 2 * residual) if triangulated else None

    ledger: list[LedgerStep] = []
    assumptions: list[str] = []

    def chain(lhs, value, *steps):
        # Each step is (label, relation, rhs, rhs_value); its right-hand side
        # is the left-hand side of the step after it.
        lv = Fraction(value)
        for label, rel, rhs, rv in steps:
            rv = Fraction(rv)
            holds = lv == rv if rel == "=" else lv <= rv
            ledger.append(LedgerStep(label, lhs, lv, rel, rhs, rv, rv - lv, holds))
            lhs, lv = rhs, rv

    t0 = counts[0]
    if chain_applicable and k == 3:
        t1, t3 = counts[1], counts[3]
        chain("|E| - |E_p|", residual,
              ("residual edges as sticks", "=", "(t1 + 2*t2 + 3*t3)/2", Fraction(weighted, 2)),
              ("regroup", "=", "(t_p - t0) + (t3 - t1)/2",
               Fraction(2 * (t_p - t0) + t3 - t1, 2)),
              ("drop t0 and t1", "<=", "t_p + t3/2", Fraction(2 * t_p + t3, 2)),
              ("pairing bound t3 <= t_p/2", "<=", "5*t_p/4", Fraction(5 * t_p, 4)))
        chain("|E|", edge_count,
              ("add the skeleton", "<=", "|E_p| + 5*t_p/4", skeleton_count + Fraction(5 * t_p, 4)),
              ("triangulated skeleton size", "=", "11*n/2 - 11", Fraction(11 * n, 2) - 11))
    elif chain_applicable and k == 4:
        t1, t2, t4 = counts[1], counts[2], counts[4]
        cond = t4 <= t1 + t2
        assumptions.append(
            f"t4 <= t1 + t2 assumed (holds on this input: {cond}); "
            "no pairing construction exists for k=4"
        )
        chain("|E| - |E_p|", residual,
              ("residual edges as sticks", "=", "(t1 + 2*t2 + 3*t3 + 4*t4)/2",
               Fraction(weighted, 2)),
              # No triangle is over the cap here, so t1 + t2 + t3 + t4 = t_p - t0.
              ("conditional pairing", "<=", "3*(t1 + t2 + t3 + t4)/2",
               Fraction(3 * (t_p - t0), 2)),
              ("all triangles", "<=", "3*t_p/2", Fraction(3 * t_p, 2)))
        chain("|E|", edge_count,
              ("add the skeleton", "<=", "|E_p| + 3*t_p/2", skeleton_count + Fraction(3 * t_p, 2)),
              ("triangulated skeleton size", "=", "6*n - 12", 6 * n - 12))

    bound = k_bound(n, k)
    if edge_count > bound:
        verdict = "violated"
    elif edge_count == bound:
        verdict = "tight"
    else:
        verdict = "within"

    return AuditReport(
        k=k,
        n=n,
        edge_count=edge_count,
        skeleton_edge_count=skeleton_count,
        skeleton_connected=connected,
        skeleton_triangulated=triangulated,
        triangle_counts=counts,
        triangular_face_count=t_p,
        triangular_face_count_expected=t_expected,
        stick_cap_violations=cap_violations,
        stick_identity_holds=stick_identity,
        association=association,
        ledger=tuple(ledger),
        chain_applicable=chain_applicable,
        bound_max_edges=bound,
        bound_verdict=verdict,
        predicates=predicates,
        conditional_assumptions=tuple(assumptions),
    )
