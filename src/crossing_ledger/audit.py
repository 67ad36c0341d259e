"""Density audit: triangle stick counting, association, bound ledger, predicates.

The audit takes a skeleton decomposition and its face profiles and replays
the counting argument for the edge-density bound: triangular faces hold at
most three sticks, every 3-stick triangle can be paired off injectively with
a triangle holding at most two sticks, and chaining the resulting
inequalities caps the edge count at 11n/2 - 11 for a crossing budget of 3
(6n - 12 for a budget of 4, conditional on a triangulated skeleton).  All
checks report; nothing here ever transforms the drawing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadArgument, InvariantError, UnsupportedK
from .segments import FaceProfile, SegmentPiece
from .skeleton import SkeletonDecomposition

SQRT_COEFFICIENT = 4.1208


# -- bound table ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    k: int
    coefficient: Fraction
    constant: int
    note: str

    def max_edges(self, n: int) -> int:
        return math.floor(self.coefficient * n - self.constant)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "coefficient": str(self.coefficient),
            "constant": self.constant,
            "formula": f"{self.coefficient}*n - {self.constant}",
            "note": self.note,
        }


BOUND_TABLE: dict[int, BoundEntry] = {
    1: BoundEntry(1, Fraction(4), 8, "tight for drawings with at most one crossing per edge"),
    2: BoundEntry(2, Fraction(5), 10, "tight for drawings with at most two crossings per edge"),
    3: BoundEntry(3, Fraction(11, 2), 11, "tight; met with equality by the generated family"),
    4: BoundEntry(4, Fraction(6), 12, "conditional on a fully triangulated substructure"),
}


def bounds_table() -> dict:
    return {
        "entries": [BOUND_TABLE[k].to_dict() for k in sorted(BOUND_TABLE)],
        "informational": {
            "formula": f"{SQRT_COEFFICIENT}*sqrt(k)*n",
            "note": "generic estimate for any crossing budget; not derived here",
        },
    }


def k_bound(n: int, k: int) -> int:
    """Maximum edge count of a drawing on ``n`` vertices with crossing budget ``k``.

    The bound is stated for ``n >= 3``; fewer vertices raise
    :class:`InvariantError` with rule ``bound-vertex-count``.
    """
    if n < 3:
        raise InvariantError(
            "bound-vertex-count", f"the edge-count bound needs at least 3 vertices; got {n}"
        )
    if k not in BOUND_TABLE:
        raise UnsupportedK(k, n, SQRT_COEFFICIENT * math.sqrt(k) * n)
    return BOUND_TABLE[k].max_edges(n)


# -- triangle stick cap ----------------------------------------------------------


def overfull_triangles(profiles: list[FaceProfile], cap: int = 3) -> list[str]:
    """Triangular faces holding more sticks than the cap allows (empty list = pass)."""
    return [p.face for p in profiles if p.is_triangle and p.stick_count > cap]


# -- association ------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnosis:
    faces: tuple[str, ...]
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return {"faces": list(self.faces), "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class AssociationResult:
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
    if not all(p.is_triangle for p in profiles):
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


@dataclass(frozen=True)
class PredicateVerdict:
    name: str
    holds: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass(frozen=True)
class PredicateReport:
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


def structural_predicates(
    dec: SkeletonDecomposition,
    profiles: list[FaceProfile],
    pieces: list[SegmentPiece],
) -> PredicateReport:
    """Conformance matrix for the structure a densest drawing must exhibit.

    Each predicate is evaluated per non-triangular skeleton face (the
    connectivity and triangulation checks are global).  A failing predicate
    certifies the input is not a crossing-minimal densest drawing; nothing is
    ever repaired.
    """
    pieces_by_id = {p.piece_id: p for p in pieces}
    faces: dict[str, tuple[PredicateVerdict, ...]] = {}

    for prof in profiles:
        if prof.is_triangle:
            continue
        sticks = [pieces_by_id[s] for s in prof.sticks]
        middles = [pieces_by_id[m] for m in prof.middles]
        verdicts: list[PredicateVerdict] = []

        uncrossed_sticks = [s.piece_id for s in sticks if not s.intra_crossings]
        verdicts.append(
            PredicateVerdict(
                "sticks_crossed",
                not uncrossed_sticks,
                "every stick is crossed inside the face"
                if not uncrossed_sticks
                else f"uncrossed stick(s): {uncrossed_sticks}",
            )
        )

        far_middles = [m.piece_id for m in middles if m.classification != "short"]
        verdicts.append(
            PredicateVerdict(
                "middles_short",
                not far_middles,
                "every middle part crosses consecutive boundary edges"
                if not far_middles
                else f"far middle part(s): {far_middles}",
            )
        )

        long_sticks = [s.piece_id for s in sticks if s.classification != "short"]
        verdicts.append(
            PredicateVerdict(
                "sticks_short",
                not long_sticks,
                "every stick is short" if not long_sticks else f"long stick(s): {long_sticks}",
            )
        )

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
            PredicateVerdict(
                "stick_present",
                bool(sticks),
                f"face holds {len(sticks)} stick(s)",
            )
        )

        # three mutually crossing sticks
        triple = None
        stick_ids = [s.piece_id for s in sticks]
        crossing_graph = {
            s.piece_id: set(s.intra_pieces) & set(stick_ids) for s in sticks
        }
        for i, a in enumerate(stick_ids):
            for b in stick_ids[i + 1:]:
                if b not in crossing_graph[a]:
                    continue
                for c in stick_ids:
                    if c > b and c in crossing_graph[a] and c in crossing_graph[b]:
                        triple = (a, b, c)
                        break
        verdicts.append(
            PredicateVerdict(
                "no_three_mutually_crossing_sticks",
                triple is None,
                "no stick triple pairwise crosses"
                if triple is None
                else f"mutually crossing sticks: {list(triple)}",
            )
        )

        wrong_count = [s.piece_id for s in sticks if len(s.intra_crossings) != 1]
        verdicts.append(
            PredicateVerdict(
                "sticks_crossed_once",
                not wrong_count,
                "every stick is crossed exactly once inside the face"
                if not wrong_count
                else f"stick(s) with crossing count != 1: {wrong_count}",
            )
        )

        verdicts.append(
            PredicateVerdict(
                "no_stick_middle_crossings",
                not prof.stick_middle_pairs,
                "sticks never cross middle parts"
                if not prof.stick_middle_pairs
                else f"stick-middle crossing(s): {[list(p) for p in prof.stick_middle_pairs]}",
            )
        )

        non_opposite = [
            list(pair) for pair, opp in sorted(prof.opposite_flags.items()) if not opp
        ]
        verdicts.append(
            PredicateVerdict(
                "stick_crossings_opposite",
                not non_opposite,
                "every stick-stick crossing pairs a left with a right stick"
                if not non_opposite
                else f"non-opposite stick crossing(s): {non_opposite}",
            )
        )

        verdicts.append(
            PredicateVerdict(
                "two_sticks",
                len(sticks) == 2,
                f"face holds {len(sticks)} stick(s); exactly two expected",
            )
        )

        faces[prof.face] = tuple(verdicts)

    return PredicateReport(
        skeleton_connected=_skeleton_connected(dec),
        skeleton_triangulated=all(p.is_triangle for p in profiles),
        faces=faces,
    )


# -- density report ------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerStep:
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


@dataclass(frozen=True)
class AuditReport:
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
        association_ok = (
            self.association.ok
            if self.k == 3 and self.chain_applicable
            else not self.association.diagnoses
        )
        return (
            not self.stick_cap_violations
            and association_ok
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
    profiles: list[FaceProfile],
    pieces: list[SegmentPiece],
    k: int = 3,
) -> AuditReport:
    """Replay the counting argument and compare the edge count to the bound.

    The full inequality chain needs a connected, fully triangulated skeleton;
    otherwise only the raw counts and the bound comparison are reported and
    the chain is marked inapplicable.  With ``k=4`` the chain uses the
    conditional pairing assumption, which is recorded (with its truth value
    on this input) rather than silently trusted.
    """
    if k not in (3, 4):
        raise BadArgument(f"density audit supports crossing budgets 3 and 4; got {k}")
    pmap = dec.full_map
    n = len(pmap.vertices)
    edge_count = len(pmap.edge_ids)
    skeleton_count = len(dec.skeleton_edges)
    cap = k

    connected = _skeleton_connected(dec)
    triangulated = all(p.is_triangle for p in profiles)
    triangles = [p for p in profiles if p.is_triangle]
    t_p = len(triangles)
    counts: dict[int, int] = {i: 0 for i in range(cap + 1)}
    overflow = 0
    for p in triangles:
        if p.stick_count <= cap:
            counts[p.stick_count] += 1
        else:
            overflow += 1
    cap_violations = tuple(sorted(overfull_triangles(profiles, cap)))

    association = (
        associate(profiles, pieces)
        if k == 3
        else AssociationResult(False, {}, ("pairing is not constructed for k=4",), ())
    )

    predicates = structural_predicates(dec, profiles, pieces)

    chain_applicable = connected and triangulated and not cap_violations and overflow == 0
    t_expected = 2 * n - 4 if (connected and triangulated) else None

    total_sticks = sum(p.stick_count for p in profiles)
    residual = edge_count - skeleton_count
    stick_identity: bool | None = None
    if triangulated:
        weighted = sum(i * counts[i] for i in counts)
        stick_identity = weighted == 2 * residual and total_sticks == 2 * residual

    ledger: list[LedgerStep] = []
    assumptions: list[str] = []

    def step(label, lhs, lv, rel, rhs, rv):
        lv, rv = Fraction(lv), Fraction(rv)
        holds = lv == rv if rel == "=" else lv <= rv
        ledger.append(LedgerStep(label, lhs, lv, rel, rhs, rv, rv - lv, holds))

    if chain_applicable and k == 3:
        t0, t1, t2, t3 = counts[0], counts[1], counts[2], counts[3]
        step("residual edges as sticks", "|E| - |E_p|", residual, "=",
             "(t1 + 2*t2 + 3*t3)/2", Fraction(t1 + 2 * t2 + 3 * t3, 2))
        step("regroup", "(t1 + 2*t2 + 3*t3)/2",
             Fraction(t1 + 2 * t2 + 3 * t3, 2), "=",
             "(t_p - t0) + (t3 - t1)/2", Fraction(2 * (t_p - t0) + t3 - t1, 2))
        step("drop t0 and t1", "(t_p - t0) + (t3 - t1)/2",
             Fraction(2 * (t_p - t0) + t3 - t1, 2), "<=",
             "t_p + t3/2", Fraction(2 * t_p + t3, 2))
        step("pairing bound t3 <= t_p/2", "t_p + t3/2",
             Fraction(2 * t_p + t3, 2), "<=", "5*t_p/4", Fraction(5 * t_p, 4))
        step("add the skeleton", "|E|", edge_count, "<=",
             "|E_p| + 5*t_p/4", skeleton_count + Fraction(5 * t_p, 4))
        step("triangulated skeleton size", "|E_p| + 5*t_p/4",
             skeleton_count + Fraction(5 * t_p, 4), "=",
             "11*n/2 - 11", Fraction(11 * n, 2) - 11)
    elif chain_applicable and k == 4:
        t1, t2, t4 = counts[1], counts[2], counts[4]
        cond = t4 <= t1 + t2
        assumptions.append(
            f"t4 <= t1 + t2 assumed (holds on this input: {cond}); "
            "no pairing construction exists for k=4"
        )
        weighted = sum(i * counts[i] for i in counts)
        step("residual edges as sticks", "|E| - |E_p|", residual, "=",
             "(t1 + 2*t2 + 3*t3 + 4*t4)/2", Fraction(weighted, 2))
        step("conditional pairing", "(t1 + 2*t2 + 3*t3 + 4*t4)/2",
             Fraction(weighted, 2), "<=",
             "3*(t1 + t2 + t3 + t4)/2",
             Fraction(3 * (counts[1] + counts[2] + counts[3] + counts[4]), 2))
        step("all triangles", "3*(t1 + t2 + t3 + t4)/2",
             Fraction(3 * (counts[1] + counts[2] + counts[3] + counts[4]), 2), "<=",
             "3*t_p/2", Fraction(3 * t_p, 2))
        step("add the skeleton", "|E|", edge_count, "<=",
             "|E_p| + 3*t_p/2", skeleton_count + Fraction(3 * t_p, 2))
        step("triangulated skeleton size", "|E_p| + 3*t_p/2",
             skeleton_count + Fraction(3 * t_p, 2), "=", "6*n - 12", 6 * n - 12)

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
