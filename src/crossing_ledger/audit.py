"""Density audit: a per-face ledger against the edge-count bound.

The audit takes a skeleton decomposition and its face profiles and replays
the counting argument for the bound on any skeleton: each face is charged
half its sticks against a budget, and the budgets sum to the bound minus
the skeleton's edges.  Its one discharging rule pairs every 3-stick
triangle with a triangle of at most two sticks, in two phases: each 3-stick
triangle proposes one partner or a diagnosis that refuses it, then claims
on a shared partner are resolved.  Triangles over the stick cap and the
structural predicates of densest drawings are reported beside the ledger.
Nothing here ever transforms the drawing.
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
from .validate import _check_k

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

    The bound is stated for ``n >= 3``; fewer vertices, or an ``n`` that is
    not an int (a bool is not), raise :class:`InvariantError` with rule
    ``bound-vertex-count``.  A budget below 1 or not an int raises
    :class:`BadArgument`, and one with no tabulated bound :class:`UnsupportedK`.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvariantError(
            "bound-vertex-count", f"the edge-count bound needs an integer vertex count; got {n!r}"
        )
    if n < 3:
        raise InvariantError(
            "bound-vertex-count", f"the edge-count bound needs at least 3 vertices; got {n}"
        )
    _check_k(k)
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

    # Resolve pairs of triangles that claimed the same partner.  A partner
    # stays ``taken`` once claimed: resolution keeps one source on it.
    taken = set(mapping.values())
    claims: dict[str, list[str]] = {}
    for src, dst in sorted(mapping.items()):
        claims.setdefault(dst, []).append(src)
    for target, srcs in sorted(claims.items()):
        if len(srcs) == 1:
            continue
        if len(srcs) > 2:
            diagnoses.append(Diagnosis(tuple(srcs) + (target,), "conflict",
                                       f"{len(srcs)} triangles all claim partner {target}"))
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
                and cand not in taken
                and cand not in mapping
                and cprof.stick_count <= 2
                and cand != target
            ):
                fallback = cand
                break
        if fallback is None:
            diagnoses.append(Diagnosis(
                (keep, move, target), "conflict",
                f"triangles {keep} and {move} both claim {target} and no fallback partner is free"))
            del mapping[move]
            continue
        mapping[move] = fallback
        taken.add(fallback)
        notes.append(
            f"{move} re-routed from {target} to {fallback} (both {keep} and {move} "
            f"claimed {target})"
        )

    # Injectivity must hold after resolution.
    seen: dict[str, str] = {}
    for src, dst in sorted(mapping.items()):
        if dst in seen:
            diagnoses.append(Diagnosis((seen[dst], src, dst), "conflict",
                                       f"association is not injective at {dst}"))
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


def _no_offenders(name: str, offenders: list, ok_detail: str, label: str) -> PredicateVerdict:
    """A predicate that holds iff ``offenders`` is empty, and lists them if not."""
    detail = f"{label}: {offenders}" if offenders else ok_detail
    return PredicateVerdict(name, not offenders, detail)


def _predicates(
    others: list[FaceProfile], pieces_by_id: dict[str, SegmentPiece]
) -> dict[str, tuple[PredicateVerdict, ...]]:
    """Conformance matrix for the structure a densest drawing must exhibit.

    Each predicate is evaluated per non-triangular skeleton face, the faces
    in ``others``, and the verdicts are returned by face id.  A failing
    predicate certifies the input is not a crossing-minimal densest drawing,
    which is no violation of the bound; nothing is ever repaired.
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
    return faces


# -- ledger ------------------------------------------------------------------------


class LedgerRow(NamedTuple):
    """The skeleton faces of one size: how many, and their summed charge, budget and slack."""

    size: int
    count: int
    charge: Fraction
    budget: Fraction
    slack: Fraction

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "count": self.count,
            "charge": str(self.charge),
            "budget": str(self.budget),
            "slack": str(self.slack),
        }


class Ledger(NamedTuple):
    """Per-face charges against budgets that sum exactly to the bound (see :func:`_ledger`)."""

    faces: tuple[LedgerRow, ...]
    skeleton_components: int
    drawing_components: int
    components_budget: Fraction
    uncertified: tuple[str, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "faces": [row.to_dict() for row in self.faces],
            "components": {
                "skeleton": self.skeleton_components,
                "drawing": self.drawing_components,
                "budget": str(self.components_budget),
            },
            "uncertified": list(self.uncertified),
            "verdict": self.verdict,
        }


def _ledger(
    dec: SkeletonDecomposition, profiles: Profiles, mapping: dict[str, str], alpha: Fraction
) -> Ledger:
    """Charge every skeleton face for its sticks and weigh it against its budget.

    A face f of size |f| is charged half its sticks, so the charges sum to
    ``|E| - |E_p|``, and its budget is ``(alpha - 3)(|f| - 2)/2 + |f| - 3``:
    5/4 for a triangle and 8 for a hexagon at ``alpha = 11/2``, 3/2 for a
    triangle at 6.  The skeleton has c components on all n vertices (isolated
    ones included) and the drawing d components that hold an edge, each on
    its own sphere, so Euler's formula gives ``F = E_p - n + c + d`` faces and
    ``Σ|f| = 2 E_p``; c is read off that formula.  With one more term
    ``alpha (c + d - 2)`` the budgets then sum to ``alpha (n - 2) - |E_p|``,
    and the total slack is exactly the bound ``alpha (n - 2)`` minus ``|E|``.

    The one discharging rule is the pairing: each triangle in ``mapping``
    hands 1/4 of its charge to its partner.  The verdict is ``violated``
    when the total slack is negative, ``uncertified`` when some face is still
    over its budget (the faces are listed), and ``certified`` otherwise.
    """
    pmap = dec.full_map
    d = len({pmap._components[a] for a, _ in pmap._ends.values()})
    c = len(dec.faces) - len(dec.skeleton_edges) + len(pmap.vertices) - d
    # Charges and budgets are counted in quarters, as ints: 4 budget(f) is
    # (2 alpha - 6)(|f| - 2) + 4|f| - 12, and 2 alpha is an int in BOUND_TABLE.
    step = int(2 * alpha) - 6
    charge = {p.face: 2 * p.stick_count for p in profiles}
    for src, dst in mapping.items():
        charge[src] -= 1
        charge[dst] += 1
    count, charged = Counter(), Counter()
    for p in profiles:
        count[p.size] += 1
        charged[p.size] += charge[p.face]
    budget = {size: step * (size - 2) + 4 * size - 12 for size in count}
    uncertified = tuple(p.face for p in profiles if charge[p.face] > budget[p.size])
    rows = tuple(
        LedgerRow(size, m, Fraction(charged[size], 4), Fraction(m * budget[size], 4),
                  Fraction(m * budget[size] - charged[size], 4))
        for size, m in sorted(count.items())
    )
    components_budget = alpha * (c + d - 2)
    slack = sum((row.slack for row in rows), components_budget)
    verdict = "violated" if slack < 0 else "uncertified" if uncertified else "certified"
    return Ledger(rows, c, d, components_budget, uncertified, verdict)


# -- density report ------------------------------------------------------------------


class AuditReport(NamedTuple):
    k: int
    n: int
    edge_count: int
    skeleton_edge_count: int
    skeleton_connected: bool
    skeleton_triangulated: bool
    triangle_counts: dict[int, int]
    triangular_face_count: int
    stick_cap_violations: tuple[str, ...]
    association: AssociationResult
    ledger: Ledger
    bound_max_edges: int
    bound_verdict: str
    predicates: dict[str, tuple[PredicateVerdict, ...]]

    @property
    def ok(self) -> bool:
        """The edge count is within the bound; nothing else decides."""
        return self.bound_verdict != "violated"

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
            "stick_cap_violations": list(self.stick_cap_violations),
            "association": self.association.to_dict(),
            "ledger": self.ledger.to_dict(),
            "bound_max_edges": self.bound_max_edges,
            "bound_verdict": self.bound_verdict,
            "predicates": {
                f: [v.to_dict() for v in vs] for f, vs in sorted(self.predicates.items())
            },
            "ok": self.ok,
        }


def density_report(
    dec: SkeletonDecomposition,
    profiles: Profiles,
    pieces: Pieces,
    k: int = 3,
) -> AuditReport:
    """Replay the counting argument face by face and compare the edge count to the bound.

    The ledger (see :func:`_ledger`) charges every skeleton face for its
    sticks against a budget taken from the bound ``BOUND_TABLE[k]``, on any
    skeleton, connected and triangulated or not.  The pairing of 3-stick
    triangles, its one discharging rule, is built only for ``k=3`` on a
    triangulated skeleton; otherwise its result is marked inapplicable with
    a note saying why.  The triangles over the stick cap, the pairing's
    diagnoses and the structural predicates describe the input and are
    reported, but the report is ``ok`` exactly when the edge count is within
    the bound.

    ``pieces`` must be what ``decompose(dec)`` returned and ``profiles``
    what ``face_profiles(dec, pieces)`` returned, or :class:`BadArgument`
    is raised.
    """
    if k not in (3, 4):
        raise BadArgument(f"density audit supports crossing budgets 3 and 4; got {k!r}")
    _check_pieces(dec, pieces)
    if getattr(profiles, "pieces", None) is not pieces:
        raise BadArgument(
            "profiles must be what face_profiles(dec, pieces) returned for these pieces"
        )
    pmap = dec.full_map
    n = len(pmap.vertices)
    edge_count = len(pmap.edge_ids)
    bound = k_bound(n, k)

    triangles = [p for p in profiles if p.is_triangle]
    others = [p for p in profiles if not p.is_triangle]
    pieces_by_id = {p.piece_id: p for p in pieces}
    sizes = Counter(p.stick_count for p in triangles)

    # The pairing applies to k=3 on a triangulated skeleton; otherwise the
    # result says why it was not built.
    not_built = ("pairing is not constructed for k=4" if k == 4
                 else "association requires a fully triangulated skeleton" if others else None)
    association = (AssociationResult(False, {}, (not_built,), ()) if not_built
                   else _associate(triangles, pieces_by_id))
    ledger = _ledger(dec, profiles, association.mapping, BOUND_TABLE[k][0])
    verdict = "violated" if edge_count > bound else "tight" if edge_count == bound else "within"

    return AuditReport(
        k=k,
        n=n,
        edge_count=edge_count,
        skeleton_edge_count=len(dec.skeleton_edges),
        skeleton_connected=ledger.skeleton_components == 1,
        skeleton_triangulated=not others,
        triangle_counts={i: sizes[i] for i in range(max([k, *sizes]) + 1)},
        triangular_face_count=len(triangles),
        stick_cap_violations=tuple(sorted(p.face for p in triangles if p.stick_count > k)),
        association=association,
        ledger=ledger,
        bound_max_edges=bound,
        bound_verdict=verdict,
        predicates=_predicates(others, pieces_by_id),
    )
