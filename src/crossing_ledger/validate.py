"""Drawing-rule checks: crossing budget, sanity, and non-homotopic multi-edges."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .drawing import PlanarizedMap, Violation
from .errors import BadArgument


class ValidationReport(NamedTuple):
    k: int | None
    per_edge_crossings: dict[str, int]
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "per_edge_crossings": dict(sorted(self.per_edge_crossings.items())),
            "violations": [v.to_dict() for v in self.violations],
            "warnings": list(self.warnings),
            "ok": self.ok,
        }


def merge_reports(*reports: ValidationReport) -> ValidationReport:
    k = next((r.k for r in reports if r.k is not None), None)
    counts: dict[str, int] = {}
    for r in reports:
        counts.update(r.per_edge_crossings)
    violations = tuple(v for r in reports for v in r.violations)
    warnings = tuple(w for r in reports for w in r.warnings)
    return ValidationReport(k, counts, violations, warnings)


def _check_k(k: int) -> None:
    """Refuse a crossing budget that is not a positive int (a bool is not)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise BadArgument(f"k must be a positive integer; got {k!r}")


def check_k_planar(pmap: PlanarizedMap, k: int) -> ValidationReport:
    """List every edge whose chain exceeds the crossing budget k."""
    _check_k(k)
    counts = pmap.edge_crossing_counts()
    violations = tuple(
        Violation("k-planar", (e,), f"edge {e} is crossed {c} times; limit is {k}")
        for e, c in sorted(counts.items())
        if c > k
    )
    return ValidationReport(k, counts, violations, ())


def check_sanity(pmap: PlanarizedMap) -> ValidationReport:
    """Warn about edge pairs that cross each other more than once.

    Repeated crossings are legal, so they are warnings, never violations.
    The drawing rules themselves need no check here: every map is built
    from a valid :class:`DrawingSpec`.
    """
    repeated = sorted((sorted(pair), n) for pair, n in pmap.pair_crossing_counts().items() if n > 1)
    warnings = tuple(f"edges {e} and {f} cross each other {n} times" for (e, f), n in repeated)
    return ValidationReport(None, pmap.edge_crossing_counts(), (), warnings)


# -- homotopy ----------------------------------------------------------------


def _both_sides_inhabited(
    pmap: PlanarizedMap, curve: set[str], ends: set[str], vertices: set[str]
) -> bool:
    """Whether each side of a simple closed curve holds a real vertex off the curve.

    One breadth-first search per side starts at the face beside the curve's
    first segment (of ``min(curve)``) and crosses only non-curve segments.
    The two searches take turns, one face each; a side is done at the first
    face whose boundary holds a vertex outside ``ends``, and the answer is
    False as soon as a side runs out of faces without one.
    """
    first = pmap._first[min(curve)]
    walks, head, dart_face, dart_edge = pmap._walks, pmap._head, pmap._dart_face, pmap._dart_edge
    seeds = (dart_face[first], dart_face[first + 1])
    seen = set(seeds)
    sides = [deque([f]) for f in seeds]
    while sides:
        searching = []
        for queue in sides:
            if not queue:
                return False
            walk = walks[queue.popleft()]
            if any(head[d] in vertices and head[d] not in ends for d in walk):
                continue
            for d in walk:
                if dart_edge[d] in curve:
                    continue
                nb = dart_face[d ^ 1]
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
            searching.append(queue)
        sides = searching
    return True


def check_homotopy(pmap: PlanarizedMap) -> ValidationReport:
    """Check that parallel edges and self-loops bound only inhabited regions.

    Every self-loop, and every rotation-adjacent pair within a bundle of
    parallel edges, forms a closed curve on the sphere; each region of the
    sphere minus that curve must contain a real vertex strictly inside (the
    curve's endpoints sit on it and do not count).  Vertices of other
    connected components have no determined side and are not counted.

    A loop cannot cross itself, so its curve is simple and has two sides;
    so has a parallel pair that shares no crossing.  Curve edges meet real
    vertices only at their endpoints, so around any other vertex every
    segment is off the curve and all its faces lie in one region: a region
    is inhabited exactly when one of its faces has such a vertex on its
    boundary.  A breadth-first search from each side of the curve therefore
    stops at the first such face, and the cost of a curve is the faces near
    it rather than the whole map.

    A parallel pair sharing k >= 1 crossings forms a closed curve with k
    transversal self-crossings, which splits the sphere into k + 2 regions
    (Euler's formula on the curve as a plane graph: k + 2 nodes, 2k + 2
    arcs).  It has no two-sided verdict, so it gets a warning and no
    violation.
    """
    violations: list[Violation] = []
    warnings: list[str] = []
    vertices = set(pmap.vertices)

    for e in pmap.edge_ids:
        v, w = pmap._ends[e]
        if v == w and not _both_sides_inhabited(pmap, {e}, {v}, vertices):
            violations.append(
                Violation(
                    "homotopic-loop",
                    (e,),
                    f"self-loop {e} at {v} bounds a region with no vertex strictly inside",
                )
            )

    # Bundles of parallel edges, each in the cyclic rotation order at its
    # smaller endpoint (the anchor).
    bundles: dict[tuple[str, str], list[str]] = {}
    dart_edge = pmap._dart_edge
    for u in pmap.vertices:
        for d in pmap._rot[u]:
            e = dart_edge[d]
            a, b = pmap._ends[e]
            if a != b and u == min(a, b):
                bundles.setdefault((u, max(a, b)), []).append(e)

    shared = pmap.pair_crossing_counts()
    for (u, v), ordered in sorted(bundles.items()):
        if len(ordered) < 2:
            continue
        pairs = list(zip(ordered, ordered[1:] + ordered[:1]))
        if len(ordered) == 2:
            pairs = pairs[:1]
        for e1, e2 in pairs:
            k = shared.get(frozenset((e1, e2)), 0)
            if k:
                warnings.append(
                    f"parallel edges {e1},{e2} cross each other; the closed curve is "
                    f"not simple ({k + 2} regions); verdict skipped"
                )
            elif not _both_sides_inhabited(pmap, {e1, e2}, {u, v}, vertices):
                violations.append(
                    Violation(
                        "homotopic-parallel",
                        (e1, e2),
                        f"parallel edges {e1},{e2} between {u},{v} bound a region "
                        "with no vertex strictly inside",
                    )
                )

    return ValidationReport(None, pmap.edge_crossing_counts(), tuple(violations), tuple(warnings))


def validate_drawing(pmap: PlanarizedMap, k: int) -> ValidationReport:
    """Sanity + homotopy + crossing budget, merged into one report."""
    return merge_reports(check_sanity(pmap), check_homotopy(pmap), check_k_planar(pmap, k))
