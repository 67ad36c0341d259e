"""Drawing-rule checks: crossing budget, sanity, and non-homotopic multi-edges."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .drawing import PlanarizedMap, Violation
from .errors import InvariantError


@dataclass(frozen=True)
class ValidationReport:
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


def check_k_planar(pmap: PlanarizedMap, k: int) -> ValidationReport:
    """List every edge whose chain exceeds the crossing budget k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
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
    warnings = []
    for pair, count in sorted(pmap.pair_crossing_counts().items(), key=lambda kv: sorted(kv[0])):
        if count > 1:
            e, f = sorted(pair)
            warnings.append(f"edges {e} and {f} cross each other {count} times")
    return ValidationReport(None, pmap.edge_crossing_counts(), (), tuple(warnings))


# -- homotopy ----------------------------------------------------------------


def _cut_regions(pmap: PlanarizedMap, curve_edges: set[str], component: int) -> list[set[str]]:
    """Connected regions of the sphere after cutting along the given edges.

    Faces of the map are the atoms; two faces belong to the same region when
    they share a segment that is not part of the curve.  Walking around a
    node the curve passes through is blocked exactly on the curve's two
    strands, which is what cutting means.
    """
    faces = [f for f in pmap.faces if pmap.component_of(f.nodes[0]) == component]
    region_of: dict[str, int] = {}
    regions: list[set[str]] = []
    by_id = {f.face_id: f for f in faces}
    for f in faces:
        if f.face_id in region_of:
            continue
        idx = len(regions)
        members = {f.face_id}
        region_of[f.face_id] = idx
        queue = deque([f])
        while queue:
            cur = queue.popleft()
            for d in cur.darts:
                if d[0] in curve_edges:
                    continue
                nb, _ = pmap.face_of_dart(pmap.twin(d))
                if nb not in region_of:
                    region_of[nb] = idx
                    members.add(nb)
                    queue.append(by_id[nb])
        regions.append(members)
    return regions


def _vertices_strictly_inside(
    pmap: PlanarizedMap, region: set[str], exclude: set[str], component: int
) -> list[str]:
    inside = []
    for v in pmap.vertices:
        if v in exclude or pmap.component_of(v) != component:
            continue
        rot = pmap.rotation(v)
        if not rot:
            continue  # degree-0 vertices have no determined location
        fid, _ = pmap.face_of_dart(rot[0])
        if fid in region:
            inside.append(v)
    return inside


def check_homotopy(pmap: PlanarizedMap) -> ValidationReport:
    """Check that parallel edges and self-loops bound only inhabited regions.

    Every self-loop, and every rotation-adjacent pair within a bundle of
    parallel edges, forms a closed curve on the sphere; both sides of that
    curve must contain at least one real vertex strictly inside (the shared
    endpoints sit on the curve and do not count).  Region membership is
    computed by cutting the face adjacency along the curve and reading off
    dual connectivity.  Vertices of other connected components have no
    determined side and are not counted.
    """
    violations: list[Violation] = []
    warnings: list[str] = []

    loops = [e for e in pmap.edge_ids if pmap.endpoints(e)[0] == pmap.endpoints(e)[1]]
    for e in loops:
        v = pmap.endpoints(e)[0]
        component = pmap.component_of(v)
        regions = _cut_regions(pmap, {e}, component)
        if len(regions) != 2:
            # A loop cannot cross itself, so its curve is simple and must cut
            # the sphere in two; anything else is an internal inconsistency.
            raise InvariantError(
                "self-loop-degenerate", f"self-loop {e} cut the sphere into {len(regions)} regions"
            )
        for region in regions:
            if not _vertices_strictly_inside(pmap, region, {v}, component):
                violations.append(
                    Violation(
                        "homotopic-loop",
                        (e,),
                        f"self-loop {e} at {v} bounds a region with no vertex strictly inside",
                    )
                )
                break

    bundles: dict[tuple[str, str], list[str]] = {}
    for e in pmap.edge_ids:
        a, b = pmap.endpoints(e)
        if a == b:
            continue
        bundles.setdefault((min(a, b), max(a, b)), []).append(e)

    for (u, v), members in sorted(bundles.items()):
        if len(members) < 2:
            continue
        # Order the bundle by the cyclic rotation at the shared anchor vertex,
        # then test each rotation-adjacent pair.
        order = [d[0] for d in pmap.rotation(u) if d[0] in set(members)]
        seen: set[str] = set()
        ordered = [e for e in order if not (e in seen or seen.add(e))]
        pairs = [(ordered[i], ordered[(i + 1) % len(ordered)]) for i in range(len(ordered))]
        if len(ordered) == 2:
            pairs = pairs[:1]
        component = pmap.component_of(u)
        for e1, e2 in pairs:
            regions = _cut_regions(pmap, {e1, e2}, component)
            if len(regions) != 2:
                warnings.append(
                    f"parallel edges {e1},{e2} cross each other; the closed curve is "
                    f"not simple ({len(regions)} regions); verdict skipped"
                )
                continue
            for region in regions:
                if not _vertices_strictly_inside(pmap, region, {u, v}, component):
                    violations.append(
                        Violation(
                            "homotopic-parallel",
                            (e1, e2),
                            f"parallel edges {e1},{e2} between {u},{v} bound a region "
                            "with no vertex strictly inside",
                        )
                    )
                    break

    return ValidationReport(None, pmap.edge_crossing_counts(), tuple(violations), tuple(warnings))


def validate_drawing(pmap: PlanarizedMap, k: int) -> ValidationReport:
    """Sanity + homotopy + crossing budget, merged into one report."""
    return merge_reports(check_sanity(pmap), check_homotopy(pmap), check_k_planar(pmap, k))
