"""The original full-cut homotopy check, kept as a test oracle.

``crossing_ledger.validate.check_homotopy`` decides each closed curve with
an early-exit witness search.  This module keeps the slower algorithm it
replaced: cut the whole face set of the curve's component along the curve,
read the regions off dual connectivity, and scan every vertex for one
strictly inside each region.  ``tests/test_homotopy_oracle.py`` checks that
both produce the same report.
"""

from __future__ import annotations

from collections import deque

from crossing_ledger.drawing import PlanarizedMap, Violation
from crossing_ledger.validate import ValidationReport


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
    """Full-cut homotopy check: one dual cut of the component per curve."""
    violations: list[Violation] = []
    warnings: list[str] = []

    loops = [e for e in pmap.edge_ids if pmap.endpoints(e)[0] == pmap.endpoints(e)[1]]
    for e in loops:
        v = pmap.endpoints(e)[0]
        component = pmap.component_of(v)
        regions = _cut_regions(pmap, {e}, component)
        # A loop cannot cross itself, so its curve is simple and must cut the
        # sphere in two.
        assert len(regions) == 2, f"self-loop {e} cut the sphere into {len(regions)} regions"
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
