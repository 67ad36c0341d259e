"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

Tolerances are exact everywhere; the only non-exact budgets are wall-clock
limits, checked with time.monotonic.
"""

from __future__ import annotations

import itertools
import random
import time

from _geom import DegenerateGeometry, drawing_doc

from crossing_ledger import (
    DrawingSpec,
    build_map,
    check_homotopy,
    check_k_planar,
    check_sanity,
    decompose,
    density_report,
    emit_drawing,
    extract_skeleton,
    face_profiles,
    generate_optimal,
    k_bound,
    parse_text,
    restrict,
)
from crossing_ledger.generator import _DIAGONALS, chords_interleave
from crossing_ledger.skeleton import _MisSolver, conflict_graph

from test_skeleton import brute_force_max_independent


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_tight_family_edge_counts():
    start = time.monotonic()
    ok = True
    for n in range(6, 103, 4):
        spec = generate_optimal(n)
        ok = ok and len(spec.edges) == 11 * n // 2 - 11
    ok = ok and len(generate_optimal(6).edges) == 22
    ok = ok and len(generate_optimal(102).edges) == 550
    elapsed = time.monotonic() - start
    _verdict(1, f"edge counts 11n/2-11 for n=6..102 in {elapsed:.2f}s", ok and elapsed < 1.0)


def test_criterion_2_generated_family_is_valid():
    ok = True
    worst_time = 0.0
    for n in range(6, 103, 4):
        start = time.monotonic()
        pmap = build_map(generate_optimal(n))
        sanity = check_sanity(pmap)
        homotopy = check_homotopy(pmap)
        budget = check_k_planar(pmap, 3)
        ok = ok and sanity.ok and homotopy.ok and budget.ok
        ok = ok and max(budget.per_edge_crossings.values()) == 3
        worst_time = max(worst_time, time.monotonic() - start)
    _verdict(
        2,
        f"sanity+homotopy+k=3 pass for every n, max per-edge = 3, worst {worst_time:.2f}s",
        ok and worst_time < 1.0,
    )


def test_criterion_3_skeleton_matches_triangulation_result():
    ok = True
    for n in range(6, 51, 4):
        dec = extract_skeleton(build_map(generate_optimal(n)), "exact")
        ok = ok and len(dec.skeleton_edges) == 3 * n - 6
        ok = ok and all(f.length == 3 for f in dec.faces)
    _verdict(3, "exact skeleton has 3n-6 edges and only 3-walk faces, n=6..50", ok)


def test_criterion_4_counting_ledger():
    ok = True
    for n in range(6, 51, 4):
        dec = extract_skeleton(build_map(generate_optimal(n)), "exact")
        pieces = decompose(dec)
        profiles = face_profiles(dec, pieces)
        report = density_report(dec, profiles, pieces, k=3)
        t = report.triangle_counts
        ok = ok and report.triangular_face_count == 2 * n - 4
        ok = ok and report.stick_cap_violations == ()
        assoc = report.association
        ok = ok and assoc.ok
        ok = ok and len(set(assoc.mapping.values())) == len(assoc.mapping)
        ok = ok and t[3] <= t[0] + t[1] + t[2]
        residual = report.edge_count - report.skeleton_edge_count
        ok = ok and t[1] + 2 * t[2] + 3 * t[3] == 2 * residual
        ok = ok and report.bound_verdict == "tight"
        ok = ok and report.ledger.verdict == "certified"
        ok = ok and sum(row.slack for row in report.ledger.faces) == 0
    _verdict(4, "t_p=2n-4, cap holds, association injective, identity, ledger certified, tight", ok)


def test_criterion_5_oracle_equivalence():
    # gadget crossing table vs the convex-chord interleave oracle, all 28 pairs
    pmap = build_map(generate_optimal(6))
    gadget_pairs = {
        tuple(sorted((e1, e2)))
        for e1, e2 in pmap.spec.crossings.values()
        if e1.startswith("G0") and e2.startswith("G0")
    }
    ok = True
    for i, j in itertools.combinations(range(8), 2):
        (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
        expected = chords_interleave(a, b, c, d)
        got = tuple(sorted((f"G0.{i}", f"G0.{j}"))) in gadget_pairs
        ok = ok and expected == got
    # exact independent sets vs exhaustive subset search on every component
    graph = conflict_graph(pmap)
    components = [c for c in graph.components() if len(c) > 1]
    gadget_component = next(c for c in components if len(c) == 8)
    size, _ = brute_force_max_independent(gadget_component, graph.adjacency)
    ok = ok and size == 3
    for comp in components:
        assert len(comp) <= 20
        solver = _MisSolver(comp, graph.adjacency)
        brute, _ = brute_force_max_independent(comp, graph.adjacency)
        ok = ok and len(solver.lexicographically_smallest_maximum()) == brute
    rng = random.Random(20)
    for _ in range(10):  # synthetic conflict components up to 20 nodes
        size_n = rng.randint(10, 20)
        names = [f"s{i:02d}" for i in range(size_n)]
        adjacency = {v: set() for v in names}
        for a, b in itertools.combinations(names, 2):
            if rng.random() < 0.3:
                adjacency[a].add(b)
                adjacency[b].add(a)
        solver = _MisSolver(names, {v: frozenset(s) for v, s in adjacency.items()})
        brute, _ = brute_force_max_independent(names, adjacency)
        ok = ok and len(solver.lexicographically_smallest_maximum()) == brute
    _verdict(5, "28-pair interleave oracle and exhaustive-search skeleton agreement", ok)


def test_criterion_6_bound_table():
    ok = (
        k_bound(20, 1) == 72
        and k_bound(20, 2) == 90
        and k_bound(20, 3) == 99
        and k_bound(20, 4) == 108
    )
    _verdict(6, "bound table at n=20: 72 / 90 / 99 / 108", ok)


def test_criterion_7_negative_fixtures(
    ladder_spec, bigon_spec, uncrossed_stick_spec, far_middle_spec
):
    ok = True
    # a 4-crossing edge fails k=3 and is named
    report = check_k_planar(build_map(ladder_spec), 3)
    ok = ok and not report.ok and [v.subjects for v in report.violations] == [("e",)]
    # an empty-region parallel pair fails homotopy
    report = check_homotopy(build_map(bigon_spec))
    ok = ok and not report.ok and report.violations[0].rule == "homotopic-parallel"
    # an uncrossed stick fails the crossed-sticks predicate
    dec = extract_skeleton(build_map(uncrossed_stick_spec), "exact")
    pieces = decompose(dec)
    pred = density_report(dec, face_profiles(dec, pieces), pieces).predicates
    hosts = {p.host_face for p in pieces}
    ok = ok and all(
        any(v.name == "sticks_crossed" and not v.holds for v in pred[h]) for h in hosts
    )
    # a far middle part fails the short-middles predicate
    dec = extract_skeleton(build_map(far_middle_spec), "exact")
    pieces = decompose(dec)
    pred = density_report(dec, face_profiles(dec, pieces), pieces).predicates
    host = next(p.host_face for p in pieces if p.kind == "middle")
    ok = ok and any(v.name == "middles_short" and not v.holds for v in pred[host])
    _verdict(7, "all four negative fixtures produce the exact expected verdicts", ok)


def _random_spec(rng: random.Random) -> DrawingSpec | None:
    n = rng.randint(3, 7)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randint(0, 40), rng.randint(0, 40)))
    points = {f"v{i}": c for i, c in enumerate(sorted(coords))}
    pairs = list(itertools.combinations(sorted(points), 2))
    rng.shuffle(pairs)
    picks = pairs[: rng.randint(2, min(11, len(pairs)))]
    edges = [(f"e{k}", a, b) for k, (a, b) in enumerate(picks)]
    try:
        doc = drawing_doc(points, edges)
    except DegenerateGeometry:
        return None
    return DrawingSpec.build(
        vertices=doc["vertices"],
        edges=doc["edges"],
        chains=doc["chains"],
        crossings=doc["crossings"],
        rotations=doc["rotations"],
    )


def test_criterion_8_randomized_property_suite():
    rng = random.Random(0xC0FFEE)
    instances = 0
    failures = 0
    while instances < 1000:
        spec = _random_spec(rng)
        if spec is None:
            continue
        instances += 1
        try:
            # parse/emit round trip
            assert parse_text(emit_drawing(spec)) == spec
            pmap = build_map(spec)
            # restrict keeps the sphere condition (checked on construction)
            keep = [e for e in pmap.edge_ids if rng.random() < 0.6]
            sub = restrict(pmap, keep)
            assert sum(f.length for f in sub.faces) == 2 * sub.segment_count()
            # stick count = twice the residual edges
            dec = extract_skeleton(pmap, "exact")
            sticks = [p for p in decompose(dec) if p.kind == "stick"]
            assert len(sticks) == 2 * len(dec.residual_edges)
            # k-planarity is monotone in k
            verdicts = [check_k_planar(pmap, k).ok for k in range(1, 7)]
            assert verdicts == sorted(verdicts)
        except AssertionError:
            failures += 1
    ok = failures == 0
    _verdict(
        8,
        f"1000 randomized instances, {failures} failures",
        ok,
    )
