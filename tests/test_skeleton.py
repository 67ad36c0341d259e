from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import _fixtures
from test_properties import random_drawings

from crossing_ledger import (
    BudgetExceeded,
    CrossingLedgerError,
    build_map,
    extract_skeleton,
    restrict,
)
from crossing_ledger.generator import generate_optimal
from crossing_ledger.skeleton import (
    DEFAULT_EXACT_BUDGET,
    ConflictGraph,
    _independent_edges,
    _MisSolver,
    conflict_graph,
    decompose_with,
)


def brute_force_max_independent(nodes, adjacency):
    """Largest independent subset by enumerating all subsets (oracle)."""
    order = sorted(nodes)
    index = {v: i for i, v in enumerate(order)}
    nbr = [0] * len(order)
    for v in order:
        for w in adjacency[v]:
            if w in index:
                nbr[index[v]] |= 1 << index[w]
    best = 0
    best_mask = 0
    for mask in range(1 << len(order)):
        ok = True
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if mask & nbr[i]:
                ok = False
                break
            m &= m - 1
        if ok and mask.bit_count() > best:
            best = mask.bit_count()
            best_mask = mask
    return best, [order[i] for i in range(len(order)) if best_mask >> i & 1]


def test_planar_input_keeps_everything(triangle_spec):
    dec = extract_skeleton(build_map(triangle_spec), "exact")
    assert set(dec.skeleton_edges) == {"a", "b", "c"}
    assert dec.residual_edges == ()


def test_two_crossing_edges_single_conflict(square_diagonals_spec):
    graph = conflict_graph(build_map(square_diagonals_spec))
    assert graph.pairs == (("d1", "d2"),)


def test_gadget_conflict_graph_matches_oracle():
    pmap = build_map(generate_optimal(6))
    graph = conflict_graph(pmap)
    comp = [c for c in graph.components() if len(c) > 1 and c[0].startswith("G0")]
    assert len(comp) == 1 and len(comp[0]) == 8
    size, members = brute_force_max_independent(comp[0], graph.adjacency)
    assert size == 3
    dec = extract_skeleton(pmap, "exact")
    kept = [e for e in dec.skeleton_edges if e.startswith("G0")]
    assert len(kept) == 3
    assert kept == ["G0.0", "G0.2", "G0.4"]  # lexicographic tie-break


def test_exact_matches_brute_force_on_generated():
    for n in (6, 10):
        pmap = build_map(generate_optimal(n))
        graph = conflict_graph(pmap)
        dec = extract_skeleton(pmap, "exact")
        for comp in graph.components():
            if len(comp) <= 1:
                continue
            size, _ = brute_force_max_independent(comp, graph.adjacency)
            assert len([e for e in dec.skeleton_edges if e in set(comp)]) == size


def test_generated_skeleton_size_and_shape():
    for n in (6, 10, 14):
        pmap = build_map(generate_optimal(n))
        dec = extract_skeleton(pmap, "exact")
        assert len(dec.skeleton_edges) == 3 * n - 6
        assert all(f.length == 3 for f in dec.faces)
        assert restrict(pmap, dec.skeleton_edges).crossing_ids == ()
        assert dec.optimal_certificate


def test_residual_edges_always_cross_the_skeleton():
    pmap = build_map(generate_optimal(10))
    dec = extract_skeleton(pmap, "exact")
    graph = conflict_graph(pmap)
    kept = set(dec.skeleton_edges)
    for e in dec.residual_edges:
        assert graph.adjacency[e] & kept


def test_greedy_not_larger_than_exact(ladder_spec):
    for spec in (generate_optimal(6), generate_optimal(10), ladder_spec):
        pmap = build_map(spec)
        exact = extract_skeleton(pmap, "exact")
        greedy = extract_skeleton(pmap, "greedy")
        assert len(greedy.skeleton_edges) <= len(exact.skeleton_edges)
        assert not greedy.optimal_certificate


def test_exact_solver_on_random_graphs_vs_oracle():
    rng = random.Random(1729)
    for trial in range(40):
        n = rng.randint(2, 12)
        names = [f"e{i}" for i in range(n)]
        adjacency = {v: set() for v in names}
        for a, b in itertools.combinations(names, 2):
            if rng.random() < 0.35:
                adjacency[a].add(b)
                adjacency[b].add(a)
        solver = _MisSolver(names, {v: frozenset(s) for v, s in adjacency.items()})
        picked = [solver.ids[i] for i in solver.lexicographically_smallest_maximum()]
        size, _ = brute_force_max_independent(names, adjacency)
        assert len(picked) == size
        # independence
        for a, b in itertools.combinations(picked, 2):
            assert b not in adjacency[a]
        # lexicographic minimality among maxima: no maximum set is smaller
        best = sorted(picked)
        for cand in itertools.combinations(sorted(names), size):
            if all(b not in adjacency[a] for a, b in itertools.combinations(cand, 2)):
                assert best <= list(cand)
                break  # combinations iterate lexicographically; first hit is minimal


def test_twenty_node_component_against_oracle():
    rng = random.Random(7)
    names = [f"c{i:02d}" for i in range(20)]
    adjacency = {v: set() for v in names}
    for a, b in itertools.combinations(names, 2):
        if rng.random() < 0.25:
            adjacency[a].add(b)
            adjacency[b].add(a)
    solver = _MisSolver(names, {v: frozenset(s) for v, s in adjacency.items()})
    size, _ = brute_force_max_independent(names, adjacency)
    assert len(solver.lexicographically_smallest_maximum()) == size


def test_budget_exceeded_requires_explicit_fallback(ladder_spec):
    pmap = build_map(ladder_spec)
    with pytest.raises(BudgetExceeded):
        extract_skeleton(pmap, "exact", budget=3)
    dec = extract_skeleton(pmap, "greedy", budget=3)
    assert len(dec.skeleton_edges) == 4  # drop the ladder's spine


def test_manual_decomposition(uncrossed_stick_spec):
    pmap = build_map(uncrossed_stick_spec)
    dec = decompose_with(pmap, ["c1", "c2", "c3", "c4"])
    assert dec.mode == "manual"
    assert dec.residual_edges == ("f1",)
    with pytest.raises(Exception):
        decompose_with(pmap, ["c1", "c3", "c4", "f1", "c2"])  # c2 crosses f1


def test_decompose_with_rejects_unknown_edges(triangle_spec):
    pmap = build_map(triangle_spec)
    with pytest.raises(CrossingLedgerError, match=r"not edges of this map: \['nope'\]"):
        decompose_with(pmap, ["a", "b", "c", "nope"])


def test_extraction_is_deterministic():
    a = extract_skeleton(build_map(generate_optimal(10)), "exact")
    b = extract_skeleton(build_map(generate_optimal(10)), "exact")
    assert a.skeleton_edges == b.skeleton_edges


def test_unknown_mode_is_a_typed_error(triangle_spec):
    with pytest.raises(CrossingLedgerError, match="unknown skeleton mode 'fast'"):
        extract_skeleton(build_map(triangle_spec), "fast")


# -- one solve per component shape ---------------------------------------------


def fresh_independent_edges(conflicts: ConflictGraph) -> set[str]:
    """Exact mode's kept edges with a fresh solver for every component (oracle)."""
    kept = {e for e in conflicts.nodes if not conflicts.adjacency[e]}
    for comp in conflicts.components():
        if len(comp) > 1:
            solver = _MisSolver(comp, conflicts.adjacency)
            kept.update(solver.ids[i] for i in solver.lexicographically_smallest_maximum())
    return kept


def _graph(adjacency: dict[str, set[str]]) -> ConflictGraph:
    pairs = {(min(e, f), max(e, f)) for e, fs in adjacency.items() for f in fs}
    return ConflictGraph(
        nodes=tuple(sorted(adjacency)),
        adjacency={e: frozenset(fs) for e, fs in adjacency.items()},
        pairs=tuple(sorted(pairs)),
    )


@pytest.fixture
def solves(monkeypatch):
    """The number of MIS searches run, counted across calls."""
    calls = []
    solve = _MisSolver.lexicographically_smallest_maximum

    def counted(self):
        calls.append(tuple(self.nbr))
        return solve(self)

    monkeypatch.setattr(_MisSolver, "lexicographically_smallest_maximum", counted)
    return calls


def test_shape_cache_on_tight_family(solves):
    for n in range(6, 103, 2):
        pmap = build_map(generate_optimal(n))
        conflicts = conflict_graph(pmap)
        want = fresh_independent_edges(conflicts)
        del solves[:]
        assert _independent_edges(conflicts, "exact", DEFAULT_EXACT_BUDGET) == want
        # Every gadget's component has one shape, solved once per call.
        assert len(solves) == 1
        assert extract_skeleton(pmap, "exact").skeleton_edges == tuple(sorted(want))
        assert len(solves) == 2


@pytest.mark.parametrize("name", sorted(n for n in dir(_fixtures) if n.endswith("_spec")))
def test_shape_cache_on_fixtures(name):
    conflicts = conflict_graph(build_map(getattr(_fixtures, name)()))
    try:
        kept = _independent_edges(conflicts, "exact", DEFAULT_EXACT_BUDGET)
    except BudgetExceeded:
        return
    assert kept == fresh_independent_edges(conflicts)


@given(random_drawings())
@settings(max_examples=150, deadline=None)
def test_shape_cache_on_straight_line_drawings(spec):
    conflicts = conflict_graph(build_map(spec))
    kept = _independent_edges(conflicts, "exact", DEFAULT_EXACT_BUDGET)
    assert kept == fresh_independent_edges(conflicts)


@st.composite
def repeated_components(draw):
    """A conflict graph of a few small graphs, each copied under fresh names.

    Copies keep or permute the sorted order of their names, so some share
    a shape with the original and some do not.
    """
    adjacency: dict[str, set[str]] = {}
    for g in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 7))
        pairs = list(itertools.combinations(range(size), 2))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        for copy in range(draw(st.integers(1, 4))):
            order = draw(st.permutations(range(size))) if draw(st.booleans()) else range(size)
            name = {i: f"g{g}c{copy}n{rank}" for i, rank in zip(range(size), order)}
            for i in range(size):
                adjacency.setdefault(name[i], set())
            for a, b in edges:
                adjacency[name[a]].add(name[b])
                adjacency[name[b]].add(name[a])
    for i in range(draw(st.integers(0, 2))):
        adjacency[f"z{i}"] = set()  # uncrossed edges
    return _graph(adjacency)


@given(repeated_components())
@settings(max_examples=200, deadline=None)
def test_shape_cache_on_repeated_and_relabelled_components(conflicts):
    want = fresh_independent_edges(conflicts)
    assert _independent_edges(conflicts, "exact", DEFAULT_EXACT_BUDGET) == want
    # A second call starts with nothing solved.
    assert _independent_edges(conflicts, "exact", DEFAULT_EXACT_BUDGET) == want


def test_shape_cache_lives_for_one_call(solves):
    # Two copies of a path a - b - c under names of the same sorted order.
    conflicts = _graph({
        "a0": {"a1"}, "a1": {"a0", "a2"}, "a2": {"a1"},
        "b0": {"b1"}, "b1": {"b0", "b2"}, "b2": {"b1"},
    })
    for call in (1, 2):
        assert _independent_edges(conflicts, "exact", 3) == {"a0", "a2", "b0", "b2"}
        assert len(solves) == call


def test_budget_is_checked_before_the_shape_cache(solves):
    small = {"a0": {"a1"}, "a1": {"a0"}}
    big = {f"b{i}": {f"b{j}" for j in range(4) if j != i} for i in range(4)}
    copy = {"c0": {"c1"}, "c1": {"c0"}}
    with pytest.raises(BudgetExceeded, match=r"4 edges \(starting at b0\)"):
        _independent_edges(_graph({**small, **big, **copy}), "exact", 3)
    assert solves == [(2, 1)]
