from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

import _generator_oracle as oracle
from _generator_oracle import hexagon_gadget
from crossing_ledger import (
    BadN,
    build_map,
    emit_drawing,
    extract_skeleton,
    generate_optimal,
    validate_drawing,
)
from crossing_ledger import generator
from crossing_ledger.drawing import DrawingSpec
from crossing_ledger.generator import (
    _DIAGONALS,
    _HEX_POINTS,
    _intersection_param,
    _param_order,
    _picker,
    _template,
    chords_interleave,
    theta_frame,
)

# sha256 of emit_drawing(generate_optimal(202)): the benchmark's input digest.
TIGHT_202_DIGEST = "3329c2cb0521661e050b206cf43b4cc5d77637b36cd0529f1e1680b5d0ea8bcb"

# Crossing-partner sequences along each diagonal, frozen from the convex
# hexagon: chords cross exactly when their corner indices interleave, and the
# order along each chord follows from the nesting of the crossing chords.
EXPECTED_CHAINS = {
    0: [5, 7, 1],  # (0,2): crosses (5,1), (1,4), (1,3)
    1: [0, 2],  # (1,3)
    2: [1, 6, 3],  # (2,4)
    3: [2, 7, 4],  # (3,5)
    4: [3, 5],  # (4,0)
    5: [4, 6, 0],  # (5,1)
    6: [5, 7, 2],  # (0,3)
    7: [0, 6, 3],  # (1,4)
}


def _oracle_pairs():
    out = set()
    for i, j in itertools.combinations(range(8), 2):
        (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
        if chords_interleave(a, b, c, d):
            out.add((i, j))
    return out


def test_frame_counts():
    for n in (6, 10, 102):
        pmap = build_map(theta_frame(n))
        assert len(pmap.vertices) == n
        assert len(pmap.faces) == (n - 2) // 2
        assert all(f.length == 6 for f in pmap.faces)
        assert len(pmap.edge_ids) == 3 * (n - 2) // 2


def test_bad_n_rejected():
    for n in (4, 5, 7, 9):
        with pytest.raises(BadN):
            theta_frame(n)


def test_strict_mode_parity():
    theta_frame(8)  # fine by default
    with pytest.raises(BadN):
        theta_frame(8, strict=True)
    theta_frame(10, strict=True)  # 10 - 2 = 8, divisible by 4


def test_strict_mode_is_an_argument_only(monkeypatch):
    # No environment variable switches strict mode on behind the caller's back.
    monkeypatch.setenv("CROSSING_LEDGER_MODE", "strict-paper")
    assert len(generate_optimal(8).edges) == 33
    with pytest.raises(BadN):
        generate_optimal(8, strict=True)


def test_gadget_matches_interleave_oracle():
    pmap = build_map(theta_frame(6))
    gadget = hexagon_gadget(pmap.faces[0], anchor="u", prefix="G")
    oracle = _oracle_pairs()
    got = {
        tuple(sorted((int(e1.split(".")[1]), int(e2.split(".")[1]))))
        for e1, e2 in gadget.crossings.values()
    }
    assert got == oracle
    assert len(gadget.crossings) == 11


def test_gadget_crossing_counts():
    pmap = build_map(theta_frame(6))
    gadget = hexagon_gadget(pmap.faces[0], anchor="u", prefix="G")
    counts = {int(e.split(".")[1]): len(cs) for e, cs in gadget.chains.items()}
    assert counts == {0: 3, 1: 2, 2: 3, 3: 3, 4: 2, 5: 3, 6: 3, 7: 3}
    assert max(counts.values()) == 3


def _template_chains() -> dict[int, list[int]]:
    """Each diagonal slot's crossing partners along it, read from the template's rows."""
    names, edge_rows, cross_rows, chain_of, _, _ = _template()
    slot = {names[e]: int(names[e][1:]) for e, _, _ in edge_rows}
    pair = {names[c]: (names[e], names[f]) for c, e, f in cross_rows}
    return {
        slot[names[e]]: [slot[x] for c in pick(names) for x in pair[c] if x != names[e]]
        for (e, _, _), pick in zip(edge_rows, chain_of)
    }


def test_template_rows_match_the_frozen_gadget():
    names, edge_rows, cross_rows, *_ = _template()
    assert [(int(names[e][1:]), (a, b)) for e, a, b in edge_rows] == list(enumerate(_DIAGONALS))
    assert len(cross_rows) == 11
    assert {tuple(sorted(int(names[x][1:]) for x in (e, f))) for _, e, f in cross_rows} == (
        _oracle_pairs()
    )
    chains = _template_chains()
    assert chains == EXPECTED_CHAINS
    assert max(map(len, chains.values())) == 3


def test_long_diagonal_partner_set():
    pmap = build_map(theta_frame(6))
    gadget = hexagon_gadget(pmap.faces[0], anchor="u", prefix="G")
    partners = {
        frozenset(pair) - {"G.6"}
        for pair in gadget.crossings.values()
        if "G.6" in pair
    }
    # the (0,3) diagonal crosses (5,1), (2,4), and (1,4)
    assert partners == {frozenset({"G.5"}), frozenset({"G.2"}), frozenset({"G.7"})}


def test_gadget_chain_orders_frozen():
    pmap = build_map(theta_frame(6))
    gadget = hexagon_gadget(pmap.faces[0], anchor="u", prefix="G")
    for slot, expected in EXPECTED_CHAINS.items():
        chain = gadget.chains[f"G.{slot}"]
        partners = []
        for cid in chain:
            e1, e2 = gadget.crossings[cid]
            other = e2 if e1 == f"G.{slot}" else e1
            partners.append(int(other.split(".")[1]))
        assert partners == expected, slot


def _fraction_param(p1, p2, p3, p4) -> Fraction:
    """Parameter along p1->p2 of the crossing with p3->p4, in rationals."""
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (p4[0] - p3[0], p4[1] - p3[1])
    q = (p3[0] - p1[0], p3[1] - p1[1])
    return Fraction(q[0] * s[1] - q[1] * s[0], r[0] * s[1] - r[1] * s[0])


def test_gadget_chain_orders_match_rational_oracle():
    # Along each diagonal, crossings sort by their Fraction parameter, then by id.
    pmap = build_map(theta_frame(6))
    gadget = hexagon_gadget(pmap.faces[0], anchor="u", prefix="G")
    for slot, (a, b) in enumerate(_DIAGONALS):
        edge = f"G.{slot}"
        entries = []
        for cid, pair in gadget.crossings.items():
            if edge in pair:
                c, d = _DIAGONALS[int((pair[1] if pair[0] == edge else pair[0]).split(".")[1])]
                t = _fraction_param(_HEX_POINTS[a], _HEX_POINTS[b], _HEX_POINTS[c], _HEX_POINTS[d])
                entries.append((t, cid))
        assert gadget.chains[edge] == tuple(cid for _, cid in sorted(entries)), edge


_COORD = st.integers(-50, 50)
_POINT = st.tuples(_COORD, _COORD)


@given(_POINT, _POINT, _POINT, _POINT)
@settings(max_examples=300, deadline=None)
def test_intersection_param_is_the_rational_parameter(p1, p2, p3, p4):
    try:
        num, den = _intersection_param(p1, p2, p3, p4)
    except ValueError:
        r = (p2[0] - p1[0], p2[1] - p1[1])
        s = (p4[0] - p3[0], p4[1] - p3[1])
        if r[0] * s[1] != r[1] * s[0]:
            assert not 0 < _fraction_param(p1, p2, p3, p4) < 1
        return
    assert den > 0
    assert Fraction(num, den) == _fraction_param(p1, p2, p3, p4)
    assert 0 < Fraction(num, den) < 1


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12), st.sampled_from("abcd")),
                max_size=8))
@settings(max_examples=300, deadline=None)
def test_param_order_is_fraction_then_id_order(rows):
    # Equal parameters written differently (1/2, 2/4) tie and fall back to the id.
    entries = [((num, den), cid) for num, den, cid in rows]
    got = sorted(entries, key=cmp_to_key(_param_order))
    want = sorted(entries, key=lambda x: (Fraction(*x[0]), x[1]))
    assert [(Fraction(*t), cid) for t, cid in got] == [(Fraction(*t), cid) for t, cid in want]


def test_relabelled_template_equals_gadget_of_every_face():
    # The oracle computes the gadget of the first face only and relabels it.
    for n in (6, 8, 10, 30, 54, 102):
        faces = sorted(build_map(theta_frame(n)).faces, key=lambda f: f.face_id)
        template = hexagon_gadget(faces[0], anchor="u", prefix="G0")
        for q, face in enumerate(faces):
            gadget = hexagon_gadget(face, anchor="u", prefix=f"G{q}")
            assert oracle._relabel(template, gadget.corners, f"G{q}") == gadget


@pytest.mark.parametrize("n", [*range(6, 103, 2), 202, 402])
def test_stamping_pass_matches_the_face_by_face_oracle(n):
    assert emit_drawing(generate_optimal(n)) == emit_drawing(oracle.generate_optimal(n))
    if (n - 2) % 4 == 0:
        want = emit_drawing(oracle.generate_optimal(n, strict=True))
        assert emit_drawing(generate_optimal(n, strict=True)) == want


def test_picker_gives_a_tuple_for_every_row_length():
    xs = list("abcdef")
    for row in ([], [4], [1, 3], [5, 0, 2]):
        assert _picker(row)(xs) == tuple(xs[i] for i in row)


def test_tight_202_is_the_benchmark_input():
    text = emit_drawing(generate_optimal(202))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TIGHT_202_DIGEST


@pytest.mark.parametrize("n", [10, 202])
def test_one_frame_map_one_gadget_one_final_build(n, monkeypatch):
    # A rebuild per face or per insertion shows as extra calls here.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(generator, "build_map", counted("build_map", generator.build_map))
    monkeypatch.setattr(generator, "_template", counted("_template", generator._template))
    monkeypatch.setattr(DrawingSpec, "build", staticmethod(counted("build", DrawingSpec.build)))
    spec = generate_optimal(n)
    assert calls == ["build", "build_map", "_template", "build"]
    assert len(spec.edges) == 11 * n // 2 - 11


def test_short_triple_is_independent():
    for i, j in itertools.combinations((0, 2, 4), 2):
        (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
        assert not chords_interleave(a, b, c, d)


def test_edge_count_formula():
    for n in (6, 10, 14, 102):
        spec = generate_optimal(n)
        assert len(spec.edges) == 11 * n // 2 - 11


def test_generated_family_is_valid():
    for n in (6, 10, 14):
        pmap = build_map(generate_optimal(n))
        report = validate_drawing(pmap, 3)
        assert report.ok
        assert max(report.per_edge_crossings.values()) == 3


def test_generated_skeleton_agrees_with_structure():
    for n in (6, 10):
        pmap = build_map(generate_optimal(n))
        dec = extract_skeleton(pmap, "exact")
        assert len(dec.skeleton_edges) == 3 * n - 6
        assert all(f.length == 3 for f in dec.faces)


def test_generation_is_deterministic():
    assert emit_drawing(generate_optimal(10)) == emit_drawing(generate_optimal(10))
