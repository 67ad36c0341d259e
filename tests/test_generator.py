from __future__ import annotations

import itertools

import pytest

from crossing_ledger import (
    BadN,
    NotHexagon,
    build_map,
    chords_interleave,
    extract_skeleton,
    frame_spec,
    generate_optimal,
    hexagon_gadget,
    theta_frame,
    validate_drawing,
)
from crossing_ledger.generator import _DIAGONALS, STRICT_ENV_VAR, STRICT_ENV_VALUE, _relabel

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
        fs = frame_spec(n)
        assert fs.m == (n - 2) // 2
        assert fs.edge_count == 3 * (n - 2) // 2
        pmap = build_map(theta_frame(n))
        assert len(pmap.faces) == fs.face_count
        assert all(f.length == 6 for f in pmap.faces)
        assert len(pmap.edge_ids) == fs.edge_count


def test_bad_n_rejected():
    for n in (4, 5, 7, 9):
        with pytest.raises(BadN):
            theta_frame(n)


def test_strict_mode_parity(monkeypatch):
    theta_frame(8)  # fine by default
    with pytest.raises(BadN):
        theta_frame(8, strict=True)
    theta_frame(10, strict=True)  # 10 - 2 = 8, divisible by 4
    monkeypatch.setenv(STRICT_ENV_VAR, STRICT_ENV_VALUE)
    with pytest.raises(BadN):
        theta_frame(8)


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
    counts = {int(e.split(".")[1]): c for e, c in gadget.crossing_counts().items()}
    assert counts == {0: 3, 1: 2, 2: 3, 3: 3, 4: 2, 5: 3, 6: 3, 7: 3}
    assert max(counts.values()) == 3


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


def test_relabelled_template_equals_gadget_of_every_face():
    # generate_optimal computes the gadget of the first face only and relabels it.
    for n in (6, 8, 10, 30, 54, 102):
        faces = sorted(build_map(theta_frame(n)).faces, key=lambda f: f.face_id)
        template = hexagon_gadget(faces[0], anchor="u", prefix="G0")
        for q, face in enumerate(faces):
            gadget = hexagon_gadget(face, anchor="u", prefix=f"G{q}")
            assert _relabel(template, gadget.corners, f"G{q}") == gadget


def test_short_triple_is_independent():
    for i, j in itertools.combinations((0, 2, 4), 2):
        (a, b), (c, d) = _DIAGONALS[i], _DIAGONALS[j]
        assert not chords_interleave(a, b, c, d)


def test_gadget_rejects_non_hexagons(triangle_spec):
    pmap = build_map(triangle_spec)
    with pytest.raises(NotHexagon):
        hexagon_gadget(pmap.faces[0])


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
        assert all(f.length == 3 for f in dec.skeleton_map.faces)


def test_generation_is_deterministic():
    from crossing_ledger import emit_drawing

    assert emit_drawing(generate_optimal(10)) == emit_drawing(generate_optimal(10))
