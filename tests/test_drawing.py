from __future__ import annotations

import json
from pathlib import Path

import pytest

from crossing_ledger import (
    CrossingLedgerError,
    DanglingCrossing,
    DrawingSpec,
    InvalidRotation,
    InvariantError,
    NonSpherical,
    build_map,
    parse_text,
    restrict,
)
from crossing_ledger.generator import generate_optimal, theta_frame

REJECTED = Path(__file__).parent / "golden" / "inputs"


def test_triangle_two_faces(triangle_spec):
    pmap = build_map(triangle_spec)
    assert sorted(f.length for f in pmap.faces) == [3, 3]
    assert pmap.segment_count() == 3


def test_crossing_diagonals_euler(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    assert len(pmap.vertices) == 4
    assert len(pmap.crossing_ids) == 1
    assert pmap.segment_count() == 8
    # V - E + F = 2 forces F = 2 - 5 + 8
    assert len(pmap.faces) == 5


def test_generated_segment_count():
    spec = generate_optimal(6)
    pmap = build_map(spec)
    # each crossing splits two edges once more
    assert pmap.segment_count() == len(spec.edges) + 2 * len(spec.crossings)


def test_face_walk_lengths_sum_to_dart_count(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    assert sum(f.length for f in pmap.faces) == 2 * pmap.segment_count()


def test_restrict_to_all_edges_is_identity(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    assert restrict(pmap, pmap.edge_ids) == pmap


def test_restrict_dissolves_crossings(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    sub = restrict(pmap, ["c1", "c2", "c3", "c4", "d1"])
    assert sub.crossing_ids == ()
    assert sub.chain("d1") == ()
    assert len(sub.faces) == 3  # 4 nodes, 5 edges: F = 2 - 4 + 5


def test_restrict_is_idempotent(square_diagonals_spec):
    pmap = build_map(square_diagonals_spec)
    keep = ["c1", "c2", "c3", "c4", "d2"]
    once = restrict(pmap, keep)
    assert restrict(once, keep) == once


def test_restrict_generated_skeleton_is_triangulated():
    pmap = build_map(generate_optimal(6))
    keep = [e for e in pmap.edge_ids if e.startswith("F")]
    keep += ["G0.0", "G0.2", "G0.4", "G1.0", "G1.2", "G1.4"]
    sub = restrict(pmap, keep)
    assert all(f.length == 3 for f in sub.faces)
    assert len(sub.faces) == 8


def test_restrict_rejects_unknown_edges(triangle_spec):
    pmap = build_map(triangle_spec)
    with pytest.raises(CrossingLedgerError, match=r"not edges of this map: \['nope'\]"):
        restrict(pmap, ["nope"])


def test_faces_of_cycle():
    spec = DrawingSpec.build(
        vertices=[f"v{i}" for i in range(6)],
        edges=[(f"e{i}", f"v{i}", f"v{(i + 1) % 6}") for i in range(6)],
        rotations={
            f"v{i}": [(f"e{i}", "+"), (f"e{(i - 1) % 6}", "-")] for i in range(6)
        },
    )
    walks = build_map(spec).faces
    assert sorted(w.length for w in walks) == [6, 6]


def test_theta_frame_faces_are_hexagons():
    pmap = build_map(theta_frame(10))
    assert len(pmap.faces) == 4
    assert all(f.length == 6 for f in pmap.faces)


def test_non_simple_face_repeats_vertex():
    # a triangle with a pendant edge hanging into one face: the pendant's
    # endpoints appear twice on that face's walk
    spec = DrawingSpec.build(
        vertices=["v1", "v2", "v3", "v4"],
        edges=[
            ("a", "v1", "v2"),
            ("b", "v2", "v3"),
            ("c", "v3", "v1"),
            ("p", "v2", "v4"),
        ],
        rotations={
            "v1": [("a", "+"), ("c", "-")],
            "v2": [("b", "+"), ("p", "+"), ("a", "-")],
            "v3": [("c", "+"), ("b", "-")],
            "v4": [("p", "-")],
        },
    )
    pmap = build_map(spec)
    big = max(pmap.faces, key=lambda f: f.length)
    assert big.length == 5
    assert big.nodes.count("v2") == 2
    assert big.edges.count("p") == 2  # the pendant edge is a bridge


# Entries 0 and 2, and entries 1 and 3, must be the two ends of one edge;
# these are the four anchored orders of the four ends in which they are not.
NON_ALTERNATING = [
    [("e", "+"), ("e", "-"), ("f", "+"), ("f", "-")],
    [("e", "+"), ("e", "-"), ("f", "-"), ("f", "+")],
    [("e", "+"), ("f", "+"), ("f", "-"), ("e", "-")],
    [("e", "+"), ("f", "-"), ("f", "+"), ("e", "-")],
]


def _rotation_id(rotation) -> str:
    return "".join(e + d for e, d in rotation)


@pytest.mark.parametrize("rotation", NON_ALTERNATING, ids=_rotation_id)
def test_crossing_rotation_must_alternate(rotation):
    with pytest.raises(InvalidRotation) as info:
        DrawingSpec.build(
            vertices=["v1", "v2", "v3", "v4"],
            edges=[("e", "v1", "v2"), ("f", "v3", "v4")],
            chains={"e": ["x"], "f": ["x"]},
            crossings={"x": ["e", "f"]},
            rotations={
                "v1": [("e", "+")],
                "v2": [("e", "-")],
                "v3": [("f", "+")],
                "v4": [("f", "-")],
                "x": rotation,
            },
        )
    assert info.value.rule == "rotation-alternation"
    assert str(info.value) == (
        "rotation-alternation: rotation at x does not alternate between e and f"
    )


@pytest.mark.parametrize("rotation", NON_ALTERNATING, ids=_rotation_id)
def test_diagonals_that_touch_are_refused_by_the_rule(square_diagonals_spec, rotation):
    # The diagonals' crossing turned into a touching point breaks the rule
    # before any face is traced.
    doc = square_diagonals_spec.to_doc()
    (x, (d1, d2)), = doc["crossings"].items()
    names = {"e": d1, "f": d2}
    doc["rotations"][x] = [[names[e], d] for e, d in rotation]
    with pytest.raises(InvalidRotation) as info:
        DrawingSpec.build(**doc)
    assert info.value.rule == "rotation-alternation"
    assert str(info.value).endswith(f"does not alternate between {d1} and {d2}")


def test_dangling_crossing_rejected():
    with pytest.raises(InvariantError):
        build_map(
            DrawingSpec.build(
                vertices=["v1", "v2", "v3", "v4"],
                edges=[("e", "v1", "v2"), ("f", "v3", "v4")],
                chains={"e": ["x"]},  # f's chain omits x
                crossings={"x": ["e", "f"]},
                rotations={
                    "v1": [("e", "+")],
                    "v2": [("e", "-")],
                    "v3": [("f", "+")],
                    "v4": [("f", "-")],
                    "x": [("e", "+"), ("f", "+"), ("e", "-"), ("f", "-")],
                },
            )
        )


@pytest.mark.parametrize(
    "rule, error",
    [
        ("self-crossing", InvariantError),
        ("crossing-degree", DanglingCrossing),
        ("rotation-at-vertex", InvalidRotation),
        ("rotation-at-crossing", InvalidRotation),
        ("rotation-alternation", InvalidRotation),
    ],
)
def test_broken_rule_raises_typed_error(rule, error):
    # One golden-corpus input per rule; each breaks that rule and no other.
    text = (REJECTED / f"{rule}.json").read_text(encoding="utf-8")
    for make in (lambda: DrawingSpec.build(**json.loads(text)), lambda: parse_text(text)):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert info.value.rule == rule
        assert str(info.value).startswith(f"{rule}: ")


def test_torus_rotation_rejected():
    # K5 minus enough structure... simplest non-spherical witness: one vertex,
    # two self-loops interleaved in the rotation (a torus embedding)
    with pytest.raises(NonSpherical):
        build_map(
            DrawingSpec.build(
                vertices=["v"],
                edges=[("a", "v", "v"), ("b", "v", "v")],
                rotations={"v": [("a", "+"), ("b", "+"), ("a", "-"), ("b", "-")]},
            )
        )


# A 3-star: centre 0, leaves 1, 2 and 3, edges a, b and c.
STAR = {"vertices": [0, 1, 2, 3], "edges": [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]}
STAR_LEAVES = {1: [("a", "-")], 2: [("b", "-")], 3: [("c", "-")]}

# Build arguments that break one rule of the input's form, and that rule.
# New cases go at the end, so that existing case ids keep their numbers.
MALFORMED = [
    ({"vertices": ["a"], "edges": [("e", "a")]}, "edge-row"),
    ({"vertices": ["a", "b"], "edges": ["eab"]}, "edge-row"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", ("b",))]}, "id-type"),
    ({"vertices": [False], "edges": []}, "id-type"),
    ({"vertices": ["a"], "edges": [], "chains": {"e": [["x"]]}}, "id-type"),
    ({"vertices": ["a"], "edges": [], "crossings": {"x": ["e", 2.0]}}, "id-type"),
    ({"vertices": ["a"], "edges": [], "rotations": {"a": [("e", "+", "+")]}}, "rotation-entry"),
    ({"vertices": ["a"], "edges": [], "rotations": {"a": [(None, "+")]}}, "id-type"),
    ({"vertices": ["a"], "edges": [], "crossings": {"x": "ef"}}, "crossing-pair"),
    ({"vertices": ["a"], "edges": [], "crossings": {"x": 5}}, "crossing-pair"),
    ({"vertices": ["a"], "edges": [], "crossings": {"x": ["e"]}}, "crossing-pair"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", "b")], "chains": {"e": 5}}, "chain-list"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", "b")], "chains": {"e": "xy"}}, "chain-list"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", "b")], "rotations": {"a": 5}},
     "rotation-list"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", "b")], "rotations": {"a": "e+"}},
     "rotation-list"),
    ({"vertices": ["a", "b"], "edges": [("e", "a", "b")], "chains": [("e", ["x"])]},
     "field-mapping"),
    ({"vertices": ["a"], "edges": [], "crossings": [("x", ["e", "f"])]}, "field-mapping"),
    ({"vertices": ["a"], "edges": [], "rotations": [("a", [])]}, "field-mapping"),
    ({"vertices": ["a"], "edges": [], "crossings": ""}, "field-mapping"),
    # Keys that str() makes equal: 0 and "0" would name one node twice.
    ({**STAR, "rotations": {0: [("a", "+"), ("b", "+"), ("c", "+")],
                            "0": [("a", "+"), ("c", "+"), ("b", "+")], **STAR_LEAVES}},
     "duplicate-rotation"),
    ({"vertices": ["u", "v"], "edges": [(1, "u", "v")], "chains": {1: ["x"], "1": []}},
     "duplicate-chain"),
    ({"vertices": ["u", "v", "w", "z"], "edges": [("e", "u", "v"), ("f", "w", "z")],
      "crossings": {7: ["e", "f"], "7": ["f", "e"]}}, "duplicate-crossing-id"),
    # Integers of more digits than str() converts (4300 by default).
    ({"vertices": [10**5000], "edges": []}, "id-digits"),
    ({"vertices": ["a", "b"], "edges": [(-(10**5000), "a", "b")]}, "id-digits"),
    ({"vertices": ["a"], "edges": [], "rotations": {10**5000: []}}, "id-digits"),
    # A field given as null is not a mapping; leave it out to mean none.
    ({"vertices": ["a"], "edges": [], "chains": None}, "field-mapping"),
    ({"vertices": ["a"], "edges": [], "rotations": None}, "field-mapping"),
    # Vertices and edges are lists: a string is not read as its characters.
    ({"vertices": 5, "edges": []}, "field-list"),
    ({"vertices": "ab", "edges": []}, "field-list"),
    ({"vertices": {"a": 1}, "edges": []}, "field-list"),
    ({"vertices": ["a"], "edges": None}, "field-list"),
    ({"vertices": ["a"], "edges": "eab"}, "field-list"),
]


@pytest.mark.parametrize("kwargs, rule", MALFORMED)
def test_malformed_ids_and_rows_raise_typed_errors(kwargs, rule):
    with pytest.raises(InvariantError) as info:
        DrawingSpec.build(**kwargs)
    assert info.value.rule == rule


@pytest.mark.parametrize(
    "fields, rule",
    [
        ({"edges": [["e", "a"]]}, "edge-row"),
        ({"edges": ["eab"]}, "edge-row"),
        ({"crossings": {"x": "ef"}}, "crossing-pair"),
        ({"crossings": {"x": 5}}, "crossing-pair"),
        ({"crossings": {"x": ["e", "f", "g"]}}, "crossing-pair"),
        ({"rotations": {"a": [["e", "+", "+"]]}}, "rotation-entry"),
        ({"rotations": {"a": ["e+"]}}, "rotation-entry"),
    ],
)
def test_parse_text_refusals_name_the_rule(fields, rule):
    # The document's rows are checked once, by DrawingSpec.build.
    doc = {"vertices": ["a", "b"], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}
    with pytest.raises(InvariantError) as info:
        parse_text(json.dumps({**doc, **fields}))
    assert info.value.rule == rule
    assert str(info.value).startswith(f"{rule}: ")


@pytest.mark.parametrize(
    "kwargs, rule",
    [case for case in MALFORMED
     if case[1] in ("field-list", "field-mapping", "chain-list", "rotation-list")],
)
def test_parse_text_leaves_the_field_shapes_to_build(kwargs, rule):
    # A document's fields and its chain and rotation values are checked once,
    # by DrawingSpec.build, so parse_text names the same rule.
    doc = {"chains": {}, "crossings": {}, "rotations": {}, **kwargs}
    with pytest.raises(InvariantError) as info:
        parse_text(json.dumps(doc))
    assert info.value.rule == rule


def test_integer_ids_are_accepted_by_build():
    spec = DrawingSpec.build(
        vertices=[1, 2], edges=[(3, 1, 2)], rotations={1: [(3, "+")], 2: [(3, "-")]}
    )
    assert spec.edges == (("3", "1", "2"),)


def test_duplicate_edge_id_rejected():
    with pytest.raises(InvariantError):
        DrawingSpec.build(
            vertices=["v1", "v2"],
            edges=[("e", "v1", "v2"), ("e", "v2", "v1")],
            rotations={},
        )


def test_disconnected_input_accepted(triangle_spec):
    doc = triangle_spec.to_doc()
    doc["vertices"].append("lonely")
    spec = DrawingSpec.build(**{k: doc[k] for k in ("vertices", "edges", "chains", "crossings", "rotations")})
    pmap = build_map(spec)
    assert pmap.component_of("lonely") != pmap.component_of("v1")
