"""The named drawings that tests share, as plain builder functions.

``conftest.py`` turns every ``*_spec`` builder into a pytest fixture of the
same name.  Nothing here imports pytest, so ``tests/golden/capture.py`` can
build the golden inputs under any interpreter.
"""

from __future__ import annotations

from _geom import drawing_doc

from crossing_ledger import DrawingSpec


def spec_from(points, edges) -> DrawingSpec:
    doc = drawing_doc(points, edges)
    return DrawingSpec.build(
        vertices=doc["vertices"],
        edges=doc["edges"],
        chains=doc["chains"],
        crossings=doc["crossings"],
        rotations=doc["rotations"],
    )


def triangle_spec() -> DrawingSpec:
    return spec_from(
        {"v1": (0, 0), "v2": (4, 0), "v3": (2, 3)},
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")],
    )


def square_diagonals_spec() -> DrawingSpec:
    """4-cycle plus both diagonals, crossing once in the middle."""
    return spec_from(
        {"v1": (0, 0), "v2": (4, 0), "v3": (4, 4), "v4": (0, 4)},
        [
            ("c1", "v1", "v2"),
            ("c2", "v2", "v3"),
            ("c3", "v3", "v4"),
            ("c4", "v4", "v1"),
            ("d1", "v1", "v3"),
            ("d2", "v2", "v4"),
        ],
    )


def ladder_spec() -> DrawingSpec:
    """One vertical edge crossed by four disjoint horizontal edges."""
    points = {"t": (0, 10), "b": (0, -10)}
    edges = [("e", "t", "b")]
    for i, y in enumerate((4, 2, -2, -4)):
        points[f"l{i}"] = (-5, y)
        points[f"r{i}"] = (5, y)
        edges.append((f"h{i}", f"l{i}", f"r{i}"))
    return spec_from(points, edges)


def bigon_spec() -> DrawingSpec:
    """Two parallel edges bounding two empty regions; fails the homotopy rule."""
    return DrawingSpec.build(
        vertices=["u", "v"],
        edges=[("e1", "u", "v"), ("e2", "u", "v")],
        rotations={
            "u": [("e1", "+"), ("e2", "+")],
            "v": [("e1", "-"), ("e2", "-")],
        },
    )


def one_sided_parallel_spec() -> DrawingSpec:
    """Parallel pair with a vertex inside only one of the two regions."""
    return DrawingSpec.build(
        vertices=["u", "v", "w"],
        edges=[("e1", "u", "v"), ("e2", "u", "v"), ("g", "u", "w")],
        rotations={
            "u": [("e1", "+"), ("g", "+"), ("e2", "+")],
            "v": [("e1", "-"), ("e2", "-")],
            "w": [("g", "-")],
        },
    )


def crossing_parallel_spec() -> DrawingSpec:
    """Parallel pair crossing each other once: a figure-eight with three regions."""
    return DrawingSpec.build(
        vertices=["u", "v"],
        edges=[("e1", "u", "v"), ("e2", "u", "v")],
        chains={"e1": ["x"], "e2": ["x"]},
        crossings={"x": ["e1", "e2"]},
        rotations={
            "u": [("e1", "+"), ("e2", "+")],
            "v": [("e1", "-"), ("e2", "-")],
            "x": [("e1", "+"), ("e2", "-"), ("e1", "-"), ("e2", "+")],
        },
    )


def lonely_loop_spec() -> DrawingSpec:
    """Self-loop at u with a vertex on one side only; fails the homotopy rule."""
    return DrawingSpec.build(
        vertices=["u", "w"],
        edges=[("loop", "u", "u"), ("g", "u", "w")],
        rotations={
            "u": [("loop", "+"), ("g", "+"), ("loop", "-")],
            "w": [("g", "-")],
        },
    )


def pierced_loop_spec() -> DrawingSpec:
    """Self-loop at u crossed by an edge whose ends lie on either side of it."""
    return DrawingSpec.build(
        vertices=["u", "w", "x"],
        edges=[("loop", "u", "u"), ("g", "w", "x")],
        chains={"loop": ["c"], "g": ["c"]},
        crossings={"c": ["loop", "g"]},
        rotations={
            "u": [("loop", "+"), ("loop", "-")],
            "w": [("g", "+")],
            "x": [("g", "-")],
            "c": [("loop", "+"), ("g", "+"), ("loop", "-"), ("g", "-")],
        },
    )


def double_crossing_spec() -> DrawingSpec:
    """Two edges crossing each other twice (legal, but warned about)."""
    return DrawingSpec.build(
        vertices=["u", "v", "x", "y"],
        edges=[("e", "u", "v"), ("f", "x", "y")],
        chains={"e": ["c1", "c2"], "f": ["c1", "c2"]},
        crossings={"c1": ["e", "f"], "c2": ["e", "f"]},
        rotations={
            "u": [("e", "+")],
            "v": [("e", "-")],
            "x": [("f", "+")],
            "y": [("f", "-")],
            "c1": [("e", "+"), ("f", "-"), ("e", "-"), ("f", "+")],
            "c2": [("e", "+"), ("f", "+"), ("e", "-"), ("f", "-")],
        },
    )


def uncrossed_stick_spec() -> DrawingSpec:
    """Square skeleton; one extra edge pierces a side, both its sticks uncrossed."""
    return spec_from(
        {
            "v1": (0, 0),
            "v2": (10, 0),
            "v3": (10, 10),
            "v4": (0, 10),
            "v5": (5, 5),
            "v6": (20, 5),
        },
        [
            ("c1", "v1", "v2"),
            ("c2", "v2", "v3"),
            ("c3", "v3", "v4"),
            ("c4", "v4", "v1"),
            ("f1", "v5", "v6"),
        ],
    )


def far_middle_spec() -> DrawingSpec:
    """Square skeleton; one edge passes through, crossing two opposite sides."""
    return spec_from(
        {
            "v1": (0, 0),
            "v2": (10, 0),
            "v3": (10, 10),
            "v4": (0, 10),
            "p": (5, 20),
            "q": (5, -10),
        },
        [
            ("c1", "v1", "v2"),
            ("c2", "v2", "v3"),
            ("c3", "v3", "v4"),
            ("c4", "v4", "v1"),
            ("h1", "p", "q"),
        ],
    )


def four_stick_triangle_spec() -> DrawingSpec:
    """A triangle hosting four sticks; valid only under a crossing budget of 4.

    Four fan edges leave the apex, each crossing the triangle's base once and
    then one side of its own small catch triangle below.  Connector edges keep
    the crossing-free substructure connected without adding crossings.
    """
    points = {"v1": (0, 10), "v2": (-10, -10), "v3": (10, -10)}
    edges = [("t12", "v1", "v2"), ("t23", "v2", "v3"), ("t31", "v3", "v1")]
    for i in range(4):
        cx = -6 + 4 * i
        points[f"z{i}"] = (cx, -14)
        points[f"p{i}"] = (cx, -23 - i)  # catch-triangle top sits below z_i's entry path
        points[f"l{i}"] = (cx - 1, -12)
        points[f"r{i}"] = (cx + 1, -12)
        edges.append((f"e{i}", "v1", f"z{i}"))
        edges.append((f"wa{i}", f"l{i}", f"r{i}"))
        edges.append((f"wb{i}", f"r{i}", f"p{i}"))
        edges.append((f"wc{i}", f"p{i}", f"l{i}"))
    for i in range(3):
        edges.append((f"k{i}", f"p{i}", f"p{i+1}"))
    edges.append(("k3", "v2", "p0"))
    return spec_from(points, edges)


def mutual_stick_triangle_spec() -> DrawingSpec:
    """Octahedral skeleton whose inner triangle hosts three mutually crossing sticks."""
    points = {
        "v1": (-3, 2),
        "v2": (0, -4),
        "v3": (3, 2),
        "w1": (0, 10),
        "w2": (-9, -5),
        "w3": (10, -5),
    }
    edges = [
        ("t12", "v1", "v2"),
        ("t23", "v2", "v3"),
        ("t31", "v3", "v1"),
        ("w12", "w1", "w2"),
        ("w23", "w2", "w3"),
        ("w31", "w3", "w1"),
        ("s11", "v1", "w1"),
        ("s12", "v1", "w2"),
        ("s22", "v2", "w2"),
        ("s23", "v2", "w3"),
        ("s33", "v3", "w3"),
        ("s31", "v3", "w1"),
        ("z1", "v1", "w3"),
        ("z2", "v2", "w1"),
        ("z3", "v3", "w2"),
    ]
    return spec_from(points, edges)


def loop_around_edge_spec() -> DrawingSpec:
    """Self-loop at u around a separate edge v-w; an edge from x outside crosses in to v.

    Valid, 3-planar and non-simple.  The skeleton is the loop and v-w, two
    components, so the face inside the loop is bounded by two walks.
    """
    return DrawingSpec.build(
        vertices=["u", "v", "w", "x"],
        edges=[("a", "u", "u"), ("g", "v", "w"), ("z", "x", "v")],
        chains={"a": ["c"], "z": ["c"]},
        crossings={"c": ["a", "z"]},
        rotations={
            "u": [("a", "+"), ("a", "-")],
            "v": [("g", "+"), ("z", "-")],
            "w": [("g", "-")],
            "x": [("z", "+")],
            "c": [("a", "+"), ("z", "+"), ("a", "-"), ("z", "-")],
        },
    )


# Straight-line drawings from the random corpus (``perfbench/corpus.py``, seed
# 1), pruned to the edges that keep a non-triangular skeleton face whose
# sticks cross.


def opposite_sticks_spec() -> DrawingSpec:
    """A 4-walk face in which a left stick crosses a right stick."""
    return spec_from(
        {
            "v00": (818, 1529),
            "v01": (368, 453),
            "v04": (3623, 2805),
            "v05": (2249, 967),
            "v06": (1414, 780),
        },
        [
            ("e005", "v04", "v06"),
            ("e007", "v00", "v05"),
            ("e009", "v00", "v06"),
            ("e021", "v01", "v04"),
        ],
    )


def mixed_stick_pairs_spec() -> DrawingSpec:
    """A 6-walk face with one opposite and one non-opposite stick crossing."""
    return spec_from(
        {
            "v00": (3804, 2227),
            "v01": (3052, 3943),
            "v02": (2756, 3182),
            "v03": (3736, 954),
            "v04": (3962, 2904),
            "v08": (3012, 1041),
            "v09": (2352, 3382),
        },
        [
            ("e000", "v00", "v02"),
            ("e004", "v02", "v08"),
            ("e005", "v04", "v08"),
            ("e006", "v01", "v03"),
            ("e009", "v03", "v09"),
            ("e014", "v00", "v03"),
        ],
    )


def two_walk_sticks_spec() -> DrawingSpec:
    """Two disjoint skeleton edges bound one face of two walks; two long sticks cross."""
    return spec_from(
        {
            "v01": (616, 199),
            "v02": (3015, 2038),
            "v04": (3245, 3634),
            "v06": (2768, 3948),
            "v08": (448, 1140),
            "v09": (3849, 1443),
            "v12": (1502, 2282),
        },
        [
            ("e001", "v04", "v12"),
            ("e002", "v08", "v09"),
            ("e004", "v02", "v06"),
            ("e005", "v01", "v04"),
        ],
    )
