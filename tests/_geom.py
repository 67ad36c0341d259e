"""Straight-line drawing builder used as an independent fixture constructor.

Given exact vertex coordinates and straight edges, this derives the full
combinatorial description (crossings, chains, rotations) with exact
arithmetic: integer coordinates stay ints, and a crossing's parameters along
its two segments are made ``Fraction``s only once the segments are known to
cross.  It shares no code with the library's own constructions, so tests can
compare both routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

Point = tuple[int | Fraction, int | Fraction]


class DegenerateGeometry(Exception):
    pass


def _f(x) -> int | Fraction:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def _cross(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _ccw_order(vectors: list[Point]) -> list[int]:
    def half(v: Point) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i: int, j: int) -> int:
        u, v = vectors[i], vectors[j]
        if half(u) != half(v):
            return half(u) - half(v)
        c = _cross(u, v)
        if c == 0:
            raise DegenerateGeometry("collinear directions at a node")
        return -1 if c > 0 else 1

    return sorted(range(len(vectors)), key=cmp_to_key(cmp))


def _proper_intersection(p1: Point, p2: Point, p3: Point, p4: Point):
    r = _sub(p2, p1)
    s = _sub(p4, p3)
    denom = _cross(r, s)
    qp = _sub(p3, p1)
    if denom == 0:
        if _cross(qp, r) == 0:
            # same line: reject only when the closed intervals overlap
            t0 = Fraction(qp[0] * r[0] + qp[1] * r[1], r[0] * r[0] + r[1] * r[1])
            q2 = _sub(p4, p1)
            t1 = Fraction(q2[0] * r[0] + q2[1] * r[1], r[0] * r[0] + r[1] * r[1])
            lo, hi = min(t0, t1), max(t0, t1)
            if hi < 0 or lo > 1:
                return None
            raise DegenerateGeometry("collinear overlapping segments")
        return None
    # t = tn / denom and u = un / denom, compared through their numerators
    # over a positive denominator.
    tn, un = _cross(qp, s), _cross(qp, r)
    if denom < 0:
        tn, un, denom = -tn, -un, -denom
    if tn in (0, denom) or un in (0, denom):
        if 0 <= tn <= denom and 0 <= un <= denom:
            raise DegenerateGeometry("segment endpoint touches another segment")
        return None
    if 0 < tn < denom and 0 < un < denom:
        return Fraction(tn, denom), Fraction(un, denom)
    return None


def drawing_doc(points: dict[str, tuple], edges: list[tuple[str, str, str]]) -> dict:
    """Interchange-style dict for the straight-line drawing of the given edges."""
    pts: dict[str, Point] = {v: (_f(x), _f(y)) for v, (x, y) in points.items()}
    if len({p for p in pts.values()}) != len(pts):
        raise DegenerateGeometry("coincident vertices")

    for e, a, b in edges:
        if a == b:
            raise DegenerateGeometry("straight-line builder cannot draw self-loops")

    crossings: dict[str, tuple[str, str]] = {}
    params: dict[str, list[tuple[Fraction, str]]] = {e: [] for e, _, _ in edges}
    location: dict[str, Point] = {}
    counter = 0
    for i, (e1, a1, b1) in enumerate(edges):
        p1, q1 = pts[a1], pts[b1]
        for e2, a2, b2 in edges[i + 1:]:
            if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
                continue
            hit = _proper_intersection(p1, q1, pts[a2], pts[b2])
            if hit is None:
                continue
            t, u = hit
            cid = f"x{counter}"
            counter += 1
            crossings[cid] = (e1, e2)
            params[e1].append((t, cid))
            params[e2].append((u, cid))
            location[cid] = (p1[0] + t * (q1[0] - p1[0]), p1[1] + t * (q1[1] - p1[1]))

    if len({loc for loc in location.values()}) != len(location):
        raise DegenerateGeometry("three segments meet in one point")

    chains = {}
    for e in params:
        ts = sorted(params[e])
        if len({t for t, _ in ts}) != len(ts):
            raise DegenerateGeometry("coincident crossings on one segment")
        chains[e] = [cid for _, cid in ts]

    ends = {e: (a, b) for e, a, b in edges}
    rotations: dict[str, list] = {}
    for v in pts:
        entries = []
        vectors = []
        for e, a, b in edges:
            if a == v:
                entries.append([e, "+"])
                vectors.append(_direction(pts, location, ends, chains, e, v, forward=True))
            if b == v:
                entries.append([e, "-"])
                vectors.append(_direction(pts, location, ends, chains, e, v, forward=False))
        if entries:
            order = _ccw_order(vectors)
            rotations[v] = [entries[i] for i in order]
    for cid, (e1, e2) in crossings.items():
        entries = []
        vectors = []
        for e in (e1, e2):
            a, b = ends[e]
            d = _sub(pts[b], pts[a])
            entries.append([e, "+"])
            vectors.append(d)
            entries.append([e, "-"])
            vectors.append((-d[0], -d[1]))
        order = _ccw_order(vectors)
        rotations[cid] = [entries[i] for i in order]

    return {
        "vertices": sorted(pts),
        "edges": [list(row) for row in edges],
        "chains": chains,
        "crossings": {c: list(p) for c, p in crossings.items()},
        "rotations": rotations,
    }


def _direction(pts, location, ends, chains, e, v, forward):
    # Direction of departure: toward the first node along the edge, which for
    # straight segments equals the direction to the far endpoint.
    a, b = ends[e]
    target = pts[b] if forward else pts[a]
    origin = pts[v]
    return _sub(target, origin)
