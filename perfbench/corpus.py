"""Seeded corpus of random straight-line 3-planar drawings.

Each drawing starts from integer points in general position (no three
collinear) and inserts straight edges greedily, in a seeded random order,
keeping an edge only when the drawing stays 3-planar and non-degenerate.
Insertion stops at a random target edge count between sparse (n edges) and
past maximal, so the corpus mixes sparse drawings, whose skeletons can split
into several regions, with maximal ones, whose conflict components can
exceed the exact-search budget.

The insertion test uses integer cross products only; the interchange
document of each finished drawing is built once by the test suite's exact
straight-line builder (``tests/_geom.py``), an implementation independent of
the library.
"""

from __future__ import annotations

import hashlib
import json
import random

K = 3  # crossing budget of the corpus and of its audits
GRID = 1 << 12  # coordinates lie in [0, GRID)
N_RANGE = (8, 32)  # vertex counts, inclusive
CORPUS_SIZE = 160


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _general_position_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        p = (rng.randrange(GRID), rng.randrange(GRID))
        if p in pts:
            continue
        if any(
            _orient(*pts[i], *pts[j], *p) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ):
            continue
        pts.append(p)
    return pts


def _crossing_point(p, q, r, s) -> tuple[int, int, int]:
    """Homogeneous integer coordinates (X, Y, D) of the crossing of pq and rs."""
    dx1, dy1 = q[0] - p[0], q[1] - p[1]
    dx2, dy2 = s[0] - r[0], s[1] - r[1]
    d = dx1 * dy2 - dy1 * dx2
    t = (r[0] - p[0]) * dy2 - (r[1] - p[1]) * dx2  # parameter on pq is t / d
    return p[0] * d + t * dx1, p[1] * d + t * dy1, d


def _passes_through(p, q, point: tuple[int, int, int]) -> bool:
    x, y, d = point
    return (q[0] - p[0]) * (y - p[1] * d) - (q[1] - p[1]) * (x - p[0] * d) == 0


def random_drawing(rng: random.Random, n: int, target_edges: int):
    """Points and edges of one greedy straight-line 3-planar drawing."""
    pts = _general_position_points(rng, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    edges: list[tuple[int, int]] = []
    crossed: list[list[int]] = []  # per edge: indices of the edges it crosses
    points_on: list[list[tuple[int, int, int]]] = []  # per edge: its crossing points
    for i, j in pairs:
        if len(edges) >= target_edges:
            break
        p, q = pts[i], pts[j]
        hits = []
        for idx, (a, b) in enumerate(edges):
            if a in (i, j) or b in (i, j):
                continue
            r, s = pts[a], pts[b]
            if (_orient(*p, *q, *r) > 0) == (_orient(*p, *q, *s) > 0):
                continue
            if (_orient(*r, *s, *p) > 0) == (_orient(*r, *s, *q) > 0):
                continue
            hits.append(idx)
            if len(hits) > K:
                break
        if len(hits) > K or any(len(crossed[h]) >= K for h in hits):
            continue
        # Three segments through one point would make the drawing degenerate.
        if any(_passes_through(p, q, x) for h in hits for x in points_on[h]):
            continue
        new = len(edges)
        edges.append((i, j))
        crossed.append(list(hits))
        points_on.append([])
        for h in hits:
            a, b = edges[h]
            x = _crossing_point(p, q, pts[a], pts[b])
            crossed[h].append(new)
            points_on[h].append(x)
            points_on[new].append(x)
    points = {f"v{i:02d}": pts[i] for i in range(n)}
    named = [(f"e{k:03d}", f"v{a:02d}", f"v{b:02d}") for k, (a, b) in enumerate(edges)]
    return points, named


def build_corpus(seed: int, drawing_doc) -> list[str]:
    """Interchange texts of the corpus for ``seed``; ``drawing_doc`` builds each one."""
    # Latin hypercube over (vertex count, density): every seed covers the
    # same strata, so the mix of small, large, sparse and maximal drawings
    # varies little from seed to seed while points and edge order do.
    rng = random.Random(seed)
    lo, hi = N_RANGE
    density_strata = list(range(CORPUS_SIZE))
    rng.shuffle(density_strata)
    texts = []
    for i, stratum in enumerate(density_strata):
        n = lo + int((hi - lo + 1) * (i + rng.random()) / CORPUS_SIZE)
        share = (stratum + rng.random()) / CORPUS_SIZE
        points, edges = random_drawing(rng, n, n + round(3 * n * share))
        texts.append(json.dumps(drawing_doc(points, edges)))
    return texts


def corpus_digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode("utf-8")).digest())
    return "sha256:" + h.hexdigest()
