"""Pinned layout coordinates of the tight family; importable without pytest.

``LAYOUT_DIGESTS`` holds, per n, the SHA-256 of every bit of every coordinate
of ``generate_optimal(n)``'s layout with the default outer face, as the
``sum``-based layout gave them on Python 3.11.  ``tests/test_figures.py``
checks them on the running Python, and ``tests/test_golden.py`` on every other
CPython >= 3.10 found, where the SVG's two decimals could hide a changed bit.
"""

from __future__ import annotations

import hashlib

from crossing_ledger import build_map, generate_optimal
from crossing_ledger.figures import _layout_component

LAYOUT_DIGESTS = [
    (6, "cd3620e7fbddba420aad5bccff15e98672c2e1a321f16d26d9fe8d96b82690ed"),
    (54, "66ced921096fd44e6cbb04be04e64927120926bbc4a7088a6252d0023b030e93"),
    (202, "9cc49e8ef5e7e0d7db9b97a43e2cbfffab535506224e40588ff80af5ee5fb4d6"),
]

# SHA-256 of the SVG of ``generate_optimal(202)``, the drawing the ``render``
# benchmark exports, as the dict-based layout wrote it.
BENCHMARK_SVG = "181966dcc7f8f52847c4a32a98a5125a049edfebcf682426a493c05a9e2df52a"


def layout_digest(n: int) -> str:
    pmap = build_map(generate_optimal(n))
    outer = max(pmap.faces, key=lambda f: (f.length, f.face_id))
    nodes = sorted((*pmap.vertices, *pmap.crossing_ids))
    positions = _layout_component(pmap, nodes, outer)
    return hashlib.sha256(repr(sorted(positions.items())).encode()).hexdigest()
