"""crossing-ledger: k-planar topological graph drawings.

Represent drawings as planarized combinatorial maps, validate the drawing
rules (crossing budget, non-homotopic multi-edges), extract the largest
crossing-free substructure, decompose the remaining edges into sticks and
middle parts, audit edge-density bounds, and generate the tight family of
densest 3-planar drawings.
"""

__version__ = "0.1.0"

from .drawing import DrawingSpec, build_map, restrict
from .errors import (
    BadHint,
    BadN,
    BudgetExceeded,
    CrossingLedgerError,
    DanglingCrossing,
    InvalidRotation,
    InvariantError,
    NonSpherical,
    NotHexagon,
    ParseError,
    UnsupportedK,
)
from .validate import check_homotopy, check_k_planar, check_sanity, validate_drawing
from .skeleton import conflict_graph, decompose_with, extract_skeleton
from .segments import decompose, face_profiles
from .audit import (
    associate,
    bounds_table,
    density_report,
    k_bound,
    overfull_triangles,
    structural_predicates,
)
from .generator import (
    chords_interleave,
    frame_spec,
    generate_optimal,
    hexagon_gadget,
    theta_frame,
)
from .interchange import (
    emit_drawing,
    input_digest,
    parse_drawing,
    parse_text,
    report_document,
)
from .figures import export_figure

__all__ = [
    "__version__",
    "DrawingSpec",
    "build_map",
    "restrict",
    "check_homotopy",
    "check_k_planar",
    "check_sanity",
    "validate_drawing",
    "conflict_graph",
    "decompose_with",
    "extract_skeleton",
    "decompose",
    "face_profiles",
    "associate",
    "bounds_table",
    "density_report",
    "k_bound",
    "overfull_triangles",
    "structural_predicates",
    "chords_interleave",
    "frame_spec",
    "generate_optimal",
    "hexagon_gadget",
    "theta_frame",
    "emit_drawing",
    "input_digest",
    "parse_drawing",
    "parse_text",
    "report_document",
    "export_figure",
    "BadHint",
    "BadN",
    "BudgetExceeded",
    "CrossingLedgerError",
    "DanglingCrossing",
    "InvalidRotation",
    "InvariantError",
    "NonSpherical",
    "NotHexagon",
    "ParseError",
    "UnsupportedK",
]
