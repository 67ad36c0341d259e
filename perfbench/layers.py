"""The layers the benchmark times: public functions of ``crossing_ledger``.

Each function is taken from the names ``crossing_ledger.cli`` imports, so a
traced CLI process and the in-process corpus audit call the same objects.
Spans are named after the module that owns the function.
"""

from __future__ import annotations

import types

from crossing_ledger import cli
from crossing_ledger.errors import BudgetExceeded, InvariantError
from crossing_ledger.skeleton import conflict_graph

DISCONNECTED_REGION = "skeleton-disconnected-region"


def homotopy_curves(pmap) -> int:
    """Closed curves ``check_homotopy`` tests: self-loops and rotation-adjacent parallel pairs."""
    loops = 0
    bundles: dict[tuple[str, str], int] = {}
    for e in pmap.edge_ids:
        a, b = pmap.endpoints(e)
        if a == b:
            loops += 1
        else:
            key = (min(a, b), max(a, b))
            bundles[key] = bundles.get(key, 0) + 1
    return loops + sum(1 if size == 2 else size for size in bundles.values() if size > 1)


def _build_counts(args, pmap, exc) -> dict:
    if pmap is None:
        return {}
    return {
        "drawing.nodes": len(pmap.vertices) + len(pmap.crossing_ids),
        "drawing.segments": pmap.segment_count(),
        "drawing.faces": len(pmap.faces),
    }


def _homotopy_counts(args, report, exc) -> dict:
    return {"validate.homotopy_curves": homotopy_curves(args[0])}


def _skeleton_counts(args, dec, exc) -> dict:
    sizes = [len(c) for c in conflict_graph(args[0]).components() if len(c) > 1]
    return {
        "skeleton.conflict_components": len(sizes),
        "skeleton.largest_component": max(sizes, default=0),
        "skeleton.budget_refusals": int(isinstance(exc, BudgetExceeded)),
    }


def _decompose_counts(args, pieces, exc) -> dict:
    return {
        "segments.pieces": 0 if pieces is None else len(pieces),
        "segments.disconnected_region_errors": int(
            isinstance(exc, InvariantError) and exc.rule == DISCONNECTED_REGION
        ),
    }


def _report_counts(args, text, exc) -> dict:
    return {"interchange.report_bytes": 0 if text is None else len(text.encode("utf-8"))}


def _svg_counts(args, text, exc) -> dict:
    return {"figures.svg_bytes": 0 if text is None else len(text.encode("utf-8"))}


# Name imported by crossing_ledger.cli -> (span name, counter run after the call).
# The benchmark exports SVG only, so export_figure is timed as figures.export_svg.
LAYERS = {
    "generate_optimal": ("generator.generate", None),
    "parse_text": ("interchange.parse", None),
    "emit_drawing": ("interchange.emit", None),
    "report_document": ("interchange.emit", None),
    "emit_report": ("interchange.emit", _report_counts),
    "build_map": ("drawing.build", _build_counts),
    "check_sanity": ("validate.sanity", None),
    "check_homotopy": ("validate.homotopy", _homotopy_counts),
    "check_k_planar": ("validate.k_planar", None),
    "extract_skeleton": ("skeleton.extract", _skeleton_counts),
    "decompose": ("segments.decompose", _decompose_counts),
    "face_profiles": ("segments.profiles", None),
    "density_report": ("audit.density", None),
    "export_figure": ("figures.export_svg", _svg_counts),
}


def library(tracer=None) -> types.SimpleNamespace:
    """The layer functions, each inside a span of ``tracer`` when one is given."""
    ns = {"merge_reports": cli.merge_reports}
    for name, (span, count) in LAYERS.items():
        fn = getattr(cli, name)
        ns[name] = fn if tracer is None else tracer.wrap(fn, span, count)
    return types.SimpleNamespace(**ns)


def instrument_cli(tracer) -> None:
    """Route the CLI's calls into the layers through ``tracer``."""
    lib = library(tracer)
    for name in LAYERS:
        setattr(cli, name, getattr(lib, name))
