"""crossing-ledger: k-planar topological graph drawings.

Represent drawings as planarized combinatorial maps, validate the drawing
rules (crossing budget, non-homotopic multi-edges), extract the largest
crossing-free substructure, decompose the remaining edges into sticks and
middle parts, audit edge-density bounds, and generate the tight family of
densest 3-planar drawings.

Each public name loads its module on first access (PEP 562), so importing
the package costs almost nothing and a caller pays only for what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it, in the order of ``__all__``.
_EXPORTS = {
    "DrawingSpec": "drawing",
    "build_map": "drawing",
    "restrict": "drawing",
    "check_homotopy": "validate",
    "check_k_planar": "validate",
    "check_sanity": "validate",
    "validate_drawing": "validate",
    "extract_skeleton": "skeleton",
    "decompose": "segments",
    "face_profiles": "segments",
    "density_report": "audit",
    "k_bound": "audit",
    "generate_optimal": "generator",
    "emit_drawing": "interchange",
    "input_digest": "interchange",
    "parse_drawing": "interchange",
    "parse_text": "interchange",
    "report_document": "interchange",
    "export_figure": "figures",
    "BadHint": "errors",
    "BadN": "errors",
    "BudgetExceeded": "errors",
    "CrossingLedgerError": "errors",
    "DanglingCrossing": "errors",
    "InvalidRotation": "errors",
    "InvariantError": "errors",
    "NonSpherical": "errors",
    "ParseError": "errors",
    "UnsupportedK": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def _lazy(table: dict[str, str], namespace: dict):
    """A module ``__getattr__`` that imports ``table[name]`` on first access.

    ``table`` maps each name to the package module that defines it; the
    value is stored in ``namespace``, the module's globals, so later lookups
    skip the hook, and a caller may replace it there.
    """

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(f".{module}", __name__), name)
        return value

    return __getattr__


__getattr__ = _lazy(_EXPORTS, globals())


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
