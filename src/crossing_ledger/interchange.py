"""Reading and writing the interchange document and report documents.

The interchange document is UTF-8 JSON whose top-level keys mirror the
drawing description, in this order: ``vertices``, ``edges``, ``chains``,
``crossings``, ``rotations``.  Rotation lists are cyclic; the first element
is the canonical anchor, and the emitter always anchors at the smallest
entry, so emitting is byte-stable and emit-then-parse is the identity on
canonical specs.

:func:`emit_drawing` writes that text directly from the spec's tuples, in
exactly the bytes ``json.dumps(spec.to_doc(), indent=2) + "\n"`` gives.
:func:`emit_report` writes any JSON-serialisable report with one recursive
writer (``_value``) in the bytes ``json.dumps(doc, indent=2) + "\n"`` gives.
Both quote strings with ``json``'s own ASCII encoder and lay out blocks with
string joins; ``tests/test_emit_oracle.py`` keeps the ``json.dumps`` calls as
their oracles.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterable

from . import __version__
from .drawing import DrawingSpec
from .errors import ParseError

_FIELDS = ("vertices", "edges", "chains", "crossings", "rotations")


def spec_from_document(doc: Any) -> DrawingSpec:
    """Check the document's shape and build the canonical spec from it.

    Shape errors of the document, its fields and its chain and rotation lists
    raise :class:`ParseError`; :meth:`DrawingSpec.build` checks the rows,
    the ids and the drawing rules.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    missing = [k for k in _FIELDS if k not in doc]
    if missing:
        raise ParseError(f"missing field(s): {missing}")

    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ParseError("field 'vertices' must be a non-empty list")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ParseError("field 'edges' must be a list")
    for name in ("chains", "crossings", "rotations"):
        if not isinstance(doc[name], dict):
            raise ParseError(f"field '{name}' must be an object")
    for e, cs in doc["chains"].items():
        if not isinstance(cs, list):
            raise ParseError(f"chain of edge {e} must be a list")
    for node, rot in doc["rotations"].items():
        if not isinstance(rot, list):
            raise ParseError(f"rotation at {node} must be a list")

    return DrawingSpec.build(
        vertices=vertices,
        edges=edges,
        chains=doc["chains"],
        crossings=doc["crossings"],
        rotations=doc["rotations"],
    )


def parse_text(text: str) -> DrawingSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # json's decoder recurses once per nested array or object
        raise ParseError("document nests too deeply to parse") from exc
    return spec_from_document(doc)


def parse_drawing(path: str | Path) -> DrawingSpec:
    """Load an interchange file.

    Raises :class:`ParseError` for an unreadable file or a malformed
    document, and a typed :class:`InvariantError` naming the rule for a
    drawing that breaks one (see :meth:`DrawingSpec.build`).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_text(text)


class _Layout(dict):
    """Nesting depth -> the opening, separating and closing whitespace of a block.

    The canonical layout has two spaces per level and one item per line.
    Each depth's strings are made on first use.
    """

    def __missing__(self, depth: int) -> tuple[str, str, str]:
        inner = "\n" + "  " * (depth + 1)
        layout = self[depth] = (inner, "," + inner, "\n" + "  " * depth)
        return layout


_LAYOUT = _Layout()


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array (or, with ``"{}"``, object) of encoded items at ``depth``."""
    if not items:
        return brackets
    opening, separator, closing = _LAYOUT[depth]
    return brackets[0] + opening + separator.join(items) + closing + brackets[1]


def _strings(values: Iterable[str], depth: int) -> str:
    return _block(list(map(_quote, values)), depth)


def emit_drawing(spec: DrawingSpec) -> str:
    """Canonical interchange text for a spec (documented key order, 2-space indent).

    Written field by field from the spec's tuples, with ``json``'s own ASCII
    string encoder, in the bytes ``json.dumps(spec.to_doc(), indent=2)``
    gives; that call is the test oracle.
    """
    fields = (
        _strings(spec.vertices, 1),
        _block([_strings(row, 2) for row in spec.edges], 1),
        _block([f"{_quote(e)}: {_strings(cs, 2)}" for e, cs in spec.chains.items()], 1, "{}"),
        _block([f"{_quote(c)}: {_strings(p, 2)}" for c, p in spec.crossings.items()], 1, "{}"),
        _block(
            [
                f"{_quote(node)}: {_block([_strings(entry, 3) for entry in rot], 2)}"
                for node, rot in spec.rotations.items()
            ],
            1,
            "{}",
        ),
    )
    return _block([f"{_quote(k)}: {v}" for k, v in zip(_FIELDS, fields)], 0, "{}") + "\n"


def input_digest(spec: DrawingSpec) -> str:
    import hashlib  # loaded here: only JSON reports carry a digest

    return "sha256:" + hashlib.sha256(emit_drawing(spec).encode("utf-8")).hexdigest()


def report_document(spec: DrawingSpec, sections: dict[str, Any], include_drawing: bool = True) -> dict:
    """Assemble a report: tool version, input digest, the drawing, then sections."""
    doc: dict[str, Any] = {"version": __version__, "input_digest": input_digest(spec)}
    if include_drawing:
        doc["drawing"] = spec.to_doc()
    for name, payload in sections.items():
        doc[name] = payload
    return doc


# json's own encoder: used for floats (NaN and the infinities by name) and to
# raise json's TypeError for a value it does not serialise.
_scalar = json.JSONEncoder().encode


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_value(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _value(o: Any, depth: int) -> str:
    """``o`` as ``json.dumps(o, indent=2)`` writes it at nesting ``depth``."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, (list, tuple)):
        deeper = depth + 1
        return _block([_quote(v) if type(v) is str else _value(v, deeper) for v in o], depth)
    if isinstance(o, dict):
        deeper = depth + 1
        return _block(
            [
                f"{_quote(k) if type(k) is str else _key(k)}: "
                f"{_quote(v) if type(v) is str else _value(v, deeper)}"
                for k, v in o.items()
            ],
            depth,
            "{}",
        )
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return _scalar(o)


def emit_report(doc: dict) -> str:
    """Report text: the bytes ``json.dumps(doc, indent=2) + "\\n"`` gives.

    Written by one recursive pass with string joins, which is about twice as
    fast as ``json``'s pure-Python indenting encoder; that call is the test
    oracle.  Documents are trees: a cycle exhausts the recursion limit.
    """
    return _value(doc, 0) + "\n"
