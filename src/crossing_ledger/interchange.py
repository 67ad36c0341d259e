"""Reading and writing the interchange document and report documents.

The interchange document is UTF-8 JSON whose top-level keys mirror the
drawing description, in this order: ``vertices``, ``edges``, ``chains``,
``crossings``, ``rotations``.  Rotation lists are cyclic; the first element
is the canonical anchor, and the emitter always anchors at the smallest
entry, so emitting is byte-stable and emit-then-parse is the identity on
canonical specs.

:func:`emit_drawing` writes that text directly from the spec's tuples, in
exactly the bytes ``json.dumps(spec.to_doc(), indent=2) + "\n"`` gives.
:func:`emit_report` writes a report in the bytes ``json.dumps(doc, indent=2)
+ "\n"`` gives once every stage record in it is replaced by its
``to_dict()``.  One recursive writer (``_write``) appends the text's parts
to one list, which is joined once.  The records of ``analyze`` (the
skeleton with its faces, a piece, a face profile) write themselves: their
``_json`` methods fill one ``%`` template per key tuple and depth
(``_TEMPLATE``) from their fields, and build no dict.  Any other record with
a ``to_dict`` is written as that dict.  All of them quote strings with
``json``'s own ASCII encoder and lay out blocks with string joins;
``tests/test_emit_oracle.py`` keeps the ``to_dict`` and ``json.dumps`` calls
as their oracles.

A report's ``drawing`` section is a record too: its ``to_dict()`` is
``spec.to_doc()``, and it writes :func:`emit_drawing`'s text, the text that
``input_digest`` hashes, indented one level per depth: every line after the
first gets two more spaces.  That is exact because nesting under
``indent=2`` only adds leading spaces to each line, and the ASCII encoder
writes a newline inside a string as ``\n``, so every newline of the text
ends a line of the layout.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .drawing import DrawingSpec
from .errors import ParseError

_FIELDS = ("vertices", "edges", "chains", "crossings", "rotations")


def spec_from_document(doc: Any) -> DrawingSpec:
    """Check the document's shape and build the canonical spec from it.

    A root that is not an object, a missing field, and an empty vertex list
    raise :class:`ParseError`; :meth:`DrawingSpec.build` checks the fields'
    types, the rows, the ids and the drawing rules.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    missing = [k for k in _FIELDS if k not in doc]
    if missing:
        raise ParseError(f"missing field(s): {missing}")
    if doc["vertices"] == []:
        raise ParseError("field 'vertices' must be a non-empty list")

    return DrawingSpec.build(
        vertices=doc["vertices"],
        edges=doc["edges"],
        chains=doc["chains"],
        crossings=doc["crossings"],
        rotations=doc["rotations"],
    )


def _place(doc: Any, target: dict) -> str | None:
    """Where the object ``target`` sits in ``doc``, as the keys and indices
    that lead to it; None if it is not there (a repeated key dropped it)."""
    stack = [(doc, "")]
    while stack:
        node, path = stack.pop()
        if node is target:
            return f"the object at {path}" if path else "the document root"
        if isinstance(node, dict):
            stack += [(v, f"{path}[{json.dumps(k)}]") for k, v in node.items()]
        elif isinstance(node, list):
            stack += [(v, f"{path}[{i}]") for i, v in enumerate(node)]
    return None


def parse_text(text: str) -> DrawingSpec:
    """Parse an interchange document and build its spec.

    Raises :class:`ParseError` for text that is not JSON, and for an object
    that names one key twice, which ``json`` would read as its last value;
    otherwise as :func:`spec_from_document`.
    """
    repeats: list[tuple[dict, str]] = []  # each object that repeats a key, with the key

    def unique(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    repeats.append((obj, key))
                    break
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except TypeError as exc:  # json reads only str, bytes and bytearray
        raise ParseError(f"a document is text or bytes; got {type(text).__name__}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # bytes in none of the encodings JSON allows
        raise ParseError(f"cannot decode the document: {exc}") from exc
    except ValueError as exc:  # int() refuses a number of too many digits
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"a number in the document has more than {limit} digits") from exc
    except RecursionError as exc:  # json's decoder recurses once per nested array or object
        raise ParseError("document nests too deeply to parse") from exc
    for obj, key in repeats:
        where = _place(doc, obj)
        if where is not None:
            raise ParseError(f"{where} repeats the key {json.dumps(key)}")
    return spec_from_document(doc)


def parse_drawing(path: str | Path) -> DrawingSpec:
    """Load an interchange file.

    Raises :class:`ParseError` for a path of the wrong type, an unreadable
    file or a malformed document, and a typed :class:`InvariantError` naming
    the rule for a drawing that breaks one (see :meth:`DrawingSpec.build`).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except TypeError as exc:  # neither a str nor an os.PathLike
        raise ParseError(f"a path is a str or os.PathLike; got {path!r}") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
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
    """A JSON array (or, with ``"{}"``, object) of encoded items at ``depth``.

    ``items`` is used up: its first and last entries take the brackets, so
    the block is copied once, by the join, and not again next to its items.
    """
    if not items:
        return brackets
    opening, separator, closing = _LAYOUT[depth]
    items[0] = brackets[0] + opening + items[0]
    items[-1] += closing + brackets[1]
    return separator.join(items)


def _strings(values: Sequence[str], depth: int) -> str:
    """A JSON array of the strings ``values`` at ``depth``: :func:`_block`'s
    bytes in one join, as most such arrays are short and many are empty."""
    if not values:
        return "[]"
    opening, separator, closing = _LAYOUT[depth]
    return f"[{opening}{separator.join(map(_quote, values))}{closing}]"


def _ints(values: Sequence[int], depth: int) -> str:
    return _block(list(map(str, values)), depth)


def _null(s: str | None) -> str:
    return "null" if s is None else _quote(s)


class _Templates(dict):
    """(keys, depth, walks) -> the ``%`` template of a record's object at ``depth``.

    The stage records that write themselves (their ``_json`` methods) fill it
    with one encoded value per key, in the order of their ``_keys``; no key
    holds a ``%``.  With ``walks`` False the ``walks`` key is left out, as
    ``to_dict`` leaves it out on a face of one walk.
    """

    def __missing__(self, key: tuple[tuple[str, ...], int, bool]) -> str:
        keys, depth, walks = key
        fields = [f"{_quote(k)}: %s" for k in keys if walks or k != "walks"]
        template = self[key] = _block(fields, depth, "{}")
        return template


_TEMPLATE = _Templates()


def emit_drawing(spec: DrawingSpec) -> str:
    """Canonical interchange text for a spec (documented key order, 2-space indent).

    Written field by field from the spec's tuples, with ``json``'s own ASCII
    string encoder, in the bytes ``json.dumps(spec.to_doc(), indent=2)``
    gives; that call is the test oracle.
    """
    # Rows of fixed length, and rotation entries, are written by one f-string
    # each.  A rotation is an array at depth 2 of [edge, direction] arrays at
    # depth 3, written in one join: ``between`` closes one entry and opens
    # the next.
    (open2, sep2, close2), (open3, sep3, close3) = _LAYOUT[2], _LAYOUT[3]
    between = f"{close3}]{sep2}[{open3}"
    fields = (
        _strings(spec.vertices, 1),
        _block([f"[{open2}{_quote(e)}{sep2}{_quote(a)}{sep2}{_quote(b)}{close2}]"
                for e, a, b in spec.edges], 1),
        _block([f"{_quote(e)}: {_strings(cs, 2)}" for e, cs in spec.chains.items()], 1, "{}"),
        _block([f"{_quote(c)}: [{open2}{_quote(e)}{sep2}{_quote(f)}{close2}]"
                for c, (e, f) in spec.crossings.items()], 1, "{}"),
        _block(
            [
                f"{_quote(node)}: [{open2}[{open3}"
                f"{between.join([f'{_quote(e)}{sep3}{_quote(d)}' for e, d in rot])}"
                f"{close3}]{close2}]" if rot else f"{_quote(node)}: []"
                for node, rot in spec.rotations.items()
            ],
            1,
            "{}",
        ),
    )
    # The fields are joined once, into the text itself: the text is the
    # largest string a call makes, and is not copied again.
    opening, separator, closing = _LAYOUT[0]
    parts = ["{" + opening]
    for k, v in zip(_FIELDS, fields):
        parts += (_quote(k), ": ", v, separator)
    parts[-1] = closing + "}\n"
    return "".join(parts)


def _digest(text: str) -> str:
    import hashlib  # loaded here: only JSON reports carry a digest

    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(spec: DrawingSpec) -> str:
    return _digest(emit_drawing(spec))


class _Drawing:
    """A report's ``drawing`` section: the spec and its interchange ``text``."""

    __slots__ = ("spec", "text")

    def __init__(self, spec: DrawingSpec, text: str):
        self.spec = spec
        self.text = text

    def to_dict(self) -> dict:
        return self.spec.to_doc()

    def _json(self, depth: int) -> str:
        # The canonical text, one level deeper per ``depth``: indenting only
        # adds leading spaces, and no quoted string holds a newline.
        return self.text[:-1].replace("\n", "\n" + "  " * depth)


def report_document(spec: DrawingSpec, sections: dict[str, Any], include_drawing: bool = True) -> dict:
    """Assemble a report: tool version, input digest, the drawing, then sections.

    The ``drawing`` section is a record like the other sections: its
    ``to_dict()`` is ``spec.to_doc()``, and :func:`emit_report` writes it
    from the text that the digest hashes.  To edit the section, replace it
    with that dict (``doc["drawing"] = doc["drawing"].to_dict()``) and edit
    the dict, which is written as it stands.
    """
    if not include_drawing:
        return {"version": __version__, "input_digest": input_digest(spec), **sections}
    drawing = _Drawing(spec, emit_drawing(spec))
    return {
        "version": __version__,
        "input_digest": _digest(drawing.text),
        "drawing": drawing,
        **sections,
    }


# json's own encoder: used for floats (NaN and the infinities by name) and to
# raise json's TypeError for a value it does not serialise.
_scalar = json.JSONEncoder().encode


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_text(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(o: Any, depth: int, out: list[str]) -> None:
    """Append to ``out`` the text of ``o`` as ``json.dumps(o, indent=2)`` writes
    it at nesting ``depth``, each record in it replaced by its ``to_dict()``."""
    if isinstance(o, str):
        out.append(_quote(o))
        return
    writer = _WRITERS[type(o)]
    if writer is not None:
        out.append(writer(o, depth))
    elif isinstance(o, (list, tuple)):
        if {str}.issuperset(map(type, o)):
            out.append(_strings(o, depth))
            return
        opening, separator, closing = _LAYOUT[depth]
        lead = "[" + opening
        for v in o:
            out.append(lead)
            _write(v, depth + 1, out)
            lead = separator
        out.append(closing + "]")
    elif isinstance(o, dict):
        opening, separator, closing = _LAYOUT[depth]
        lead = "{" + opening
        for k, v in o.items():
            k = _quote(k) if type(k) is str else _key(k)
            if type(v) is str:
                out.append(f"{lead}{k}: {_quote(v)}")
            else:
                out.append(f"{lead}{k}: ")
                _write(v, depth + 1, out)
            lead = separator
        out.append(closing + "}" if o else "{}")
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        out.append(_scalar(o))


def _text(o: Any, depth: int) -> str:
    out: list[str] = []
    _write(o, depth, out)
    return "".join(out)


def _as_dict(o: Any, depth: int) -> str:
    return _text(o.to_dict(), depth)


class _Writers(dict):
    """Type -> the function that writes its values, or None for JSON's own types.

    A type with a ``_json(depth)`` method writes itself: the drawing section
    and the bulk records of ``analyze``.  Any other type with a ``to_dict``
    is written as that dict.  Each type's writer is found on first use.
    """

    def __missing__(self, cls: type):
        writer = getattr(cls, "_json", None)
        if writer is None and hasattr(cls, "to_dict"):
            writer = _as_dict
        self[cls] = writer
        return writer


_WRITERS = _Writers()


def emit_report(doc: dict) -> str:
    """Report text: the bytes ``json.dumps(doc, indent=2) + "\\n"`` gives, with
    every stage record in ``doc`` written as its ``to_dict()``.

    One recursive pass appends the text's parts to one list, joined once, so
    no section is copied into the blocks around it.  That is about twice as
    fast as ``json``'s pure-Python indenting encoder, and the bulk records of
    ``analyze`` are written from their fields without building their dicts;
    those calls are the test oracle.  Documents are trees: a cycle exhausts
    the recursion limit.
    """
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)
