"""Every public function, given arguments of the right type but out of range,
returns or raises a ``CrossingLedgerError``; never a raw Python exception.

Out of range means: crossing budgets at or below zero and very large ones,
unknown skeleton modes and figure formats, face hints that name no face,
search budgets at or below zero, unknown or empty edge subsets, vertex
counts the construction cannot realise, and malformed documents and files
(ids that are neither strings nor integers, rows of the wrong length, bytes
that are not UTF-8, arrays nested deeper than the JSON decoder recurses).
Three kinds of argument must be refused with ``BadArgument``: face profiles
built or audited with pieces or profiles that another stage call returned,
dart numbers that name no dart of the map or its skeleton: negative ones,
those past the last dart, and ``(edge, seg, direction)`` tuples, the darts'
form before they became ints; and a segment index given to ``dart`` that
is not an int (a bool is not).  A vertex count given to the generator or
to ``k_bound``, and a budget given to ``k_bound``, that is a float, a
string, ``None`` or a bool is refused with the typed error its range check
raises.  Other arguments of a wrong Python type are out of scope.
The examples are derandomised and few, so the module runs in seconds.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _fixtures
from test_properties import random_drawings

from crossing_ledger import (
    CrossingLedgerError,
    DrawingSpec,
    build_map,
    check_homotopy,
    check_k_planar,
    check_sanity,
    decompose,
    density_report,
    emit_drawing,
    export_figure,
    extract_skeleton,
    face_profiles,
    generate_optimal,
    input_digest,
    k_bound,
    parse_drawing,
    parse_text,
    report_document,
    restrict,
    validate_drawing,
)
from crossing_ledger.errors import BadArgument, BadN, InvariantError
from crossing_ledger.generator import chords_interleave, hexagon_gadget, theta_frame
from crossing_ledger.skeleton import conflict_graph, decompose_with

ADVERSARIAL = settings(max_examples=40, deadline=None, derandomize=True, database=None)

FIXTURES = [getattr(_fixtures, name) for name in dir(_fixtures) if name.endswith("_spec")]

specs = st.one_of(st.sampled_from(FIXTURES).map(lambda make: make()), random_drawings())
budgets_k = st.one_of(st.integers(-3, 6), st.integers(10**6, 10**12))
words = st.text("abcxyz+-#.0", max_size=4)

# Values a JSON document can hold, to put where an id or a row belongs.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | words,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(words, inner, max_size=2),
    max_leaves=5,
)
ids = st.one_of(words, st.integers(-2, 2), json_values)


def returns_or_typed(call, *args):
    """Call; a ``CrossingLedgerError`` is an answer, any other exception fails."""
    try:
        call(*args)
    except CrossingLedgerError:
        pass


@ADVERSARIAL
@given(
    spec=specs,
    k=budgets_k,
    mode=st.one_of(st.sampled_from(["exact", "greedy"]), words),
    budget=st.integers(-2, 30),
    data=st.data(),
)
def test_map_and_skeleton_functions(spec, k, mode, budget, data):
    pmap = build_map(spec)
    edges = list(pmap.edge_ids)
    keep = data.draw(st.lists(st.one_of(st.sampled_from(edges), words), max_size=len(edges)))
    fmt = data.draw(st.one_of(st.sampled_from(["dot", "svg"]), words))
    face_ids = [f.face_id for f in pmap.faces]
    hint = data.draw(st.one_of(st.none(), st.sampled_from(face_ids), words))

    for check in (check_sanity, check_homotopy, conflict_graph):
        check(pmap)
    returns_or_typed(check_k_planar, pmap, k)
    returns_or_typed(validate_drawing, pmap, k)
    for subset in (keep, []):
        returns_or_typed(restrict, pmap, subset)
        returns_or_typed(decompose_with, pmap, subset)
    returns_or_typed(extract_skeleton, pmap, mode, budget)
    returns_or_typed(export_figure, pmap, fmt, hint)
    for face in pmap.faces:
        anchor = data.draw(st.one_of(st.none(), st.sampled_from(face.nodes), words))
        returns_or_typed(hexagon_gadget, face, anchor, data.draw(words))
    emit_drawing(spec)
    report_document(spec, {}, include_drawing=data.draw(st.booleans()))
    input_digest(spec)


DART_QUERIES = (
    "head",
    "tail",
    "next_dart",
    "prev_dart",
    "rotation_index",
    "face_of_dart",
    "face_index_of_dart",
    "describe",
)
SKELETON_DART_QUERIES = ("face_of_dart", "host_of_dart")


@ADVERSARIAL
@given(spec=specs, data=st.data())
def test_dart_queries_refuse_what_is_no_dart(spec, data):
    pmap = build_map(spec)
    darts = 2 * pmap.segment_count()
    below = data.draw(st.integers(-2 * darts - 3, -1))
    beyond = data.draw(st.integers(darts, 2 * darts + 3))
    named = pmap.describe(data.draw(st.integers(0, darts - 1)))
    dec = extract_skeleton(pmap, "greedy")
    calls = [getattr(pmap, query) for query in DART_QUERIES]
    calls += [getattr(dec, query) for query in SKELETON_DART_QUERIES]
    for call in calls:
        for d in (below, beyond):
            with pytest.raises(BadArgument, match=f"no dart {d}"):
                call(d)
        with pytest.raises(BadArgument, match=r"dart\(edge, seg, direction\).*describe"):
            call(named)
        call(pmap.dart(*named))


@ADVERSARIAL
@given(spec=specs, seg=st.one_of(st.floats(), words, st.none(), st.booleans(), st.lists(words)))
def test_dart_refuses_a_segment_index_that_is_not_an_int(spec, seg):
    pmap = build_map(spec)
    for edge in pmap.edge_ids[:1]:
        with pytest.raises(BadArgument, match=re.escape(f"no dart {(edge, seg, 1)}")):
            pmap.dart(edge, seg, 1)


@ADVERSARIAL
@given(spec=specs, direction=st.one_of(
    st.sampled_from([True, False, 1.0, -1.0, "+", None]), st.floats(), words
))
def test_dart_refuses_a_direction_that_is_not_an_int(spec, direction):
    # A bool or float equal to +1 or -1 is refused too, as for ``seg``.
    pmap = build_map(spec)
    for edge in pmap.edge_ids[:1]:
        with pytest.raises(BadArgument, match=re.escape(f"no dart {(edge, 0, direction)}")):
            pmap.dart(edge, 0, direction)


ID_QUERIES = ("endpoints", "chain", "node_sequence", "crossing_edges", "rotation", "component_of")


@ADVERSARIAL
@given(spec=specs, name=st.one_of(words, st.integers(-2, 2), st.none(), st.lists(words)))
def test_id_queries_refuse_an_id_the_map_lacks(spec, name):
    pmap = build_map(spec)
    if isinstance(name, str) and name in {*pmap.vertices, *pmap.crossing_ids, *pmap.edge_ids}:
        return
    calls = [getattr(pmap, query) for query in ID_QUERIES] + [lambda e: pmap.dart(e, 0, 1)]
    for call in calls:
        with pytest.raises(BadArgument, match=re.escape(f" {name!r}")):
            call(name)


def _pieces_of(spec) -> tuple:
    """The pieces of ``spec``'s default skeleton, or none if it has no skeleton."""
    try:
        return decompose(extract_skeleton(build_map(spec)))
    except CrossingLedgerError:
        return ()


@ADVERSARIAL
@given(spec=specs, k=budgets_k, data=st.data())
def test_audit_functions(spec, k, data):
    pmap = build_map(spec)
    try:
        dec = extract_skeleton(pmap)
    except CrossingLedgerError:
        return
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    returns_or_typed(density_report, dec, profiles, pieces, k)
    returns_or_typed(k_bound, len(pmap.vertices), k)
    for cap in (3, 4):  # the stick cap of a triangle is the crossing budget
        try:
            report = density_report(dec, profiles, pieces, cap)
        except CrossingLedgerError:
            continue
        over = sorted(p.face for p in profiles if p.is_triangle and p.stick_count > cap)
        assert report.stick_cap_violations == tuple(over)

    # Pieces that are not this decomposition's own: a subset, a copy, or
    # another drawing's; and profiles made from another piece tuple.
    subsets = st.lists(st.sampled_from(pieces), max_size=len(pieces)) if pieces else st.just([])
    others = data.draw(st.one_of(subsets, st.just(list(pieces)), specs.map(_pieces_of)))
    with pytest.raises(BadArgument, match=r"pieces must be what decompose\(dec\) returned"):
        face_profiles(dec, others)
    with pytest.raises(BadArgument, match=r"pieces must be what decompose\(dec\) returned"):
        density_report(dec, profiles, others, 3)
    with pytest.raises(BadArgument, match=r"profiles must be what face_profiles\(dec, pieces\)"):
        density_report(dec, face_profiles(dec, decompose(dec)), pieces, 3)


# Counts and budgets of a wrong Python type: each is refused with a typed error.
not_ints = st.one_of(
    st.floats(), st.sampled_from(["202", "6", "3"]), words, st.none(), st.booleans()
)


@ADVERSARIAL
@given(
    n=st.one_of(st.integers(-8, 40), not_ints),
    k=st.one_of(budgets_k, not_ints),
    strict=st.booleans(),
    ends=st.lists(st.integers(-8, 14), min_size=4, max_size=4),
)
def test_generator_and_bound_functions(n, k, strict, ends):
    for make in (theta_frame, generate_optimal):
        returns_or_typed(make, n, strict)
    returns_or_typed(k_bound, n, k)
    chords_interleave(*ends)


@pytest.mark.parametrize("value", [202.0, 6.0, "202", None, True, False])
def test_a_vertex_count_or_budget_that_is_not_an_int_is_refused(value):
    for make in (theta_frame, generate_optimal):
        with pytest.raises(BadN, match="must be an even integer"):
            make(value)
    with pytest.raises(InvariantError, match="bound-vertex-count"):
        k_bound(value, 3)
    with pytest.raises(BadArgument, match="k must be a positive integer"):
        k_bound(202, value)


@ADVERSARIAL
@given(
    vertices=st.lists(ids, max_size=4),
    edges=st.lists(st.lists(ids, max_size=4), max_size=3),
    chains=st.dictionaries(words, st.lists(ids, max_size=3), max_size=2),
    crossings=st.dictionaries(words, st.lists(ids, max_size=3), max_size=2),
    rotations=st.dictionaries(
        words, st.lists(st.lists(st.one_of(ids, st.sampled_from("+-")), max_size=3), max_size=3),
        max_size=3,
    ),
)
def test_malformed_documents(vertices, edges, chains, crossings, rotations):
    doc = {
        "vertices": vertices,
        "edges": edges,
        "chains": chains,
        "crossings": crossings,
        "rotations": rotations,
    }
    returns_or_typed(DrawingSpec.build, vertices, edges, chains, crossings, rotations)
    returns_or_typed(parse_text, json.dumps(doc))


@ADVERSARIAL
@given(
    spec=st.sampled_from(FIXTURES).map(lambda make: make()),
    field=st.sampled_from(["vertices", "edges", "chains", "crossings", "rotations"]),
    value=json_values,
    cut=st.integers(0, 400),
)
def test_corrupted_document_text(spec, field, value, cut):
    doc = spec.to_doc()
    doc[field] = value
    text = json.dumps(doc)
    returns_or_typed(parse_text, text)
    returns_or_typed(parse_text, emit_drawing(spec)[:cut])


@ADVERSARIAL
@given(
    depth=st.one_of(st.integers(1, 2000), st.just(100_000)),
    brackets=st.sampled_from([("[", "]"), ('{"a": ', "}")]),
)
def test_deeply_nested_documents(depth, brackets):
    opening, closing = brackets
    text = opening * depth + "0" + closing * depth
    returns_or_typed(parse_text, text)
    # The same nesting as the one edge row of an otherwise valid document.
    doc = {"vertices": ["a"], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}
    returns_or_typed(parse_text, json.dumps(doc).replace("[]", "[" + text + "]"))


@ADVERSARIAL
@given(prefix=st.sampled_from([b"", b"\xd0\xff", b"\xef\xbb\xbf", b"\xff\xfe"]),
       body=st.binary(max_size=12))
def test_malformed_files(prefix, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawing.json"
        path.write_bytes(prefix + body)
        returns_or_typed(parse_drawing, path)
        returns_or_typed(parse_drawing, str(path))
        returns_or_typed(parse_drawing, tmp)
        returns_or_typed(parse_drawing, Path(tmp) / "absent.json")
