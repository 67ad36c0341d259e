"""The writers against ``json.dumps(..., indent=2)``, their oracle.

``emit_drawing`` is checked on drawings, ``emit_report`` on every JSON report
the golden corpus produces, the ``analyze`` reports of the tight family and
of hypothesis drawings, the benchmark's largest report, and hypothesis
documents of every type ``json.dumps`` accepts.  A report may hold stage
records, which ``emit_report`` writes as their ``to_dict()``; the oracle
reads them through ``to_dict`` first.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _fixtures import spec_from
from golden.capture import replay
from test_golden import CASES, GOLDEN, _replay as golden_replay
from test_homotopy_oracle import FIXTURES, GOLDEN_INPUTS
from test_properties import random_drawings

from crossing_ledger import (
    DrawingSpec,
    build_map,
    cli,
    decompose,
    emit_drawing,
    extract_skeleton,
    face_profiles,
    generate_optimal,
    input_digest,
    parse_text,
    report_document,
)
from crossing_ledger import interchange, segments, skeleton
from crossing_ledger.drawing import FaceWalk, Violation
from crossing_ledger.interchange import _quote as QUOTE, emit_report
from crossing_ledger.segments import CrossedRef, FaceProfile, SegmentPiece
from crossing_ledger.skeleton import SkeletonDecomposition


def _agree(spec: DrawingSpec) -> str:
    text = emit_drawing(spec)
    assert text == json.dumps(spec.to_doc(), indent=2) + "\n"
    return text


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name, request):
    _agree(request.getfixturevalue(name))


@pytest.mark.parametrize("stem", list(GOLDEN_INPUTS))
def test_golden_input(stem):
    _agree(GOLDEN_INPUTS[stem].spec)


@pytest.mark.parametrize("n", range(6, 60, 2))
def test_tight_family(n):
    _agree(generate_optimal(n))


@settings(max_examples=100, deadline=None)
@given(random_drawings())
def test_random_straight_line_drawings(spec):
    _agree(spec)


def test_empty_containers():
    # An isolated vertex (empty rotation), an edge with an empty chain and no
    # crossings: each empty container is written as ``[]`` or ``{}``.
    spec = DrawingSpec.build(
        vertices=["a", "b", "z"],
        edges=[("e", "a", "b")],
        chains={"e": []},
        crossings={},
        rotations={"a": [("e", "+")], "b": [("e", "-")], "z": []},
    )
    text = _agree(spec)
    assert '"z": []' in text and '"crossings": {}' in text and '"e": []' in text


def test_ids_that_need_escaping():
    # Quotes, backslashes, control and non-ASCII characters, escaped as
    # ``json.dumps`` escapes them.
    a, b, c = 'a"q', "b\\s", "cé☃\U0001f600\t"
    edges = [("eï", a, b), ('f"', b, c), ("g\\", c, a)]
    spec = DrawingSpec.build(
        vertices=[a, b, c],
        edges=edges,
        chains={e: [] for e, _, _ in edges},
        crossings={},
        rotations={
            a: [("eï", "+"), ("g\\", "-")],
            b: [('f"', "+"), ("eï", "-")],
            c: [("g\\", "+"), ('f"', "-")],
        },
    )
    text = _agree(spec)
    assert text.isascii()
    assert parse_text(text) == spec


# -- emit_report against json.dumps(doc, indent=2) ------------------------------

JSON_CASES = [
    case_id
    for case_id, case in CASES.items()
    if "--format" in case["argv"] and case["argv"][case["argv"].index("--format") + 1] == "json"
]


def _plain(o):
    """``o`` with every record in it, the drawing section too, replaced by its
    ``to_dict()``."""
    if hasattr(o, "to_dict"):
        return o.to_dict()
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return o


def _agree_report(doc) -> str:
    text = emit_report(doc)
    assert text == json.dumps(_plain(doc), indent=2) + "\n"
    return text


def _analysis(spec: DrawingSpec) -> dict:
    """The report ``analyze --skeleton --segments --format json`` writes."""
    dec = extract_skeleton(build_map(spec), "exact")
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    section = {"pieces": pieces, "faces": profiles}
    return report_document(spec, {"skeleton": dec, "segments": section})


def _reports(argv: list[str], stdin: str, monkeypatch) -> list:
    """The documents the CLI hands to emit_report, as it builds them."""
    docs = []

    def keep(doc):
        docs.append(doc)
        return emit_report(doc)

    monkeypatch.setattr(cli, "emit_report", keep)
    replay(argv, stdin)
    return docs


@pytest.mark.parametrize("case_id", JSON_CASES)
def test_golden_report(case_id, monkeypatch):
    case = CASES[case_id]
    source = case["stdin"]
    if "case" in source:
        stdin = golden_replay(source["case"])[1]
    else:
        stdin = (GOLDEN / "inputs" / source["file"]).read_bytes().decode("utf-8")
    docs = _reports(case["argv"], stdin, monkeypatch)
    assert len(docs) == (1 if case["exit"] in (0, 2) else 0)
    for doc in docs:
        _agree_report(doc)


def test_render_report(monkeypatch):
    # The benchmark's render report: n=202, skeleton and segments, 1.7 MB.
    argv = ["analyze", "--skeleton", "--segments", "--format", "json", "-"]
    (doc,) = _reports(argv, emit_drawing(generate_optimal(202)), monkeypatch)
    assert len(_agree_report(doc)) > 1_000_000


@pytest.mark.parametrize("n", range(6, 60, 2))
def test_tight_family_analysis(n, monkeypatch):
    argv = ["analyze", "--skeleton", "--segments", "--format", "json", "-"]
    (doc,) = _reports(argv, emit_drawing(generate_optimal(n)), monkeypatch)
    _agree_report(doc)


@settings(max_examples=150, deadline=None)
@given(random_drawings())
def test_random_drawing_analysis(spec):
    # Faces of several walks, middle parts, oriented sticks and intra crossings.
    _agree_report(_analysis(spec))


def test_analysis_with_escaped_ids():
    text = _agree_report(_analysis(_escaped_spec()))
    assert text.isascii() and "%" in text


RECORDS = (SkeletonDecomposition, FaceWalk, SegmentPiece, CrossedRef, FaceProfile)


def test_analysis_builds_no_to_dict_tree(monkeypatch):
    # The skeleton, its faces, the pieces and the profiles write themselves.
    argv = ["analyze", "--skeleton", "--segments", "--format", "json", "-"]
    stdin = emit_drawing(generate_optimal(14))
    expected = replay(argv, stdin)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_dict called")

    for record in RECORDS:
        monkeypatch.setattr(record, "to_dict", refuse)
    assert replay(argv, stdin) == expected


def test_records_are_written_as_their_dicts():
    # A record without a writer of its own is written as its to_dict(), and
    # so is a piece outside its Pieces: never as the tuple it is.
    dec = extract_skeleton(build_map(generate_optimal(6)), "exact")
    pieces = decompose(dec)
    violation = Violation("k-planar", ("e", "f"), "too many crossings")
    sections = {"pieces": pieces[:1], "face": dec.faces[0], "violation": violation}
    doc = report_document(generate_optimal(6), sections, include_drawing=False)
    report = json.loads(_agree_report(doc))
    assert report["pieces"] == [pieces[0].to_dict()]
    assert "index" not in report["pieces"][0]
    assert report["face"] == dec.faces[0].to_dict()
    assert report["violation"] == violation.to_dict()


# -- the report's drawing section --------------------------------------------------

ESCAPED_IDS = ('a"q%s', "b\\s", "c\nl", "d\tt%%", "eé☃\U0001f600")


def _escaped_spec() -> DrawingSpec:
    """A square with both diagonals, crossing once; every vertex and edge id
    needs escaping, so the chains, crossings and rotations all hold them."""
    a, b, c, d, e = ESCAPED_IDS
    return spec_from(
        {a: (0, 0), b: (4, 0), c: (4, 4), d: (0, 4)},
        [(f"{a}|{b}", a, b), (f"{b}|{c}", b, c), (f"{c}|{d}", c, d), (f"{d}|{a}", d, a),
         (e, a, c), (f"{e}/", b, d)],
    )


@pytest.mark.parametrize("make", [_escaped_spec, lambda: generate_optimal(10)])
def test_drawing_section_is_the_spec_document(make):
    spec = make()
    doc = report_document(spec, {"analysis": {"ids": list(ESCAPED_IDS)}})
    assert doc["drawing"].to_dict() == spec.to_doc()
    assert list(doc) == ["version", "input_digest", "drawing", "analysis"]
    assert doc["input_digest"] == input_digest(spec)
    text = _agree_report(doc)
    assert text.isascii()


@pytest.mark.parametrize("depth", range(4))
def test_drawing_section_at_any_depth(depth):
    # Nested in lists and objects, the section is indented like any value.
    section = report_document(_escaped_spec(), {})["drawing"]
    doc = section
    for level in range(depth):
        doc = [doc, "x"] if level % 2 else {"k": doc, "z": [section]}
    _agree_report(doc)


def _add_vertex(drawing):
    drawing["vertices"].append("extra")


def _reverse_rotation(drawing):
    drawing["rotations"]["u"].reverse()


def _add_key(drawing):
    drawing["note"] = ["n"]


def _move_field(drawing):
    drawing["vertices"] = drawing.pop("vertices")


def _move_chain(drawing):
    chains = drawing["chains"]
    first = next(iter(chains))
    chains[first] = chains.pop(first)


def _chains_as_pairs(drawing):
    drawing["chains"] = list(drawing["chains"].items())


def _rows_as_tuples(drawing):
    # Written as the same arrays, so the report does not change.
    drawing["edges"] = [tuple(row) for row in drawing["edges"]]


@pytest.mark.parametrize(
    "edit",
    [_add_vertex, _reverse_rotation, _add_key, _move_field, _move_chain, _chains_as_pairs,
     _rows_as_tuples],
)
def test_edited_drawing_section_is_written_as_it_stands(edit):
    spec = generate_optimal(6)
    doc = report_document(spec, {})
    doc["drawing"] = doc["drawing"].to_dict()
    edit(doc["drawing"])
    text = _agree_report(doc)
    assert (text == emit_report(report_document(spec, {}))) == (edit is _rows_as_tuples)


def test_report_quotes_no_drawing_string(monkeypatch):
    # The drawing section is written from its text: emitting the report
    # quotes its key and nothing of the drawing itself.
    argv = ["analyze", "--skeleton", "--segments", "--format", "json", "-"]
    (doc,) = _reports(argv, emit_drawing(generate_optimal(54)), monkeypatch)
    bare = {k: v for k, v in doc.items() if k != "drawing"}
    counts = []
    for report in (doc, bare):
        quoted = []

        def counting(s, quoted=quoted):
            quoted.append(s)
            return QUOTE(s)

        # The records that write themselves quote through their own modules' name.
        for module in (interchange, skeleton, segments):
            monkeypatch.setattr(module, "_quote", counting)
        emit_report(report)
        for module in (interchange, skeleton, segments):
            monkeypatch.setattr(module, "_quote", QUOTE)
        counts.append(len(quoted))
    with_drawing, without = counts
    assert without > 1000
    assert with_drawing <= without + 1


SPECIAL_STRINGS = ['"', "\\", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600", "\ud800", "\udfff", ""]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1]

strings = st.one_of(
    st.sampled_from(SPECIAL_STRINGS), st.text(st.characters(blacklist_categories=()), max_size=6)
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, 10**40, -(10**40)]),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    strings,
)
keys = st.one_of(strings, st.none(), st.booleans(), st.integers(), st.floats())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_random_documents(doc):
    _agree_report(doc)


def _record_pool() -> list:
    """The drawing section, the skeleton, the pieces, the profiles and two
    crossing references, of two small drawings."""
    pool = []
    for spec in (generate_optimal(6), _escaped_spec()):
        dec = extract_skeleton(build_map(spec), "exact")
        pieces = decompose(dec)
        crossed = [ref for piece in pieces for ref in piece.crossed]
        pool += [report_document(spec, {})["drawing"], dec, pieces, face_profiles(dec, pieces)]
        pool += crossed[:2]
    return pool


RECORD_POOL = _record_pool()
records = st.sampled_from(RECORD_POOL)
trees = st.recursive(
    st.one_of(scalars, records),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.one_of(strings, records), max_size=4),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)


def test_record_pool_has_every_record_type():
    kinds = {type(o).__name__ for o in RECORD_POOL}
    assert kinds == {"_Drawing", "SkeletonDecomposition", "Pieces", "Profiles", "CrossedRef"}


@settings(max_examples=200, deadline=None)
@given(trees)
def test_random_trees_of_records(doc):
    # Records at random depths, in lists with strings and under keys of
    # every type json.dumps takes.
    _agree_report(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        (),
        {"a": [], "b": {}, "c": ()},
        [True, 1, False, 0, 1.0],
        {True: 1, None: 2, 1.5: 3, -0.0: 4, math.nan: 5, 10**40: 6},
        ("tuple", ("nested", []), {"k": ("v",)}),
        {"s": "".join(SPECIAL_STRINGS), "".join(SPECIAL_STRINGS): None},
    ],
    ids=repr,
)
def test_chosen_documents(doc):
    _agree_report(doc)


@pytest.mark.parametrize(
    "doc",
    [Fraction(1, 2), {1, 2}, {"k": [Fraction(1, 3)]}, [frozenset()], {(1, 2): "tuple key"}, b"x"],
    ids=repr,
)
def test_what_json_rejects_raises_type_error(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        emit_report(doc)
    assert str(got.value) == str(expected.value)
