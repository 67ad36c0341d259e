"""The writers against ``json.dumps(..., indent=2)``, their oracle.

``emit_drawing`` is checked on drawings, ``emit_report`` on every JSON report
the golden corpus produces, the benchmark's largest report, and hypothesis
documents of every type ``json.dumps`` accepts.
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
    cli,
    emit_drawing,
    generate_optimal,
    input_digest,
    parse_text,
    report_document,
)
from crossing_ledger import interchange
from crossing_ledger.interchange import _quote as QUOTE, emit_report


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


def _agree_report(doc) -> str:
    text = emit_report(doc)
    assert text == json.dumps(doc, indent=2) + "\n"
    return text


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


# -- the report's drawing section --------------------------------------------------

ESCAPED_IDS = ('a"q', "b\\s", "c\nl", "d\tt", "eé☃\U0001f600")


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
    assert doc["drawing"] == spec.to_doc()
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

        monkeypatch.setattr(interchange, "_quote", counting)
        emit_report(report)
        monkeypatch.setattr(interchange, "_quote", QUOTE)
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
