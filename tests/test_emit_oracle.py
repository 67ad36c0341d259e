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

from golden.capture import replay
from test_golden import CASES, GOLDEN, _replay as golden_replay
from test_homotopy_oracle import FIXTURES, GOLDEN_INPUTS
from test_properties import random_drawings

from crossing_ledger import DrawingSpec, cli, emit_drawing, generate_optimal, parse_text
from crossing_ledger.interchange import emit_report


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
