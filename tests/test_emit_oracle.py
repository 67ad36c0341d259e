"""``emit_drawing`` against ``json.dumps(spec.to_doc(), indent=2)``, its oracle."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from test_homotopy_oracle import FIXTURES, GOLDEN_INPUTS
from test_properties import random_drawings

from crossing_ledger import DrawingSpec, emit_drawing, generate_optimal, parse_text


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
