"""``DrawingSpec.build`` against the per-entry oracle in ``_build_oracle``.

Both must return the same spec, in the same order, or raise the same
exception type with the same rule and message.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _build_oracle as oracle
import _fixtures
from test_drawing import MALFORMED
from test_mutation_fuzz import mutated_documents

from crossing_ledger import DrawingSpec, emit_drawing, generate_optimal

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
FIELDS = ("vertices", "edges", "chains", "crossings", "rotations")


def _outcome(build, kwargs: dict):
    try:
        spec = build(**copy.deepcopy(kwargs))
    except Exception as exc:  # the exception is the outcome compared
        return (type(exc), getattr(exc, "rule", None), str(exc))
    # repr shows the order of every dict, which == does not compare.
    return repr(spec)


def _agree(kwargs: dict) -> None:
    assert _outcome(DrawingSpec.build, kwargs) == _outcome(oracle.build, kwargs)


def _fixture_arguments() -> list[tuple[str, dict]]:
    """The arguments each ``_fixtures`` builder passes to ``DrawingSpec.build``."""
    calls = []
    build = DrawingSpec.build

    def record(**kwargs):
        calls.append(copy.deepcopy(kwargs))
        return build(**kwargs)

    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DrawingSpec, "build", record)
        for name in sorted(n for n in dir(_fixtures) if n.endswith("_spec")):
            del calls[:]
            getattr(_fixtures, name)()
            cases += [(name, kwargs) for kwargs in calls]
    return cases


FIXTURE_ARGUMENTS = _fixture_arguments()


@pytest.mark.parametrize("kwargs", [kw for _, kw in FIXTURE_ARGUMENTS],
                         ids=[name for name, _ in FIXTURE_ARGUMENTS])
def test_fixture(kwargs):
    _agree(kwargs)


@pytest.mark.parametrize("kwargs, rule", MALFORMED)
def test_malformed(kwargs, rule):
    _agree(kwargs)


def _golden_documents() -> dict[str, dict]:
    docs = {}
    for path in sorted(GOLDEN_INPUTS.glob("*.json")):
        try:
            docs[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue  # refused before build
    return docs


@pytest.mark.parametrize("doc", list(_golden_documents().values()), ids=list(_golden_documents()))
def test_golden_input(doc):
    _agree({k: doc[k] for k in FIELDS})


def test_mutated_documents():
    for seed, text in mutated_documents():
        doc = json.loads(text)
        _agree({k: doc[k] for k in FIELDS})


# A path u - v - w of edges e and f: the rotation at v holds both ends.
PATH = {"vertices": ["u", "v", "w"], "edges": [("e", "u", "v"), ("f", "v", "w")]}
PATH_ENDS = {"u": [("e", "+")], "w": [("f", "-")]}


@pytest.mark.parametrize(
    "rotation",
    [
        # Two bad directions at one node: the first in the anchored order is
        # named, and the two sort in the other order as plain tuples.
        [("e", "~"), ("e", "!")],
        [("f", "?"), ("e", "~"), ("e", "!")],
        # A bad direction and an unknown edge: the entry met first in the
        # anchored order decides the rule.
        [("e", "?"), ("zz", "+")],
        [("zz", "+"), ("e", "?")],
        [("f", "+"), ("zz", "?"), ("e", "-")],
        # Bad entries before and after the rotation's minimum.
        [("g", "?"), ("e", "-"), ("f", "?")],
        [("f", "x"), ("e", "-"), ("zz", "+")],
        # An unknown direction sorts after "-", whatever its characters.
        [("e", "-"), ("e", "*")],
        [("e", "*"), ("e", "-")],
        [("e", "+"), ("e", ",")],
        [],
    ],
    ids=repr,
)
def test_first_bad_rotation_entry(rotation):
    _agree({**PATH, "rotations": {**PATH_ENDS, "v": rotation}})


def test_integer_ids_and_directions():
    # Integer ids are converted; a direction is converted with str() too,
    # and a non-string direction is refused with its converted text.
    base = {"vertices": [1, 2], "edges": [(3, 1, 2)]}
    _agree({**base, "rotations": {1: [(3, "+")], 2: [(3, "-")]}})
    _agree({**base, "rotations": {1: [(3, "+")], 2: [(3, -1)]}})
    _agree({**base, "rotations": {1: [("3", "+")], "2": [(3, "-")]}})


TIGHT = json.loads(emit_drawing(generate_optimal(10)))


@st.composite
def edited_documents(draw):
    """The n=10 tight drawing with a few edits of ids, directions and order."""
    doc = copy.deepcopy(TIGHT)
    nodes = sorted(doc["rotations"])
    for _ in range(draw(st.integers(0, 4))):
        node = draw(st.sampled_from(nodes))
        rot = doc["rotations"][node]
        if not rot:
            continue
        i = draw(st.integers(0, len(rot) - 1))
        edit = draw(st.sampled_from(["turn", "direction", "edge", "drop", "int-key"]))
        if edit == "turn":
            doc["rotations"][node] = rot[i:] + rot[:i]
        elif edit == "direction":
            rot[i] = [rot[i][0], draw(st.sampled_from(["+", "-", "?", "", "+-", " +", 1]))]
        elif edit == "edge":
            rot[i] = [draw(st.sampled_from(["zz", "", *(e for e, _, _ in doc["edges"])])),
                      rot[i][1]]
        elif edit == "drop":
            rot.pop(i)
        else:
            doc["chains"] = {7: [], **doc["chains"], "7": ["x"]}
    return {k: doc[k] for k in FIELDS}


@settings(max_examples=150, deadline=None)
@given(edited_documents())
def test_edited_documents(kwargs):
    _agree(kwargs)
