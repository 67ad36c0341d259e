"""``DrawingSpec.build`` against the per-entry oracle in ``_build_oracle``.

Both must return the same spec, in the same order, or raise the same
exception type with the same rule and message.  The faces that a map builds
on first access must equal the eager trace in ``_build_oracle``, and every
table of a map those of the constructor kept there, or the map must be
refused with the same message.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _build_oracle as oracle
import _fixtures
from _geom import drawing_doc
from test_drawing import MALFORMED
from test_mutation_fuzz import mutated_documents

from crossing_ledger import (
    CrossingLedgerError,
    DrawingSpec,
    build_map,
    emit_drawing,
    generate_optimal,
)
from crossing_ledger.interchange import spec_from_document

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def _generator_arguments() -> list[tuple[str, dict]]:
    """The arguments ``generate_optimal`` passes to ``DrawingSpec.build``: the
    frame's, then the drawing's, with its tuple rows and the entry tuples
    that its vertex and crossing rotations share."""
    calls = []
    build = DrawingSpec.build

    def record(*args, **kwargs):
        calls.append(copy.deepcopy(dict(zip(FIELDS, args), **kwargs)))
        return build(*args, **kwargs)

    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DrawingSpec, "build", record)
        for n, strict in [(n, False) for n in (6, 8, 10, 12, 54, 100, 202)] + [
            (n, True) for n in (6, 10, 54, 202)
        ]:
            del calls[:]
            generate_optimal(n, strict)
            cases += [(f"n{n}{'-strict' if strict else ''}-{what}", kwargs)
                      for what, kwargs in zip(("frame", "drawing"), calls, strict=True)]
    return cases


GENERATOR_ARGUMENTS = _generator_arguments()


def test_generator_arguments_have_tuple_rows_and_shared_entries():
    kwargs = dict(GENERATOR_ARGUMENTS)["n54-drawing"]
    rotations = kwargs["rotations"]
    assert {type(row) for field in ("edges", "chains", "crossings", "rotations")
            for row in (kwargs[field] if field == "edges" else kwargs[field].values())} == {tuple}
    # Each end is one tuple, in the rotation at its vertex and at each crossing on its edge.
    entries = [entry for rot in rotations.values() for entry in rot]
    assert len({id(entry) for entry in entries}) == len(set(entries)) < len(entries)


@pytest.mark.parametrize("kwargs", [kw for _, kw in GENERATOR_ARGUMENTS],
                         ids=[name for name, _ in GENERATOR_ARGUMENTS])
def test_generator_arguments(kwargs):
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


def _golden_specs() -> dict:
    specs = {}
    for stem, doc in _golden_documents().items():
        try:
            specs[stem] = spec_from_document(doc)
        except CrossingLedgerError:
            continue  # refused before a spec exists
    return specs


GOLDEN_SPECS = _golden_specs()


def _golden_maps() -> dict:
    maps = {}
    for stem, spec in GOLDEN_SPECS.items():
        try:
            maps[stem] = build_map(spec)
        except CrossingLedgerError:
            continue  # refused before a map exists
    return maps


GOLDEN_MAPS = _golden_maps()


@pytest.mark.parametrize("pmap", list(GOLDEN_MAPS.values()), ids=list(GOLDEN_MAPS))
def test_faces_match_eager_trace(pmap):
    faces, place = oracle.trace_faces(pmap)
    # face_of_dart is asked before the records exist, and again after.
    assert [pmap.face_of_dart(d) for d in range(len(place))] == place
    assert pmap.faces == faces
    assert [pmap.face_of_dart(d) for d in range(len(place))] == place
    assert [f.face_id for f in pmap.faces] == [f"f{i}" for i in range(len(faces))]
    assert pmap.faces is pmap.faces


def _tables(make, spec) -> list | tuple:
    """Every table ``make(spec)`` builds, with the key order of each dict, or
    the exception it raises."""
    try:
        tables = make(spec)
    except CrossingLedgerError as exc:  # the exception is the outcome compared
        return (type(exc), str(exc))
    return [(name, tables[name], list(tables[name]) if isinstance(tables[name], dict) else None)
            for name in oracle.MAP_TABLES]


def _same_map(spec) -> None:
    assert _tables(lambda s: vars(build_map(s)), spec) == _tables(oracle.map_tables, spec)


@pytest.mark.parametrize("spec", list(GOLDEN_SPECS.values()), ids=list(GOLDEN_SPECS))
def test_map_tables_on_golden_input(spec):
    _same_map(spec)


@pytest.mark.parametrize("n", range(6, 803, 4))
def test_map_tables_on_tight_family(n):
    _same_map(generate_optimal(n))


@pytest.mark.parametrize("loops", [["a+", "b+", "a-", "b-"], ["a+", "a-", "b+", "b-"]],
                         ids=["torus", "sphere"])
@pytest.mark.parametrize("lone", [[], ["z"]], ids=["connected", "isolated-vertex"])
def test_map_tables_on_components(loops, lone):
    # A path u - w, and a vertex v with two self-loops: interleaved, they
    # embed v's component in the torus, and the message names component 1.
    _same_map(DrawingSpec.build(
        vertices=["u", "v", "w", *lone],
        edges=[("a", "v", "v"), ("b", "v", "v"), ("p", "u", "w")],
        rotations={"u": [("p", "+")], "v": [tuple(end) for end in loops], "w": [("p", "-")]},
    ))


def test_map_tables_on_geom_corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from corpus import build_corpus

    for text in build_corpus(1, drawing_doc):
        _same_map(spec_from_document(json.loads(text)))


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


def test_direction_of_too_many_digits():
    # str() refuses the direction, and so would repr(): the message leaves it out.
    kwargs = {"vertices": ["a", "b"], "edges": [("e", "a", "b")],
              "rotations": {"a": [("e", 10**5000)], "b": [("e", "-")]}}
    _agree(kwargs)
    with pytest.raises(CrossingLedgerError) as info:
        DrawingSpec.build(**kwargs)
    assert info.value.rule == "rotation-direction"
    assert "digits" in str(info.value)


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


@st.composite
def rule_edits(draw):
    """The n=10 tight drawing with a few edits of chains, crossing pairs and crossing rotations."""
    doc = copy.deepcopy(TIGHT)
    edges = sorted(doc["chains"])
    crossings = sorted(doc["crossings"])
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from(crossings))
        e = draw(st.sampled_from(edges))
        edit = draw(st.sampled_from(["add", "drop", "self", "permute", "permute", "permute"]))
        if edit == "add":
            chain = doc["chains"][e]
            chain.insert(draw(st.integers(0, len(chain))), c)
        elif edit == "drop":
            for chain in doc["chains"].values():
                if c in chain:
                    chain.remove(c)
                    break
        elif edit == "self":
            doc["crossings"][c] = [e, e]
        else:
            doc["rotations"][c] = draw(st.permutations(doc["rotations"][c]))
    return {k: doc[k] for k in FIELDS}


@settings(max_examples=150, deadline=None)
@given(rule_edits())
def test_rule_edits(kwargs):
    # The bulk rule checks accept what the per-entry checks accept, and
    # otherwise name the same first broken rule.
    _agree(kwargs)


@pytest.mark.parametrize("to", ["same-edge", "third-edge"])
def test_crossing_moved_to_another_chain(to):
    # Two chain entries per crossing in all still: a crossing taken off one
    # of its chains and put on its other edge's chain, or on a third edge's,
    # breaks crossing-degree all the same.
    doc = copy.deepcopy(TIGHT)
    c, (e, f) = next(iter(doc["crossings"].items()))
    doc["chains"][f].remove(c)
    g = e if to == "same-edge" else next(x for x in doc["chains"] if x not in (e, f))
    doc["chains"][g].append(c)
    kwargs = {k: doc[k] for k in FIELDS}
    _agree(kwargs)
    with pytest.raises(CrossingLedgerError) as info:
        DrawingSpec.build(**kwargs)
    assert info.value.rule == "crossing-degree"


def _rows(kwargs: dict) -> list:
    """The objects of the arguments down to the rotation entries: each field,
    each edge row, each row of a mapping, and each rotation entry."""
    edges, chains, crossings, rotations = (kwargs.get(k, {}) for k in FIELDS[1:])
    return [*(kwargs[k] for k in FIELDS if k in kwargs), *edges, *chains.values(),
            *crossings.values(), *rotations.values(),
            *(entry for rot in rotations.values() for entry in rot)]


PARSED_DOCUMENTS = [(stem, {k: doc[k] for k in FIELDS})
                    for stem, doc in _golden_documents().items()] + [
    ("n202", json.loads(emit_drawing(generate_optimal(202)))),
]


@pytest.mark.parametrize(
    "kwargs",
    [kw for _, kw in FIXTURE_ARGUMENTS + GENERATOR_ARGUMENTS + PARSED_DOCUMENTS],
    ids=[name for name, _ in FIXTURE_ARGUMENTS + GENERATOR_ARGUMENTS + PARSED_DOCUMENTS],
)
def test_build_leaves_its_arguments_unchanged(kwargs):
    kwargs = copy.deepcopy(kwargs)
    before, rows = repr(kwargs), _rows(kwargs)
    try:
        DrawingSpec.build(**kwargs)
    except CrossingLedgerError:
        pass  # a refused document is left unchanged too
    assert repr(kwargs) == before
    assert all(a is b for a, b in zip(_rows(kwargs), rows, strict=True))


class Name(str):
    """A str subclass, as a caller may pass for an id."""


@pytest.mark.parametrize("where", ["vertex", "edge", "crossing", "end", "chain", "pair",
                                   "entry", "direction", "rotation key"])
def test_an_id_of_a_str_subclass(where):
    # Defining ids of a subclass make every id go through str(); references
    # of a subclass resolve as the strs they equal.  Either way the spec is
    # the one of plain strs.
    doc = copy.deepcopy(TIGHT)
    c, (e, f) = next(iter(doc["crossings"].items()))
    v = doc["edges"][0][1]
    if where == "vertex":
        doc["vertices"] = [Name(x) if x == v else x for x in doc["vertices"]]
    elif where == "edge":
        doc["edges"] = [[Name(row[0]), *row[1:]] if row[0] == e else row for row in doc["edges"]]
    elif where == "crossing":
        doc["crossings"] = {Name(k) if k == c else k: p for k, p in doc["crossings"].items()}
    elif where == "end":
        doc["edges"][0][1] = Name(v)
    elif where == "chain":
        doc["chains"][e] = [Name(x) for x in doc["chains"][e]]
    elif where == "pair":
        doc["crossings"][c] = [Name(e), f]
    elif where == "entry":
        entry = doc["rotations"][c][0]
        entry[0] = Name(entry[0])
    elif where == "direction":
        entry = doc["rotations"][c][0]
        entry[1] = Name(entry[1])
    else:
        doc["rotations"] = {Name(k) if k == c else k: r for k, r in doc["rotations"].items()}
    kwargs = {k: doc[k] for k in FIELDS}
    _agree(kwargs)
    assert DrawingSpec.build(**kwargs) == DrawingSpec.build(**{k: TIGHT[k] for k in FIELDS})


@pytest.mark.parametrize("old", ["a0", "F0.1", "G0.3", "G0.x1", "G0.x10"])
@pytest.mark.parametrize("new, refused", [("\ud800", True), ("x\udfff", True),
                                          ("é", False), ("\U0001f600", False)],
                         ids=["high", "low", "latin", "astral"])
def test_ids_that_utf8_cannot_encode(old, new, refused):
    # A lone surrogate is refused as id-encoding wherever the id is defined;
    # other text outside ASCII is an id as any other.
    kwargs = json.loads(json.dumps({k: TIGHT[k] for k in FIELDS}).replace(
        json.dumps(old), json.dumps(new)))
    _agree(kwargs)
    if refused:
        with pytest.raises(CrossingLedgerError) as info:
            DrawingSpec.build(**kwargs)
        assert info.value.rule == "id-encoding"
    else:
        DrawingSpec.build(**kwargs)
