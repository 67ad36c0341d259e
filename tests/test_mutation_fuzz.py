"""Seeded mutations of generated drawings never escape the CLI's error handling.

Every mutated document must end in a report (exit 0 or 2) or a typed error
on stderr (exit 1), under every subcommand that reads a drawing.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from crossing_ledger import emit_drawing, generate_optimal
from crossing_ledger.cli import run

DOCUMENTS = 150

SUBCOMMANDS = (
    ["validate", "--k", "3", "-"],
    ["analyze", "--skeleton", "--segments", "-"],
    ["audit", "--k", "3", "-"],
    ["export", "--figure", "svg", "-"],
)


def _shuffle_rotation(doc, rng):
    rng.shuffle(doc["rotations"][rng.choice(sorted(doc["rotations"]))])


def _mirror_rotation(doc, rng):
    doc["rotations"][rng.choice(sorted(doc["rotations"]))].reverse()


def _swap_rotation_entries(doc, rng):
    a, b = (rng.choice(sorted(doc["rotations"])) for _ in range(2))
    i = rng.randrange(len(doc["rotations"][a]))
    j = rng.randrange(len(doc["rotations"][b]))
    doc["rotations"][a][i], doc["rotations"][b][j] = doc["rotations"][b][j], doc["rotations"][a][i]


def _drop_edge(doc, rng):
    doc["edges"].pop(rng.randrange(len(doc["edges"])))


def _reverse_chain(doc, rng):
    crossed = sorted(e for e, cs in doc["chains"].items() if len(cs) > 1)
    doc["chains"][rng.choice(crossed)].reverse()


def _flip_direction(doc, rng):
    rot = doc["rotations"][rng.choice(sorted(doc["rotations"]))]
    entry = rot[rng.randrange(len(rot))]
    entry[1] = "-" if entry[1] == "+" else "+"


def _swap_endpoints(doc, rng):
    row = doc["edges"][rng.randrange(len(doc["edges"]))]
    row[1], row[2] = row[2], row[1]


MUTATIONS = (
    _shuffle_rotation,
    _mirror_rotation,
    _swap_rotation_entries,
    _drop_edge,
    _reverse_chain,
    _flip_direction,
    _swap_endpoints,
)


def mutated_documents():
    bases = [json.loads(emit_drawing(generate_optimal(n))) for n in (6, 10)]
    for seed in range(DOCUMENTS):
        rng = random.Random(seed)
        doc = json.loads(json.dumps(bases[seed % len(bases)]))
        for _ in range(rng.randint(1, 3)):
            rng.choice(MUTATIONS)(doc, rng)
        yield seed, json.dumps(doc)


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_mutated_documents_end_in_report_or_typed_error(argv):
    codes = set()
    for seed, text in mutated_documents():
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
        assert code in (0, 1, 2), f"seed {seed}: exit {code}"
        assert (code == 1) == err.getvalue().startswith("error: "), f"seed {seed}"
        codes.add(code)
    assert 1 in codes  # the mutations do break drawings
