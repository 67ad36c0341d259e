"""The segments stages and the skeleton regions against ``_segments_oracle``.

On the golden inputs, the tight family n = 6, 10, ..., 202 and the random
straight-line corpus of the benchmark (seeds 1-3), each with a greedy and an
exact skeleton, the skeleton's faces, the pieces and the profiles must equal
the oracle's records.  On edge sets that are not a valid skeleton both must
return equal records or raise the same exception type, rule and message.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import _segments_oracle as oracle
from _geom import drawing_doc
from test_build_oracle import GOLDEN_MAPS

from crossing_ledger import build_map, decompose, extract_skeleton, face_profiles, generate_optimal
from crossing_ledger.errors import BudgetExceeded
from crossing_ledger.interchange import spec_from_document
from crossing_ledger.skeleton import SkeletonDecomposition, _skeleton_faces, conflict_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _agree(pmap, mode: str) -> bool:
    """Compare every stage on ``pmap``'s ``mode`` skeleton; False if exact search refuses it."""
    try:
        dec = extract_skeleton(pmap, mode)
    except BudgetExceeded:
        return False
    assert dec[4:] == oracle.skeleton_faces(pmap, set(dec.skeleton_edges))
    pieces, expected = decompose(dec), oracle.decompose(dec)
    assert pieces == expected
    assert face_profiles(dec, pieces) == oracle.face_profiles(dec, expected)
    return True


@pytest.mark.parametrize("mode", ["greedy", "exact"])
@pytest.mark.parametrize("pmap", list(GOLDEN_MAPS.values()), ids=list(GOLDEN_MAPS))
def test_golden_input(pmap, mode):
    _agree(pmap, mode)


@pytest.mark.parametrize("n", range(6, 203, 4))
def test_tight_family(n):
    pmap = build_map(generate_optimal(n))
    assert _agree(pmap, "greedy") and _agree(pmap, "exact")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_geom_corpus(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from corpus import build_corpus

    refused = 0
    for text in build_corpus(seed, drawing_doc):
        pmap = build_map(spec_from_document(json.loads(text)))
        assert _agree(pmap, "greedy")
        refused += not _agree(pmap, "exact")
    assert refused < 20  # the corpus has a few components over the exact budget


def _outcome(skeleton_faces, decompose, face_profiles, pmap, kept: set[str]):
    """Records of every stage on the skeleton ``kept``, or the exception raised."""
    residual = tuple(sorted(set(pmap.edge_ids) - kept))
    try:
        dec = SkeletonDecomposition(
            pmap, tuple(sorted(kept)), residual, "manual", *skeleton_faces(pmap, kept)
        )
        pieces = decompose(dec)
        return dec[4:], pieces, face_profiles(dec, pieces)
    except Exception as exc:  # the exception is the outcome compared
        return (type(exc), getattr(exc, "rule", None), str(exc))


SMALL_MAPS = {
    **{k: m for k, m in GOLDEN_MAPS.items() if len(m.edge_ids) <= 40},
    "tight-6": build_map(generate_optimal(6)),
    "tight-10": build_map(generate_optimal(10)),
}


@pytest.mark.parametrize("pmap", list(SMALL_MAPS.values()), ids=list(SMALL_MAPS))
def test_arbitrary_edge_sets(pmap):
    # Random kept sets, and maximal independent ones in a random order with
    # up to two edges switched: the stages then refuse, or describe what
    # they are given, alike.
    rng = random.Random(20161602)
    edges = sorted(pmap.edge_ids)
    adjacency = conflict_graph(pmap).adjacency
    for trial in range(60):
        if trial % 2:
            kept = {e for e in edges if rng.random() < rng.choice([0.3, 0.6, 0.9])}
        else:
            kept = set()
            for e in rng.sample(edges, len(edges)):
                if not adjacency[e] & kept:
                    kept.add(e)
            kept ^= set(rng.sample(edges, min(len(edges), rng.randint(0, 2))))
        assert _outcome(_skeleton_faces, decompose, face_profiles, pmap, kept) == _outcome(
            oracle.skeleton_faces, oracle.decompose, oracle.face_profiles, pmap, kept
        )
