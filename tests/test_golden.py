"""Replay the golden CLI corpus byte for byte.

The corpus under ``tests/golden/`` holds, for every case, the argv, the
input, the exit code, stderr and stdout (verbatim when small, otherwise as
SHA-256 plus byte length).  ``tests/golden/capture.py`` documents the cases
and rewrites the corpus; rerun it only for a change that is meant to alter
output.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from golden.capture import replay

GOLDEN = Path(__file__).parent / "golden"
CASES = {c["id"]: c for c in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))}


@functools.cache
def _replay(case_id: str) -> tuple[int | str, str, str]:
    source = CASES[case_id]["stdin"]
    if source is None:
        stdin = ""
    elif "case" in source:
        stdin = _replay(source["case"])[1]
    else:
        stdin = (GOLDEN / "inputs" / source["file"]).read_bytes().decode("utf-8")
    return replay(CASES[case_id]["argv"], stdin)


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden_case(case_id):
    case = CASES[case_id]
    code, out, err = _replay(case_id)
    data = out.encode("utf-8")
    if "stdout_file" in case:
        assert out == (GOLDEN / "expected" / case["stdout_file"]).read_bytes().decode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        case["stdout_bytes"],
        case["stdout_sha256"],
    )
    assert (code, err) == (case["exit"], case["stderr"])
