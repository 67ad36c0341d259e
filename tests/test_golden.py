"""Replay the golden CLI corpus byte for byte.

The corpus under ``tests/golden/`` holds, for every case, the argv, the
input, the exit code, stderr and stdout (verbatim when small, otherwise as
SHA-256 plus byte length).  ``tests/golden/capture.py`` documents the cases
and rewrites the corpus; rerun it only for a change that is meant to alter
output.

The corpus is also replayed, by ``capture.py --check`` in a subprocess,
under a second ``PYTHONHASHSEED`` and under every other CPython >= 3.10
found on ``PATH`` or under pyenv, none of which needs pytest.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden.capture import outcome, replay

GOLDEN = Path(__file__).parent / "golden"
CASES = {c["id"]: c for c in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))}
SRC = Path(__file__).resolve().parent.parent / "src"


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
    if "stdout_file" in case:
        assert out == (GOLDEN / "expected" / case["stdout_file"]).read_bytes().decode("utf-8")
    actual = outcome(code, out, err)
    assert actual == {k: case[k] for k in actual}


TEXT_REPORTS = [
    case_id for case_id, case in CASES.items()
    if case["argv"][0] in ("validate", "audit") and "json" not in case["argv"]
]


@pytest.mark.parametrize("case_id", TEXT_REPORTS)
def test_text_verdict_line_is_the_exit_code(case_id):
    case = CASES[case_id]
    out = ""
    if "stdout_file" in case:
        out = (GOLDEN / "expected" / case["stdout_file"]).read_bytes().decode("utf-8")
    assert len(out.encode("utf-8")) == case["stdout_bytes"]
    if not out:  # a rejected input writes only to stderr
        assert case["exit"] == 1
    else:
        verdict = "ok" if case["exit"] == 0 else "violations found"
        assert out.splitlines()[-1] == f"verdict: {verdict}"


AUDIT_TWINS = [
    case_id for case_id, case in CASES.items()
    if case["argv"][0] == "audit" and case_id.endswith(".text")
]


@pytest.mark.parametrize("case_id", AUDIT_TWINS)
def test_audit_text_and_json_agree(case_id):
    # The text report reads the records' fields and the JSON report their
    # to_dict() keys: both must tell the same counts, bound and verdicts.
    code, text, err = _replay(case_id)
    json_code, doc, json_err = _replay(case_id.removesuffix(".text") + ".json")
    assert (json_code, json_err) == (code, err)
    if code == 1:  # a rejected input: one error line and no report, either way
        assert text == doc == ""
        return
    report = json.loads(doc)
    audit, validation = report["audit"], report["validation"]
    lines = text.splitlines()
    assert lines[0].startswith(f"n={audit['n']}  edges={audit['edges']}  ")
    bound = f"bound: {audit['edges']} vs {audit['bound_max_edges']} -> {audit['bound_verdict']}"
    assert bound in lines
    ledger = [line for line in lines if line.startswith("ledger verdict: ")]
    assert ledger and ledger[0].split()[2] == audit["ledger"]["verdict"]
    ok = audit["ok"] and validation["ok"]
    assert lines[-1] == "verdict: " + ("ok" if ok else "violations found")
    assert code == (0 if ok else 2)


def _check_corpus(python: str, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [python, str(GOLDEN / "capture.py"), "--check"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def _other_pythons() -> dict[str, str]:
    """Version -> interpreter, for each CPython >= 3.10 here other than this one.

    Candidates are ``python3.1x`` on ``PATH`` and pyenv's
    ``versions/3.1*/bin/python``; only those that start are kept (a pyenv
    shim for a version that is not selected exits with an error).
    """
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", "3.1*", "bin", "python")))
    probe = "import platform; print(platform.python_implementation(), platform.python_version())"
    found: dict[str, str] = {}
    for python in filter(None, candidates):
        try:
            proc = subprocess.run(
                [python, "-c", probe], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode != 0 or len(proc.stdout.split()) != 2:
            continue
        implementation, version = proc.stdout.split()
        major_minor = tuple(int(part) for part in version.split(".")[:2])
        if implementation == "CPython" and major_minor >= (3, 10):
            found.setdefault(version, python)
    found.pop(platform.python_version(), None)
    return found


def test_corpus_replays_under_another_hash_seed():
    proc = _check_corpus(sys.executable, "20161602")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_corpus_replays_on_other_pythons():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 found")
    failures = {}
    for version, python in pythons.items():
        check = _check_corpus(python, "0")
        if check.returncode != 0:
            failures[f"{version} ({python})"] = check.stdout[-2000:] + check.stderr[-2000:]
    assert not failures, failures
