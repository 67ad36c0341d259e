"""Write the golden CLI corpus that ``tests/test_golden.py`` replays.

Run from the repository root, only when a change is meant to alter output:

    PYTHONPATH=src python tests/golden/capture.py

With ``--check`` it rewrites nothing: it replays the corpus, prints every
case whose outcome differs, and exits 1 if there is one.  Neither mode needs
pytest, so the corpus replays under any installed Python:

    PYTHONPATH=src python3.13 tests/golden/capture.py --check

Every case is one ``crossing_ledger.cli.run`` call.  The manifest records
its argv, its stdin (an input file, or the stdout of an earlier case), the
exit code, stderr, and the SHA-256 and byte length of stdout.  Outputs up to
``VERBATIM_LIMIT`` bytes are also kept verbatim under ``expected/`` so that a
failing replay shows a readable diff.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

import _fixtures  # noqa: E402

from crossing_ledger import emit_drawing  # noqa: E402
from crossing_ledger.cli import run  # noqa: E402

VERBATIM_LIMIT = 64 * 1024

GENERATED_N = (6, 10, 54)

FIXTURES = (
    "triangle_spec",
    "square_diagonals_spec",
    "ladder_spec",
    "bigon_spec",
    "one_sided_parallel_spec",
    "double_crossing_spec",
    "uncrossed_stick_spec",
    "far_middle_spec",
    "four_stick_triangle_spec",
    "mutual_stick_triangle_spec",
    "loop_around_edge_spec",
    "opposite_sticks_spec",
    "mixed_stick_pairs_spec",
    "two_walk_sticks_spec",
)

# Per valid input: (case suffix, argv before the "-" stdin argument).
ANALYSES = (
    ("validate.json", ["validate", "--k", "3", "--format", "json"]),
    ("validate.text", ["validate", "--k", "3", "--format", "text"]),
    ("analyze.json", ["analyze", "--skeleton", "--segments", "--format", "json"]),
    ("analyze.text", ["analyze", "--skeleton", "--segments", "--format", "text"]),
    ("audit-k3.json", ["audit", "--k", "3", "--format", "json"]),
    ("audit-k3.text", ["audit", "--k", "3", "--format", "text"]),
    ("audit-k4.json", ["audit", "--k", "4", "--format", "json"]),
    ("audit-k4.text", ["audit", "--k", "4", "--format", "text"]),
    ("export.dot", ["export", "--figure", "dot"]),
    ("export.svg", ["export", "--figure", "svg"]),
)

# Per rejected input: every subcommand that reads a drawing.
REJECTIONS = (
    ("validate", ["validate", "--k", "3"]),
    ("analyze", ["analyze", "--skeleton", "--segments"]),
    ("audit", ["audit", "--k", "3"]),
    ("export", ["export", "--figure", "dot"]),
)


def _crossed_pair(rotation_at_x, chain_f=("x",)) -> dict:
    """Edges e = v1-v2 and f = v3-v4 meeting at crossing x."""
    return {
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [["e", "v1", "v2"], ["f", "v3", "v4"]],
        "chains": {"e": ["x"], "f": list(chain_f)},
        "crossings": {"x": ["e", "f"]},
        "rotations": {
            "v1": [["e", "+"]],
            "v2": [["e", "-"]],
            "v3": [["f", "+"]],
            "v4": [["f", "-"]],
            "x": [list(entry) for entry in rotation_at_x],
        },
    }


ALTERNATING = (("e", "+"), ("f", "+"), ("e", "-"), ("f", "-"))


def rejected_documents() -> dict[str, str]:
    """One document per semantic rule, a torus rotation, malformed JSON, a
    repeated key and an id that UTF-8 cannot encode."""
    triangle = _fixtures.triangle_spec().to_doc()
    triangle["rotations"]["v1"] = [["a", "+"]]  # drops the c entry
    docs = {
        "self-crossing": {
            "vertices": ["v1", "v2"],
            "edges": [["e", "v1", "v2"]],
            "chains": {"e": ["x"]},
            "crossings": {"x": ["e", "e"]},
            "rotations": {"v1": [["e", "+"]], "v2": [["e", "-"]]},
        },
        "crossing-degree": _crossed_pair(ALTERNATING, chain_f=()),
        "rotation-at-vertex": triangle,
        "rotation-at-crossing": _crossed_pair(ALTERNATING[:3]),
        "rotation-alternation": _crossed_pair(
            (("e", "+"), ("e", "-"), ("f", "+"), ("f", "-"))
        ),
        "torus": {
            "vertices": ["v"],
            "edges": [["a", "v", "v"], ["b", "v", "v"]],
            "chains": {},
            "crossings": {},
            "rotations": {"v": [["a", "+"], ["b", "+"], ["a", "-"], ["b", "-"]]},
        },
    }
    texts = {name: json.dumps(doc, indent=2) + "\n" for name, doc in docs.items()}
    texts["malformed-json"] = '{"vertices": ["v1", "v2"],\n  "edges": [\n'
    plain = json.dumps(_fixtures.triangle_spec().to_doc(), indent=2) + "\n"
    # Rotations that name v1 twice, first with no entries: JSON keeps the last.
    texts["repeated-key"] = plain.replace('"rotations": {', '"rotations": {\n    "v1": [],', 1)
    # Edge a renamed to a lone surrogate, which UTF-8 cannot encode.
    texts["id-encoding"] = plain.replace('"a"', '"\\ud800"')
    return texts


def case_plan() -> tuple[dict[str, str], list[dict]]:
    """(input file name -> text, cases in replay order)."""
    inputs: dict[str, str] = {}
    cases: list[dict] = []
    for n in GENERATED_N:
        source = f"n{n}.generate"
        cases.append({"id": source, "argv": ["generate", "--n", str(n)], "stdin": None})
        for suffix, argv in ANALYSES:
            cases.append({"id": f"n{n}.{suffix}", "argv": argv + ["-"], "stdin": {"case": source}})
    for name in FIXTURES:
        stem = name.removesuffix("_spec")
        inputs[f"{stem}.json"] = emit_drawing(getattr(_fixtures, name)())
        for suffix, argv in ANALYSES:
            cases.append(
                {"id": f"{stem}.{suffix}", "argv": argv + ["-"], "stdin": {"file": f"{stem}.json"}}
            )
    for stem, text in rejected_documents().items():
        inputs[f"{stem}.json"] = text
        for suffix, argv in REJECTIONS:
            cases.append(
                {"id": f"{stem}.{suffix}", "argv": argv + ["-"], "stdin": {"file": f"{stem}.json"}}
            )
    return inputs, cases


def replay(argv: list[str], stdin: str) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of one CLI call.

    An exception that escapes ``run`` is recorded in place of the exit code
    as ``"raises <type>: <message>"``, so the corpus pins it down too.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        code: int | str = run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    except Exception as exc:  # noqa: BLE001 - recorded, not handled
        code = f"raises {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def replay_all(cases: list[dict], read_input: Callable[[str], str]) -> dict[str, tuple]:
    """Case id -> (exit code, stdout, stderr), replaying the cases in order.

    A case's stdin is empty, an input file read by ``read_input``, or the
    stdout of an earlier case.
    """
    results: dict[str, tuple] = {}
    for case in cases:
        source = case["stdin"]
        if source is None:
            stdin = ""
        elif "case" in source:
            stdin = results[source["case"]][1]
        else:
            stdin = read_input(source["file"])
        results[case["id"]] = replay(case["argv"], stdin)
    return results


def outcome(code: int | str, out: str, err: str) -> dict:
    """The manifest fields that record one case's outcome."""
    data = out.encode("utf-8")
    return {
        "exit": code,
        "stderr": err,
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
        "stdout_bytes": len(data),
    }


def capture() -> int:
    inputs, cases = case_plan()
    (GOLDEN / "inputs").mkdir(exist_ok=True)
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name, text in inputs.items():
        (GOLDEN / "inputs" / name).write_bytes(text.encode("utf-8"))

    manifest = []
    for case, (code, out, err) in zip(cases, replay_all(cases, inputs.__getitem__).values()):
        entry = dict(case, **outcome(code, out, err))
        if 0 < entry["stdout_bytes"] <= VERBATIM_LIMIT:
            entry["stdout_file"] = f"{case['id']}.out"
            (GOLDEN / "expected" / entry["stdout_file"]).write_bytes(out.encode("utf-8"))
        manifest.append(entry)

    text = json.dumps(manifest, indent=1) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")
    print(f"{len(manifest)} cases, {len(inputs)} input files")
    return 0


def check() -> int:
    cases = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    results = replay_all(
        cases, lambda name: (GOLDEN / "inputs" / name).read_bytes().decode("utf-8")
    )
    bad = 0
    for case in cases:
        if any(case[k] != v for k, v in outcome(*results[case["id"]]).items()):
            bad += 1
            print(f"MISMATCH {case['id']}")
    print(f"{len(cases)} cases, {bad} mismatches")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="replay the corpus; rewrite nothing")
    return check() if ap.parse_args(argv).check else capture()


if __name__ == "__main__":
    sys.exit(main())
