"""Write the golden CLI corpus that ``tests/test_golden.py`` replays.

Run from the repository root, only when a change is meant to alter output:

    PYTHONPATH=src python tests/golden/capture.py

Every case is one ``crossing_ledger.cli.run`` call.  The manifest records
its argv, its stdin (an input file, or the stdout of an earlier case), the
exit code, stderr, and the SHA-256 and byte length of stdout.  Outputs up to
``VERBATIM_LIMIT`` bytes are also kept verbatim under ``expected/`` so that a
failing replay shows a readable diff.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

import conftest  # noqa: E402

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
    """One document per semantic rule, a torus rotation, and malformed JSON."""
    triangle = conftest.triangle_spec.__wrapped__().to_doc()
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
        inputs[f"{stem}.json"] = emit_drawing(getattr(conftest, name).__wrapped__())
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


def main() -> int:
    inputs, cases = case_plan()
    (GOLDEN / "inputs").mkdir(exist_ok=True)
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name, text in inputs.items():
        (GOLDEN / "inputs" / name).write_bytes(text.encode("utf-8"))

    stdout_of: dict[str, str] = {}
    manifest = []
    for case in cases:
        source = case["stdin"]
        if source is None:
            stdin = ""
        elif "case" in source:
            stdin = stdout_of[source["case"]]
        else:
            stdin = inputs[source["file"]]
        code, out, err = replay(case["argv"], stdin)
        stdout_of[case["id"]] = out
        data = out.encode("utf-8")
        entry = dict(case, exit=code, stderr=err)
        entry["stdout_sha256"] = hashlib.sha256(data).hexdigest()
        entry["stdout_bytes"] = len(data)
        if 0 < len(data) <= VERBATIM_LIMIT:
            entry["stdout_file"] = f"{case['id']}.out"
            (GOLDEN / "expected" / entry["stdout_file"]).write_bytes(data)
        manifest.append(entry)

    text = json.dumps(manifest, indent=1) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")
    print(f"{len(manifest)} cases, {len(inputs)} input files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
