"""The package loads its modules on first use; the public API is unchanged.

Each CLI subcommand imports only the library modules it runs, and imports
them before it reads its input, so that in a pipeline the imports overlap the
upstream process.  The footprint tests run the CLI as
``python -m crossing_ledger.cli`` does, in a fresh process, and name the
exact set of ``crossing_ledger`` modules loaded when it reads stdin and when
it exits, so a stray top-level import shows up here.  They also pin some
standard-library modules: no subcommand loads ``dataclasses`` or ``inspect``
(several milliseconds of start-up), nor ``multiprocessing``,
``concurrent.futures``, ``subprocess`` or ``pickle``; ``hashlib`` is loaded,
after the input is read, only to digest the input of a JSON report.  And they record
whether automatic garbage collection is on: ``cli.run`` turns it off for the
call, so it is off when the CLI reads stdin and back on at exit.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crossing_ledger
from crossing_ledger import emit_drawing, generate_optimal
from crossing_ledger.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

ALL = [
    "__version__",
    "DrawingSpec",
    "build_map",
    "restrict",
    "check_homotopy",
    "check_k_planar",
    "check_sanity",
    "validate_drawing",
    "extract_skeleton",
    "decompose",
    "face_profiles",
    "density_report",
    "k_bound",
    "generate_optimal",
    "emit_drawing",
    "input_digest",
    "parse_drawing",
    "parse_text",
    "report_document",
    "export_figure",
    "BadHint",
    "BadN",
    "BudgetExceeded",
    "CrossingLedgerError",
    "DanglingCrossing",
    "InvalidRotation",
    "InvariantError",
    "NonSpherical",
    "ParseError",
    "UnsupportedK",
]

# Names the package stopped re-exporting, since only tests use them, and the
# module to import each from.
MODULE_ONLY = {
    "conflict_graph": "skeleton",
    "decompose_with": "skeleton",
    "chords_interleave": "generator",
    "theta_frame": "generator",
}

# Standard-library modules whose loading the footprints pin.
WATCHED = (
    "concurrent.futures",
    "dataclasses",
    "fractions",
    "hashlib",
    "inspect",
    "multiprocessing",
    "pickle",
    "subprocess",
)

# Runs the CLI as ``python -m crossing_ledger.cli`` does.  It prints the
# loaded package modules and watched modules, and whether automatic garbage
# collection is on, to stderr when the CLI reads stdin, after the marker
# "read ", and again as the last line when the process exits.
_RUN_AS_MAIN = f"""
import atexit, gc, io, json, runpy, sys

def loaded():
    return json.dumps([sorted(
        m for m in sys.modules if m.partition(".")[0] == "crossing_ledger" or m in {WATCHED}
    ), gc.isenabled()])

class Stdin(io.StringIO):
    def read(self, *args):
        sys.stderr.write("read " + loaded() + "\\n")
        return super().read(*args)

sys.stdin = Stdin(sys.stdin.read())
atexit.register(lambda: sys.stderr.write(loaded() + "\\n"))
runpy.run_module("crossing_ledger.cli", run_name="__main__", alter_sys=True)
"""


def _run_fresh(args: list[str], code: str, stdin: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _fresh_process(args: list[str], code: str = _RUN_AS_MAIN, stdin: str = "") -> tuple:
    """(exit code, stdout, the last line of stderr and the rest of each "read " line, as JSON)."""
    proc = _run_fresh(args, code, stdin)
    *lines, last = proc.stderr.splitlines()
    reads = [json.loads(line[5:]) for line in lines if line.startswith("read ")]
    return proc.returncode, proc.stdout, json.loads(last), reads


def _package(*modules: str) -> set[str]:
    return {"crossing_ledger", "crossing_ledger.errors", *(f"crossing_ledger.{m}" for m in modules)}


# The audit's bound ledger computes in exact rationals, so it loads ``fractions``;
# no other subcommand does.
_AUDIT = _package("drawing", "interchange", "validate", "skeleton", "segments", "audit") | {
    "fractions"
}

# argv, the modules loaded when stdin is read, the watched modules loaded after.
FOOTPRINTS = [
    (["--version"], _package(), set()),
    (["generate", "--n", "10"], _package("drawing", "generator", "interchange"), set()),
    (["export", "--figure", "svg", "-"], _package("drawing", "figures", "interchange"), set()),
    (["export", "--figure", "dot", "-"], _package("drawing", "figures", "interchange"), set()),
    (["validate", "--k", "3", "-"], _package("drawing", "interchange", "validate"), set()),
    (
        ["validate", "--k", "3", "--format", "json", "-"],
        _package("drawing", "interchange", "validate"),
        {"hashlib"},
    ),
    (
        ["analyze", "--skeleton", "--segments", "-"],
        _package("drawing", "interchange", "skeleton", "segments"),
        set(),
    ),
    (
        ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
        _package("drawing", "interchange", "skeleton", "segments"),
        {"hashlib"},
    ),
    (["audit", "--k", "3", "-"], _AUDIT, set()),
    (["audit", "--k", "3", "--format", "json", "-"], _AUDIT, {"hashlib"}),
]


def _in_process(argv: list[str], stdin: str) -> tuple:
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, modules, stdlib", FOOTPRINTS, ids=[" ".join(a) for a, _, _ in FOOTPRINTS]
)
def test_subcommand_footprint(argv, modules, stdlib):
    drawing = emit_drawing(generate_optimal(10))
    code, out, at_exit, reads = _fresh_process(argv, stdin=drawing)
    assert code == 0
    assert at_exit == [sorted(modules | stdlib), True]
    assert reads == ([[sorted(modules), False]] if argv[-1] == "-" else [])
    # Run as __main__, the CLI gives what run() gives in this process.
    assert (code, out) == _in_process(argv, drawing)


def test_import_package_loads_nothing_else():
    code = "import sys, json, crossing_ledger; sys.stderr.write(json.dumps(sorted(sys.modules)))"
    _, _, loaded, _ = _fresh_process([], code)
    assert {m for m in loaded if m.startswith("crossing_ledger")} == {"crossing_ledger"}


def test_one_name_loads_its_module():
    code = (
        "import sys, json, crossing_ledger; crossing_ledger.emit_drawing; "
        "sys.stderr.write(json.dumps(sorted(sys.modules)))"
    )
    _, _, loaded, _ = _fresh_process([], code)
    assert {m for m in loaded if m.startswith("crossing_ledger")} == _package(
        "drawing", "interchange"
    )


def test_all_is_unchanged():
    assert crossing_ledger.__all__ == ALL


def test_star_import_gives_all():
    namespace: dict = {}
    exec("from crossing_ledger import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


@pytest.mark.parametrize("name", [*ALL[1:], *MODULE_ONLY])
def test_name_is_its_module_attribute(name):
    if name in MODULE_ONLY:
        module = importlib.import_module(f"crossing_ledger.{MODULE_ONLY[name]}")
        assert getattr(module, name).__module__ == module.__name__
        assert not hasattr(crossing_ledger, name)
        return
    value = getattr(crossing_ledger, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert hasattr(crossing_ledger, name)


def test_readme_library_section_lists_the_surface():
    # Every public name is documented, and the example imports only public names.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", section))
    public = {n for n in ALL if crossing_ledger._EXPORTS.get(n) != "errors"}
    assert sorted(public - documented) == []
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = re.search(r"from crossing_ledger import \((.*?)\)", block, re.S).group(1)
    assert {n.strip() for n in imported.split(",") if n.strip()} <= set(ALL)


def test_dir_lists_all():
    assert set(ALL) <= set(dir(crossing_ledger))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crossing_ledger.no_such_name  # noqa: B018
    assert not hasattr(crossing_ledger, "no_such_name")
    from crossing_ledger import cli

    with pytest.raises(AttributeError, match="no_such_stage"):
        cli.no_such_stage  # noqa: B018
