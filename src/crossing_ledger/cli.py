"""Command-line interface.

Subcommands: ``generate``, ``validate``, ``analyze``, ``audit``, ``export``.
Exit codes: 0 success, 1 usage or parse failure, 2 a rule-violation verdict.
Drawings are read from a file argument or stdin (``-``), so subcommands
compose in pipelines.

The library stages are attributes of this module, named in ``_STAGES``, that
load on first use, so each subcommand imports only the modules it runs
(``_MODULES``).  ``run`` calls every stage through those names, so a caller
that replaces one (the benchmark's ``perfbench/layers.py`` wraps each in a
timing span) sees every call.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from . import __version__, _lazy
from .errors import CrossingLedgerError, ParseError

if TYPE_CHECKING:
    from .drawing import DrawingSpec, PlanarizedMap
    from .validate import ValidationReport

# Stage name -> the module that defines it.
_STAGES = {
    "generate_optimal": "generator",
    "parse_text": "interchange",
    "emit_drawing": "interchange",
    "report_document": "interchange",
    "emit_report": "interchange",
    "build_map": "drawing",
    "check_sanity": "validate",
    "check_homotopy": "validate",
    "check_k_planar": "validate",
    "merge_reports": "validate",
    "extract_skeleton": "skeleton",
    "decompose": "segments",
    "face_profiles": "segments",
    "density_report": "audit",
    "export_figure": "figures",
}

__getattr__ = _lazy(_STAGES, globals())

# The modules each subcommand runs.  ``run`` imports them before it reads a
# drawing: in a pipeline such as ``generate | audit`` the imports then overlap
# the upstream process instead of following it.
_MODULES = {
    "generate": ("generator", "interchange"),
    "export": ("interchange", "figures"),
    "validate": ("interchange", "validate"),
    "analyze": ("interchange", "skeleton", "segments"),
    "audit": ("interchange", "validate", "skeleton", "segments", "audit"),
}

# This module, also when it runs as ``python -m crossing_ledger.cli``.
_stage = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)

    def print_help(self, file=None):  # noqa: D102 - argparse hook
        raise _Answer(self.format_help())


class _Version(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):  # noqa: D102 - argparse hook
        raise _Answer(f"{parser.prog} {__version__}\n")


class _Answer(Exception):
    """Output that ends the run early: ``--version`` and ``-h`` are answered on
    ``run``'s own ``stdout`` instead of by argparse's print-and-exit."""


def _build_parser() -> _Parser:
    parser = _Parser(prog="crossing-ledger", description=__doc__)
    parser.add_argument(
        "--version", action=_Version, nargs=0, help="show program's version number and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a densest drawing for the given vertex count")
    p.add_argument("--n", type=int, required=True, help="vertex count (even, >= 6)")
    p.add_argument(
        "--strict-paper",
        action="store_true",
        help="additionally require n-2 divisible by 4",
    )
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("validate", help="check sanity, homotopy, and the crossing budget")
    p.add_argument("--k", type=int, required=True, help="crossing budget per edge")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("file", nargs="?", default="-", help="drawing file (default: stdin)")

    p = sub.add_parser("analyze", help="skeleton extraction and segment decomposition")
    p.add_argument("--skeleton", action="store_true", help="ignored: the skeleton is always reported")
    p.add_argument("--segments", action="store_true", help="report sticks and middle parts")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("file", nargs="?", default="-")

    p = sub.add_parser("audit", help="density audit against the edge-count bound")
    p.add_argument("--k", type=int, choices=(3, 4), default=3)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("file", nargs="?", default="-")

    p = sub.add_parser("export", help="emit a figure of the planarization")
    p.add_argument("--figure", choices=("dot", "svg"), required=True)
    p.add_argument("--outer-face", help="face id to use as the SVG outer boundary")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("file", nargs="?", default="-")

    return parser


def _read_spec(path: str, stdin: TextIO) -> DrawingSpec:
    try:
        text = stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _stage.parse_text(text)


def _write(text: str, path: str | None, stdout: TextIO) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _validate(pmap: PlanarizedMap, k: int) -> ValidationReport:
    # The same stages as validate_drawing, called through this module's names
    # so that a caller can wrap each stage (the benchmark times them this way).
    return _stage.merge_reports(
        _stage.check_sanity(pmap), _stage.check_homotopy(pmap), _stage.check_k_planar(pmap, k)
    )


def _close(validation: dict, ok: bool, out: list[str]) -> None:
    """End a text report: the validation's violations and warnings, then the
    one verdict line.

    The verdict reads ``ok`` exactly when the command exits 0.
    """
    for v in validation["violations"]:
        out.append(f"VIOLATION [{v['rule']}] {', '.join(v['subjects'])}: {v['detail']}")
    out.extend(f"warning: {w}" for w in validation["warnings"])
    out.append("verdict: " + ("ok" if ok else "violations found"))


def _render_validation(report: dict, out: list[str]) -> None:
    out.append(f"k: {report['k']}")
    worst = max(report["per_edge_crossings"].values(), default=0)
    out.append(f"max crossings per edge: {worst}")
    _close(report, report["ok"], out)


def _render_audit(report: dict, validation: dict, out: list[str]) -> None:
    out.append(f"n={report['n']}  edges={report['edges']}  skeleton={report['skeleton_edges']}")
    out.append(
        "skeleton connected: %s, triangulated: %s"
        % (report["skeleton_connected"], report["skeleton_triangulated"])
    )
    counts = ", ".join(f"t{i}={c}" for i, c in report["triangle_counts"].items())
    out.append(f"triangular faces: {report['triangular_faces']}")
    out.append(f"stick counts: {counts}")
    if report["stick_cap_violations"]:
        out.append(f"over the stick cap: {report['stick_cap_violations']}")
    assoc = report["association"]
    if assoc["applicable"]:
        out.append(f"association: {'ok' if assoc['ok'] else 'failed'} ({len(assoc['mapping'])} pairs)")
        for note in assoc["notes"]:
            out.append(f"  note: {note}")
        for d in assoc["diagnoses"]:
            out.append(f"  diagnosis [{d['kind']}] {', '.join(d['faces'])}: {d['detail']}")
    ledger = report["ledger"]
    for row in ledger["faces"]:
        out.append("ledger size {size}: count {count}, charge {charge}, budget {budget}, "
                   "slack {slack}".format(**row))
    out.append("ledger components: skeleton {skeleton}, drawing {drawing}, "
               "budget {budget}".format(**ledger["components"]))
    over = ", ".join(ledger["uncertified"])
    out.append(f"ledger verdict: {ledger['verdict']}" + (f" (over budget: {over})" if over else ""))
    for face, verdicts in report["predicates"].items():
        for v in verdicts:
            if not v["holds"]:
                out.append(f"PREDICATE FAILS [{v['name']}] on {face}: {v['detail']}")
    out.append(
        f"bound: {report['edges']} vs {report['bound_max_edges']} -> {report['bound_verdict']}"
    )
    _close(validation, report["ok"] and validation["ok"], out)


def run(argv: list[str], stdin: TextIO = sys.stdin, stdout: TextIO = sys.stdout,
        stderr: TextIO = sys.stderr) -> int:
    """Run one CLI call and return its exit code.

    Automatic cyclic garbage collection is off for the whole call and set back
    to the caller's state on return.  A call builds hundreds of thousands of
    acyclic records that the collector would scan again and again, and the
    library makes no reference cycles, so memory stays flat without it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv, stdin, stdout, stderr)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str], stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except _Answer as answer:
        stdout.write(str(answer))
        return EXIT_OK

    for module in _MODULES[args.command]:
        import_module(f".{module}", __package__)

    try:
        if args.command == "generate":
            spec = _stage.generate_optimal(args.n, strict=args.strict_paper)
            _write(_stage.emit_drawing(spec), args.output, stdout)
            return EXIT_OK

        if args.command == "export":
            spec = _read_spec(args.file, stdin)
            text = _stage.export_figure(_stage.build_map(spec), args.figure, args.outer_face)
            _write(text, args.output, stdout)
            return EXIT_OK

        if args.command == "validate":
            spec = _read_spec(args.file, stdin)
            report = _validate(_stage.build_map(spec), args.k)
            if args.format == "json":
                doc = _stage.report_document(spec, {"validation": report.to_dict()})
                _write(_stage.emit_report(doc), None, stdout)
            else:
                lines: list[str] = []
                _render_validation(report.to_dict(), lines)
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK if report.ok else EXIT_VERDICT

        if args.command == "analyze":
            spec = _read_spec(args.file, stdin)
            pmap = _stage.build_map(spec)
            dec = _stage.extract_skeleton(pmap, args.mode)
            sections: dict = {"skeleton": dec}
            if args.segments:
                pieces = _stage.decompose(dec)
                profiles = _stage.face_profiles(dec, pieces)
                sections["segments"] = {"pieces": pieces, "faces": profiles}
            if args.format == "json":
                doc = _stage.report_document(spec, sections)
                _write(_stage.emit_report(doc), None, stdout)
            else:
                lines = [
                    f"skeleton ({dec.mode}): {len(dec.skeleton_edges)} of "
                    f"{len(pmap.edge_ids)} edges",
                    "skeleton edges: " + " ".join(dec.skeleton_edges),
                    f"faces: {len(dec.faces)}",
                ]
                if args.segments:
                    for prof in profiles:
                        lines.append(
                            f"face {prof.face} size {prof.size} type {list(prof.type_tuple)} "
                            f"sticks {len(prof.sticks)} middles {len(prof.middles)}"
                        )
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK

        if args.command == "audit":
            spec = _read_spec(args.file, stdin)
            pmap = _stage.build_map(spec)
            validation = _validate(pmap, args.k)
            dec = _stage.extract_skeleton(pmap, args.mode)
            pieces = _stage.decompose(dec)
            profiles = _stage.face_profiles(dec, pieces)
            report = _stage.density_report(dec, profiles, pieces, k=args.k)
            if args.format == "json":
                doc = _stage.report_document(
                    spec,
                    {"validation": validation.to_dict(), "audit": report.to_dict()},
                    include_drawing=False,
                )
                _write(_stage.emit_report(doc), None, stdout)
            else:
                lines = []
                _render_audit(report.to_dict(), validation.to_dict(), lines)
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK if (report.ok and validation.ok) else EXIT_VERDICT

    except (CrossingLedgerError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    raise AssertionError("unreachable")


def main() -> None:  # console entry point
    """Run the command line in this process and exit with its code.

    Before it exits, the process moves every surviving object into the
    collector's permanent generation (``gc.freeze``), so the collections that
    interpreter shutdown runs skip them.  Those collections come after the
    output is written, so they change nothing a caller sees, yet they walk
    every loaded module's objects, and in a pipe such as ``generate | audit``
    the next process waits for them.  ``atexit`` hooks and the flushing of
    stdio still run.  :func:`run` itself never freezes, so library and test
    callers keep the collector as they had it.
    """
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
