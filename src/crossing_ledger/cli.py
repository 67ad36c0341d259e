"""Command-line interface.

Subcommands: ``generate``, ``validate``, ``analyze``, ``audit``, ``export``.
Exit codes: 0 success, 1 usage or parse failure, 2 a rule-violation verdict.
Drawings are read from a file argument or stdin (``-``), so subcommands
compose in pipelines.

Every subcommand is one staged run (``_staged``): spec, map, [validation],
[skeleton, pieces, profiles, audit], stopping where its report ends.  A JSON
report takes the stage records themselves as sections; a text report is
read from the same records' fields.  One guard covers every answer, its
write and its flush, ``--version`` and ``-h`` included: a failure, a closed
pipe too, ends in one ``error:`` line and exit 1, and a short write to an
unbuffered stdout is continued, not taken as complete.

The library stages are attributes of this module, named in ``_STAGES``, that
load on first use, so each subcommand imports only the modules it runs
(``_MODULES``).  ``run`` calls every stage through those names, so a caller
that replaces one (the benchmark's ``perfbench/layers.py`` wraps each in a
timing span) sees every call.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from . import __version__, _lazy
from .errors import CrossingLedgerError, ParseError

if TYPE_CHECKING:
    from .audit import AuditReport
    from .drawing import DrawingSpec

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
    p.add_argument("--strict-paper", action="store_true",
                   help="additionally require n-2 divisible by 4")
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
    # The input text is freed on return, before any later stage runs.
    try:
        text = stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _stage.parse_text(text)


def _staged(args: argparse.Namespace, stdin: TextIO) -> tuple[str, int]:
    """One subcommand's answer and exit code: its stages, in order, as far as its report needs."""
    for module in _MODULES[args.command]:
        import_module(f".{module}", __package__)
    if args.command == "generate":
        spec = _stage.generate_optimal(args.n, strict=args.strict_paper)
        return _stage.emit_drawing(spec), EXIT_OK
    spec = _read_spec(args.file, stdin)
    pmap = _stage.build_map(spec)
    if args.command == "export":
        return _stage.export_figure(pmap, args.figure, args.outer_face), EXIT_OK
    sections: dict = {}
    if args.command != "analyze":
        sections["validation"] = _stage.merge_reports(
            _stage.check_sanity(pmap), _stage.check_homotopy(pmap),
            _stage.check_k_planar(pmap, args.k),
        )
    if args.command != "validate":
        dec = _stage.extract_skeleton(pmap, args.mode)
        if args.command == "analyze":
            sections["skeleton"] = dec
        if args.command == "audit" or args.segments:
            pieces = _stage.decompose(dec)
            profiles = _stage.face_profiles(dec, pieces)
            if args.command == "analyze":
                sections["segments"] = {"pieces": pieces, "faces": profiles}
            else:
                sections["audit"] = _stage.density_report(dec, profiles, pieces, k=args.k)
    ok = all(sections[name].ok for name in ("validation", "audit") if name in sections)
    code = EXIT_OK if ok else EXIT_VERDICT
    if args.format == "json":
        doc = _stage.report_document(spec, sections, include_drawing=args.command != "audit")
        return _stage.emit_report(doc), code
    return "\n".join(_render(sections, ok)) + "\n", code


def _render(sections: dict, ok: bool) -> list[str]:
    """A text report's lines, read from the fields of its sections' records.  A
    validation ends it, then the verdict: ``ok`` exactly when the exit is 0."""
    if "skeleton" in sections:
        dec = sections["skeleton"]
        profiles = sections["segments"]["faces"] if "segments" in sections else ()
        return [
            f"skeleton ({dec.mode}): {len(dec.skeleton_edges)} of "
            f"{len(dec.full_map.edge_ids)} edges",
            "skeleton edges: " + " ".join(dec.skeleton_edges),
            f"faces: {len(dec.faces)}",
            *(f"face {prof.face} size {prof.size} type {list(prof.type_tuple)} "
              f"sticks {len(prof.sticks)} middles {len(prof.middles)}" for prof in profiles),
        ]
    validation = sections["validation"]
    if "audit" in sections:
        out = _render_audit(sections["audit"])
    else:
        worst = max(validation.per_edge_crossings.values(), default=0)
        out = [f"k: {validation.k}", f"max crossings per edge: {worst}"]
    out += [f"VIOLATION [{v.rule}] {', '.join(v.subjects)}: {v.detail}"
            for v in validation.violations]
    out += [f"warning: {w}" for w in validation.warnings]
    out.append("verdict: " + ("ok" if ok else "violations found"))
    return out


def _render_audit(report: AuditReport) -> list[str]:
    counts = ", ".join(f"t{i}={c}" for i, c in sorted(report.triangle_counts.items()))
    out = [
        f"n={report.n}  edges={report.edge_count}  skeleton={report.skeleton_edge_count}",
        f"skeleton connected: {report.skeleton_connected}, "
        f"triangulated: {report.skeleton_triangulated}",
        f"triangular faces: {report.triangular_face_count}",
        f"stick counts: {counts}",
    ]
    if report.stick_cap_violations:
        out.append(f"over the stick cap: {list(report.stick_cap_violations)}")
    assoc = report.association
    if assoc.applicable:
        out.append(f"association: {'ok' if assoc.ok else 'failed'} ({len(assoc.mapping)} pairs)")
        out += [f"  note: {note}" for note in assoc.notes]
        out += [f"  diagnosis [{d.kind}] {', '.join(d.faces)}: {d.detail}"
                for d in assoc.diagnoses]
    ledger = report.ledger
    out += [f"ledger size {row.size}: count {row.count}, charge {row.charge}, "
            f"budget {row.budget}, slack {row.slack}" for row in ledger.faces]
    out.append(f"ledger components: skeleton {ledger.skeleton_components}, drawing "
               f"{ledger.drawing_components}, budget {ledger.components_budget}")
    over = ", ".join(ledger.uncertified)
    out.append(f"ledger verdict: {ledger.verdict}" + (f" (over budget: {over})" if over else ""))
    out += [f"PREDICATE FAILS [{v.name}] on {face}: {v.detail}"
            for face, verdicts in sorted(report.predicates.items())
            for v in verdicts if not v.holds]
    out.append(f"bound: {report.edge_count} vs {report.bound_max_edges} -> {report.bound_verdict}")
    return out


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
    try:
        try:
            args = _build_parser().parse_args(argv)
        except _Answer as answer:
            text, code, path = str(answer), EXIT_OK, None
        else:
            text, code = _staged(args, stdin)
            path = getattr(args, "output", None)
        if path:
            Path(path).write_text(text, encoding="utf-8")
        else:
            _write(stdout, text)
        return code
    except (_UsageError, CrossingLedgerError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _write(stream: TextIO, text: str) -> None:
    """Write ``text`` to ``stream`` and flush it; :class:`OSError` if any of it is lost.

    Under ``PYTHONUNBUFFERED`` the text layer writes straight to the raw file
    and takes a short write, as into a pipe whose reader leaves, as complete.
    There the text is encoded once and its bytes written to the raw file,
    each short write continued from where it stopped, until all are written
    or a write fails.
    """
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        stream.write(text)
        stream.flush()
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        written = raw.write(data)
        if not written:  # None: a non-blocking file is full
            raise OSError(errno.EAGAIN, f"wrote no bytes of the last {len(data)}")
        data = data[written:]


def main() -> None:  # console entry point
    """Run the command line in this process and exit with its code.

    :func:`run` has flushed the output, or reported with an ``error:`` line
    why it could not, so fd 1 is then pointed at ``os.devnull``: a reader of
    a pipe such as ``generate | audit`` sees end of file at the last write
    instead of after this interpreter's shutdown, and bytes that a failed
    flush left in the buffer go to ``os.devnull`` at shutdown instead of
    failing a second time.  Then every surviving object moves into the
    collector's permanent generation (``gc.freeze``), so the collections that
    interpreter shutdown runs skip them: they would walk every loaded
    module's objects and change nothing a caller sees.  ``atexit`` hooks and
    the flushing of stdio still run.  :func:`run` itself never freezes, so
    library and test callers keep the collector as they had it.
    """
    code = run(sys.argv[1:])
    try:
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
    except (AttributeError, OSError, ValueError):
        pass  # no stdout with a file descriptor
    else:
        os.dup2(devnull, fd)
        os.close(devnull)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
