"""Command-line interface.

Subcommands: ``generate``, ``validate``, ``analyze``, ``audit``, ``export``.
Exit codes: 0 success, 1 usage or parse failure, 2 a rule-violation verdict.
Drawings are read from a file argument or stdin (``-``), so subcommands
compose in pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from . import __version__
from .audit import density_report
from .drawing import DrawingSpec, PlanarizedMap, build_map
from .errors import CrossingLedgerError
from .figures import export_figure
from .generator import generate_optimal
from .interchange import emit_drawing, emit_report, parse_text, report_document
from .segments import decompose, face_profiles
from .skeleton import extract_skeleton
from .validate import ValidationReport, check_homotopy, check_k_planar, check_sanity, merge_reports

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="crossing-ledger", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
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
    p.add_argument("--skeleton", action="store_true", help="report the skeleton")
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
    if path == "-":
        return parse_text(stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def _write(text: str, path: str | None, stdout: TextIO) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _validate(pmap: PlanarizedMap, k: int) -> ValidationReport:
    # The same stages as validate_drawing, called through this module's names
    # so that a caller can wrap each stage (the benchmark times them this way).
    return merge_reports(check_sanity(pmap), check_homotopy(pmap), check_k_planar(pmap, k))


def _violation_lines(report: dict) -> list[str]:
    return [
        f"VIOLATION [{v['rule']}] {', '.join(v['subjects'])}: {v['detail']}"
        for v in report["violations"]
    ]


def _render_validation(report: dict, out: list[str]) -> None:
    out.append(f"k: {report['k']}")
    worst = max(report["per_edge_crossings"].values(), default=0)
    out.append(f"max crossings per edge: {worst}")
    out.extend(_violation_lines(report))
    for w in report["warnings"]:
        out.append(f"warning: {w}")
    out.append("verdict: " + ("ok" if report["ok"] else "violations found"))


def _render_audit(report: dict, out: list[str]) -> None:
    out.append(f"n={report['n']}  edges={report['edges']}  skeleton={report['skeleton_edges']}")
    out.append(
        "skeleton connected: %s, triangulated: %s"
        % (report["skeleton_connected"], report["skeleton_triangulated"])
    )
    counts = ", ".join(f"t{i}={c}" for i, c in report["triangle_counts"].items())
    out.append(
        f"triangular faces: {report['triangular_faces']}"
        + (
            f" (expected {report['triangular_faces_expected']})"
            if report["triangular_faces_expected"] is not None
            else ""
        )
    )
    out.append(f"stick counts: {counts}")
    if report["stick_cap_violations"]:
        out.append(f"VIOLATION: triangles over the stick cap: {report['stick_cap_violations']}")
    assoc = report["association"]
    if assoc["applicable"]:
        out.append(f"association: {'ok' if assoc['ok'] else 'failed'} ({len(assoc['mapping'])} pairs)")
        for note in assoc["notes"]:
            out.append(f"  note: {note}")
        for d in assoc["diagnoses"]:
            out.append(f"  diagnosis [{d['kind']}] {', '.join(d['faces'])}: {d['detail']}")
    for step in report["ledger"]:
        mark = "ok" if step["holds"] else "FAILS"
        out.append(
            f"  {step['lhs']} {step['relation']} {step['rhs']}   "
            f"[{step['lhs_value']} {step['relation']} {step['rhs_value']}, "
            f"slack {step['slack']}] {mark}"
        )
    for a in report["conditional_assumptions"]:
        out.append(f"assumption: {a}")
    pred = report["predicates"]
    for face, verdicts in pred["faces"].items():
        for v in verdicts:
            if not v["holds"]:
                out.append(f"PREDICATE FAILS [{v['name']}] on {face}: {v['detail']}")
    out.append(
        f"bound: {report['edges']} vs {report['bound_max_edges']} -> {report['bound_verdict']}"
    )
    out.append("verdict: " + ("ok" if report["ok"] else "violations found"))


def run(argv: list[str], stdin: TextIO = sys.stdin, stdout: TextIO = sys.stdout,
        stderr: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    try:
        if args.command == "generate":
            spec = generate_optimal(args.n, strict=True if args.strict_paper else None)
            _write(emit_drawing(spec), args.output, stdout)
            return EXIT_OK

        if args.command == "export":
            spec = _read_spec(args.file, stdin)
            text = export_figure(build_map(spec), args.figure, args.outer_face)
            _write(text, args.output, stdout)
            return EXIT_OK

        if args.command == "validate":
            spec = _read_spec(args.file, stdin)
            report = _validate(build_map(spec), args.k)
            if args.format == "json":
                doc = report_document(spec, {"validation": report.to_dict()})
                _write(emit_report(doc), None, stdout)
            else:
                lines: list[str] = []
                _render_validation(report.to_dict(), lines)
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK if report.ok else EXIT_VERDICT

        if args.command == "analyze":
            spec = _read_spec(args.file, stdin)
            pmap = build_map(spec)
            dec = extract_skeleton(pmap, args.mode)
            sections: dict = {"skeleton": dec.to_dict()}
            if args.segments:
                pieces = decompose(dec)
                profiles = face_profiles(dec, pieces)
                sections["segments"] = {
                    "pieces": [p.to_dict() for p in pieces],
                    "faces": [p.to_dict() for p in profiles],
                }
            if args.format == "json":
                doc = report_document(spec, sections)
                _write(emit_report(doc), None, stdout)
            else:
                lines = [
                    f"skeleton ({dec.mode}): {len(dec.skeleton_edges)} of "
                    f"{len(pmap.edge_ids)} edges",
                    "skeleton edges: " + " ".join(dec.skeleton_edges),
                    f"faces: {len(dec.skeleton_map.faces)}",
                ]
                if args.segments:
                    for prof in sections["segments"]["faces"]:
                        lines.append(
                            f"face {prof['face']} size {prof['size']} type {prof['type']} "
                            f"sticks {len(prof['sticks'])} middles {len(prof['middles'])}"
                        )
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK

        if args.command == "audit":
            spec = _read_spec(args.file, stdin)
            pmap = build_map(spec)
            validation = _validate(pmap, args.k)
            dec = extract_skeleton(pmap, args.mode)
            pieces = decompose(dec)
            profiles = face_profiles(dec, pieces)
            report = density_report(dec, profiles, pieces, k=args.k)
            if args.format == "json":
                doc = report_document(
                    spec,
                    {"validation": validation.to_dict(), "audit": report.to_dict()},
                    include_drawing=False,
                )
                _write(emit_report(doc), None, stdout)
            else:
                lines = []
                _render_audit(report.to_dict(), lines)
                lines.extend(_violation_lines(validation.to_dict()))
                _write("\n".join(lines) + "\n", None, stdout)
            return EXIT_OK if (report.ok and validation.ok) else EXIT_VERDICT

    except CrossingLedgerError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    raise AssertionError("unreachable")


def main() -> None:  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
