from __future__ import annotations

import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from crossing_ledger import emit_drawing, generate_optimal
from crossing_ledger.cli import run


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_version_is_written_to_the_given_stdout():
    assert _run(["--version"]) == (0, "crossing-ledger 0.1.0\n", "")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["audit", "-h"], ["generate", "--help"]])
def test_help_is_written_to_the_given_stdout(argv):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: crossing-ledger", *argv[:-1]]) + " [-h]")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["--version"], ["-h"]])
def test_an_answer_to_a_closed_pipe_is_one_error_line(argv):
    # --version and -h are written under the same guard as every report.
    err = io.StringIO()
    code = run(argv, stdin=io.StringIO(), stdout=_ClosedPipe(), stderr=err)
    assert (code, err.getvalue()) == (1, "error: [Errno 32] Broken pipe\n")


class _ShortWrites(io.RawIOBase):
    """A raw file that takes at most ``step`` bytes per write and, once it
    holds ``limit``, would block, as a full non-blocking pipe does."""

    def __init__(self, step, limit=None):
        self.step, self.limit, self.data = step, limit, bytearray()

    def writable(self):
        return True

    def write(self, b):
        if len(self.data) == self.limit:
            return None
        room = self.step if self.limit is None else min(self.step, self.limit - len(self.data))
        self.data += bytes(b[:room])
        return min(room, len(b))


@pytest.mark.parametrize("argv", [["--version"], ["generate", "--n", "10"]])
def test_short_writes_under_an_unbuffered_text_layer_are_continued(argv):
    raw = _ShortWrites(step=7)
    code = run(argv, stdin=io.StringIO(), stdout=io.TextIOWrapper(raw, write_through=True),
               stderr=io.StringIO())
    assert (code, raw.data.decode()) == (0, _run(argv)[1])


def test_a_write_that_would_block_is_one_error_line():
    raw, err = _ShortWrites(step=7, limit=20), io.StringIO()
    code = run(["--version"], stdin=io.StringIO(), stdout=io.TextIOWrapper(raw, write_through=True),
               stderr=err)
    assert code == 1
    assert err.getvalue().startswith(f"error: [Errno {errno.EAGAIN}] wrote no bytes")


SRC = Path(__file__).resolve().parent.parent / "src"
BROKEN = f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n".encode()


def _cli_env(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["generate", "--n", "202"]])
def test_an_answer_to_a_pipe_whose_reader_has_gone_is_one_error_line(argv, unbuffered):
    # A fresh process whose stdout is a pipe with its read end already closed.
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "crossing_ledger.cli", *argv], stdout=w,
                              stderr=subprocess.PIPE, env=_cli_env(unbuffered), timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, BROKEN)


@pytest.mark.skipif(shutil.which("head") is None, reason="needs head(1)")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_generate_into_head_reports_the_lost_output(unbuffered):
    # head -c 1 leaves while generate still writes: a short write, then a
    # failed one, in either buffering mode.
    gen = subprocess.Popen([sys.executable, "-m", "crossing_ledger.cli", "generate", "--n", "202"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=_cli_env(unbuffered))
    head = subprocess.Popen(["head", "-c", "1"], stdin=gen.stdout, stdout=subprocess.PIPE)
    gen.stdout.close()
    first, _ = head.communicate(timeout=120)
    with gen.stderr:
        err = gen.stderr.read()
    gen.wait(timeout=120)
    assert (head.returncode, first) == (0, b"{")
    assert (gen.returncode, err) == (1, BROKEN)


def test_generate_then_audit_pipeline():
    code, drawing, _ = _run(["generate", "--n", "6"])
    assert code == 0
    code, report, _ = _run(["audit", "--k", "3"], stdin_text=drawing)
    assert code == 0
    assert "tight" in report


def test_generate_writes_file(tmp_path):
    target = tmp_path / "drawing.json"
    code, out, _ = _run(["generate", "--n", "10", "-o", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert len(doc["edges"]) == 44


def test_generate_strict_rejects_bad_parity():
    code, _, err = _run(["generate", "--n", "8", "--strict-paper"])
    assert code == 1
    assert "divisible" in err


def test_audit_of_two_vertices_exits_with_error_line(bigon_spec):
    code, out, err = _run(["audit", "--k", "3", "-"], stdin_text=emit_drawing(bigon_spec))
    assert (code, out) == (1, "")
    assert err.startswith("error: bound-vertex-count: ")


def test_validate_exit_codes(ladder_spec, triangle_spec):
    code, out, _ = _run(["validate", "--k", "3", "-"], stdin_text=emit_drawing(ladder_spec))
    assert code == 2
    assert "e is crossed 4 times" in out
    code, _, _ = _run(["validate", "--k", "4", "-"], stdin_text=emit_drawing(ladder_spec))
    assert code == 0
    code, _, _ = _run(["validate", "--k", "3", "-"], stdin_text=emit_drawing(triangle_spec))
    assert code == 0


def test_validate_json_format(bigon_spec):
    code, out, _ = _run(
        ["validate", "--k", "3", "--format", "json", "-"],
        stdin_text=emit_drawing(bigon_spec),
    )
    assert code == 2
    doc = json.loads(out)
    assert list(doc) == ["version", "input_digest", "drawing", "validation"]
    assert doc["validation"]["violations"][0]["rule"] == "homotopic-parallel"


def test_analyze_skeleton_section():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(
        ["analyze", "--skeleton", "--format", "json", "-"], stdin_text=drawing
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["skeleton"]["skeleton_size"] == 12
    assert doc["skeleton"]["mode"] == "exact"


def test_analyze_segments_section():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(
        ["analyze", "--segments", "--format", "json", "-"], stdin_text=drawing
    )
    assert code == 0
    doc = json.loads(out)
    pieces = doc["segments"]["pieces"]
    assert sum(1 for p in pieces if p["kind"] == "stick") == 20


def test_audit_exit_two_on_bound_break(four_stick_triangle_spec):
    code, out, _ = _run(
        ["audit", "--k", "3", "--format", "json", "-"],
        stdin_text=emit_drawing(four_stick_triangle_spec),
    )
    assert code == 2
    doc = json.loads(out)
    assert not doc["validation"]["ok"]


def test_audit_k4_mode(four_stick_triangle_spec):
    code, out, _ = _run(
        ["audit", "--k", "4", "--format", "json", "-"],
        stdin_text=emit_drawing(four_stick_triangle_spec),
    )
    doc = json.loads(out)
    assert doc["validation"]["ok"]
    assert doc["audit"]["stick_cap_violations"] == []  # cap is 4 in this mode


def test_export_dot(triangle_spec, tmp_path):
    code, out, _ = _run(["export", "--figure", "dot", "-"], stdin_text=emit_drawing(triangle_spec))
    assert code == 0
    assert out.count("shape=circle") == 3


@pytest.mark.parametrize("figure", ["dot", "svg"])
def test_export_unknown_outer_face_exits_one(triangle_spec, figure):
    code, out, err = _run(
        ["export", "--figure", figure, "--outer-face", "f9", "-"],
        stdin_text=emit_drawing(triangle_spec),
    )
    assert (code, out) == (1, "")
    assert "no face named 'f9'" in err


def test_export_svg():
    _, drawing, _ = _run(["generate", "--n", "6"])
    code, out, _ = _run(["export", "--figure", "svg", "-"], stdin_text=drawing)
    assert code == 0
    assert out.count("<polyline") == 22


def test_unknown_flag_is_usage_error():
    code, _, err = _run(["audit", "--frobnicate"])
    assert code == 1
    assert err


def test_parse_error_exit_one():
    code, _, err = _run(["validate", "--k", "3", "-"], stdin_text="{broken")
    assert code == 1
    assert "invalid JSON" in err


def test_non_utf8_file_is_one_error_line(tmp_path):
    target = tmp_path / "bad.json"
    target.write_bytes(b"\xd0\xff{}")
    code, out, err = _run(["validate", "--k", "3", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {target}: ")
    assert err.count("\n") == 1


def test_path_with_a_nul_byte_is_one_error_line():
    code, out, err = _run(["validate", "--k", "3", "bad\x00.json"])
    assert (code, out) == (1, "")
    assert err == "error: cannot read bad\x00.json: embedded null byte\n"


def test_id_of_another_type_is_one_error_line():
    doc = {"vertices": [["a"], {"b": 1}], "edges": [], "chains": {}, "crossings": {},
           "rotations": {}}
    code, out, err = _run(["validate", "--k", "3", "-"], stdin_text=json.dumps(doc))
    assert (code, out) == (1, "")
    assert err == "error: id-type: ids are strings or integers; got ['a']\n"


@pytest.mark.parametrize("argv", [["analyze", "--format", "text"], ["export", "--figure", "dot"],
                                  ["export", "--figure", "svg"]])
@pytest.mark.parametrize("old", ["a0", "G0.3"], ids=["vertex", "edge"])
def test_id_that_utf8_cannot_encode_is_one_error_line(argv, old):
    # Before, the drawing was read and writing its ids to a UTF-8 stdout failed.
    text = emit_drawing(generate_optimal(6)).replace(f'"{old}"', '"\\ud800"')
    code, out, err = _run(argv + ["-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "error: id-encoding: ids are UTF-8 text; got '\\ud800'\n"


def test_number_of_too_many_digits_is_one_error_line():
    doc = '{"vertices": [%s], "edges": [], "chains": {}, "crossings": {}, "rotations": {}}'
    code, out, err = _run(["validate", "--k", "3", "-"], stdin_text=doc % ("7" * 5000))
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: a number in the document has more than {limit} digits\n"


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")])
def test_deeply_nested_document_is_one_error_line(opening, closing):
    text = opening * 100_000 + "1" + closing * 100_000
    code, out, err = _run(["validate", "--k", "3", "-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "error: document nests too deeply to parse\n"


def test_missing_file_exit_one(tmp_path):
    code, _, err = _run(["validate", "--k", "3", str(tmp_path / "absent.json")])
    assert code == 1


def test_reports_are_byte_stable():
    _, drawing, _ = _run(["generate", "--n", "6"])
    _, a, _ = _run(["audit", "--k", "3", "--format", "json", "-"], stdin_text=drawing)
    _, b, _ = _run(["audit", "--k", "3", "--format", "json", "-"], stdin_text=drawing)
    assert a == b


@pytest.mark.parametrize("k", ["0", "-3"])
def test_validate_rejects_a_budget_below_one(triangle_spec, k):
    # A typed error, so one error line and exit 1 rather than a traceback.
    code, out, err = _run(["validate", "--k", k, "-"], stdin_text=emit_drawing(triangle_spec))
    assert (code, out) == (1, "")
    assert err == f"error: k must be a positive integer; got {k}\n"
