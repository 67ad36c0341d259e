"""The CLI runs without automatic cyclic garbage collection; the library makes
no reference cycles.

``cli.run`` turns the collector off for the whole call and gives the caller
back the state it had, on every way out.  With the collector off, memory
stays flat only if the library leaves nothing in reference cycles, so a
cycle test runs every subcommand at two sizes and looks at what a final
collection finds, and fails on any file object there.  A smoke test runs
every subcommand in Python's development mode with warnings as errors.

``main``, the console entry point, freezes every surviving object before the
process exits (``gc.freeze``), so shutdown collects nothing: a file object
left in a cycle would then never be closed, flushed or warned about at exit.
The cycle test is the guard for that, which is why it writes output files
too.  Fresh processes check that ``main`` answers as ``run`` does and that it
freezes, and ``run`` itself must never freeze.

Before it freezes, ``main`` flushes stdout and points fd 1 at
``os.devnull``, so the reader of a pipe gets end of file at the last write.
Fresh processes check that fd 1 is on ``os.devnull`` when ``atexit`` hooks
run, that exit codes, stdout, stderr and output files stay as ``run`` gives
them, and that a reader that leaves early gets the answer it got before; the
smoke test runs the real ``generate | audit`` pipe.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import _fixtures
from crossing_ledger import emit_drawing, generate_optimal
from crossing_ledger.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, run

SRC = Path(__file__).resolve().parent.parent / "src"


class _Stdin(io.StringIO):
    """Stdin that records whether automatic collection is on when it is read."""

    collecting: bool | None = None

    def read(self, *args):
        self.collecting = gc.isenabled()
        return super().read(*args)


class _Broken(_Stdin):
    def read(self, *args):
        super().read(*args)
        raise RuntimeError("stdin broke")


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_collects(request):
    """Automatic collection on or off around the test, as the caller had it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


# argv ("{tmp}" is a fresh directory), stdin, exit code.
EXITS = {
    "success": (["generate", "--n", "6"], "", EXIT_OK),
    "success-reading-stdin": (["audit", "--k", "3", "-"], "n6", EXIT_OK),
    "verdict": (["validate", "--k", "3", "-"], "bigon", EXIT_VERDICT),
    "usage-error": (["audit", "--frobnicate"], "", EXIT_USAGE),
    "version": (["--version"], "", EXIT_OK),
    "help": (["-h"], "", EXIT_OK),
    "typed-error": (["validate", "--k", "3", "-"], "{broken", EXIT_USAGE),
    "os-error-reading": (["validate", "--k", "3", "{tmp}/absent.json"], "", EXIT_USAGE),
    "os-error-writing": (["generate", "--n", "6", "-o", "{tmp}/absent/out.json"], "", EXIT_USAGE),
}


def _stdin_text(name: str) -> str:
    if name in ("n6", "n10"):
        return emit_drawing(generate_optimal(int(name[1:])))
    if name == "bigon":
        return emit_drawing(_fixtures.bigon_spec())
    return name


@pytest.mark.parametrize("argv, stdin, code", EXITS.values(), ids=EXITS.keys())
def test_run_restores_the_callers_state(caller_collects, tmp_path, argv, stdin, code):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    reader = _Stdin(_stdin_text(stdin))
    assert run(argv, stdin=reader, stdout=io.StringIO(), stderr=io.StringIO()) == code
    assert gc.isenabled() is caller_collects
    assert reader.collecting is (False if argv[-1] == "-" else None)


def test_run_restores_the_callers_state_when_it_raises(caller_collects):
    reader = _Broken("{}")
    with pytest.raises(RuntimeError, match="stdin broke"):
        run(["validate", "--k", "3", "-"], stdin=reader, stdout=io.StringIO(),
            stderr=io.StringIO())
    assert reader.collecting is False
    assert gc.isenabled() is caller_collects


SUBCOMMANDS = {
    "generate": ["generate", "--n", "{n}"],
    "validate": ["validate", "--k", "3", "-"],
    "analyze": ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
    "audit": ["audit", "--k", "3", "-"],
    "export": ["export", "--figure", "svg", "-"],
    "generate-to-file": ["generate", "--n", "{n}", "-o", "{out}"],
    "export-to-file": ["export", "--figure", "svg", "-o", "{out}", "-"],
}


def _garbage(argv: list[str], n: int, out: Path) -> list:
    """What a collection finds after ``run(argv)`` on the tight drawing with ``n`` vertices."""
    argv = [a.replace("{n}", str(n)).replace("{out}", str(out)) for a in argv]
    stdin = io.StringIO(emit_drawing(generate_optimal(n)))
    gc.collect()
    was, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(argv, stdin=stdin, stdout=io.StringIO(), stderr=io.StringIO()) == EXIT_OK
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if was:
            gc.enable()


def _ours(o) -> bool:
    """A function, cell or instance defined in the package, argparse's parts aside."""
    if isinstance(o, (argparse.ArgumentParser, argparse.Action)):
        return False  # the CLI's parser and its actions, in argparse's own cycles
    if isinstance(o, types.CellType):
        return True
    module = o.__module__ if isinstance(o, types.FunctionType) else type(o).__module__
    return str(module).partition(".")[0] == "crossing_ledger"


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_run_leaves_a_fixed_set_of_cycles(argv, tmp_path):
    out = tmp_path / "out"
    _garbage(argv, 10, out)  # first use: the subcommand's modules load
    small, large = _garbage(argv, 10, out), _garbage(argv, 102, out)
    assert len(small) == len(large)
    assert [o for o in large if _ours(o)] == []
    assert [o for o in small + large if isinstance(o, io.IOBase)] == []


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_every_subcommand_runs_clean_in_dev_mode(tmp_path):
    drawing = tmp_path / "n10.json"
    steps = [
        ["generate", "--n", "10", "-o", str(drawing)],
        ["validate", "--k", "3", str(drawing)],
        ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
        ["audit", "--k", "3", "--format", "json", str(drawing)],
        ["export", "--figure", "svg", "-o", str(tmp_path / "n10.svg"), "-"],
    ]
    for argv in steps:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "crossing_ledger.cli", *argv],
            input=drawing.read_text() if argv[-1] == "-" else "",
            capture_output=True,
            text=True,
            env=_env(),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), argv

    # The real two-process pipe: generate hands audit its end of file at its
    # last write, and neither process leaks a descriptor or warns at exit.
    dev = [sys.executable, "-X", "dev", "-W", "error", "-m", "crossing_ledger.cli"]
    gen = subprocess.Popen([*dev, "generate", "--n", "10"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, env=_env())
    aud = subprocess.Popen([*dev, "audit", "--k", "3", "-"], stdin=gen.stdout,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    gen.stdout.close()
    out, aud_err = aud.communicate(timeout=120)
    with gen.stderr:
        gen_err = gen.stderr.read()
    gen.wait(timeout=120)
    expected = io.StringIO()
    run(["audit", "--k", "3", "-"], stdin=io.StringIO(drawing.read_text()), stdout=expected,
        stderr=io.StringIO())
    assert (gen.returncode, gen_err) == (EXIT_OK, b"")
    assert (aud.returncode, aud_err, out) == (EXIT_OK, b"", expected.getvalue().encode())


# argv ("{out}" is a file in a fresh directory), stdin, exit code: each
# subcommand at n=10, output to a file, a verdict, the version and errors.
MAIN_CASES = {
    "generate": (["generate", "--n", "10"], "", EXIT_OK),
    "validate": (["validate", "--k", "3", "-"], "n10", EXIT_OK),
    "analyze": (["analyze", "--skeleton", "--segments", "--format", "json", "-"], "n10", EXIT_OK),
    "audit": (["audit", "--k", "3", "-"], "n10", EXIT_OK),
    "export": (["export", "--figure", "svg", "-"], "n10", EXIT_OK),
    "generate-to-file": (["generate", "--n", "10", "-o", "{out}"], "", EXIT_OK),
    "verdict": (["validate", "--k", "3", "-"], "bigon", EXIT_VERDICT),
    "version": (["--version"], "", EXIT_OK),
    "usage-error": (["audit", "--frobnicate"], "", EXIT_USAGE),
    "typed-error": (["generate", "--n", "7"], "", EXIT_USAGE),
}


@pytest.mark.parametrize("argv, stdin, code", MAIN_CASES.values(), ids=MAIN_CASES.keys())
def test_main_answers_as_run_does(argv, stdin, code, tmp_path):
    # run writes run.json, and main, in a fresh process, main.json.
    text = _stdin_text(stdin)
    out, err = io.StringIO(), io.StringIO()
    frozen = gc.get_freeze_count()
    assert run([a.replace("{out}", str(tmp_path / "run.json")) for a in argv],
               stdin=io.StringIO(text), stdout=out, stderr=err) == code
    assert gc.get_freeze_count() == frozen  # run never freezes
    proc = subprocess.run(
        [sys.executable, "-m", "crossing_ledger.cli",
         *(a.replace("{out}", str(tmp_path / "main.json")) for a in argv)],
        input=text.encode(),
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.getvalue().encode(), err.getvalue().encode())
    if "{out}" in argv:
        assert (tmp_path / "main.json").read_bytes() == (tmp_path / "run.json").read_bytes()


def test_main_points_stdout_at_devnull_before_exit():
    # An atexit hook runs after main's handoff; fd 1 is then os.devnull.
    hook = (
        "import atexit, os, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(\n"
        "    f'devnull {os.path.samestat(os.fstat(1), os.stat(os.devnull))}\\n'))\n"
        "runpy.run_module('crossing_ledger.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hook, "generate", "--n", "10"],
        capture_output=True, env=_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == emit_drawing(generate_optimal(10)).encode()
    assert proc.stderr == b"devnull True\n"


def test_main_keeps_the_answer_when_the_reader_leaves_early():
    # The reader takes one byte and exits while generate still writes, so the
    # write fails with a broken pipe, which run reports with exit code 1
    # before any handoff.  Stdio is buffered here, as by default.
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    gen = subprocess.Popen([sys.executable, "-m", "crossing_ledger.cli", "generate", "--n", "202"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.Popen([sys.executable, "-c", "import os; os.write(1, os.read(0, 1))"],
                            stdin=gen.stdout, stdout=subprocess.PIPE, env=env)
    gen.stdout.close()
    first, _ = head.communicate(timeout=120)
    with gen.stderr:
        err = gen.stderr.read()
    gen.wait(timeout=120)
    assert (head.returncode, first) == (EXIT_OK, b"{")
    broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert (gen.returncode, err) == (EXIT_USAGE, f"error: {broken}\n".encode())


def test_main_freezes_before_exit():
    # An atexit hook runs after main's freeze; it sees the frozen objects.
    hook = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
        "runpy.run_module('crossing_ledger.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hook, "--version"],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK
    label, count = proc.stderr.split()
    assert label == "frozen" and int(count) > 0
