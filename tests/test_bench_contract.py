"""The benchmark's in-process audit must stay the CLI's audit.

``perfbench/`` times the library through the stage names of
``crossing_ledger.cli`` (``perfbench/layers.py``) and replays the CLI audit
order in ``perfbench/geom.py``; its CLI workloads run
``perfbench/traced_cli.py`` for their traces.  These smoke tests keep all three in step with the CLI, so a
refactor of the CLI cannot silently break the benchmark.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from crossing_ledger import cli
from crossing_ledger.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cli(argv, stdin_text=""):
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=io.StringIO())
    assert code == 0
    return out.getvalue()


def test_perfbench_audit_matches_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    geom = importlib.import_module("geom")
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")

    text = _cli(["generate", "--n", "54"])
    expected = _cli(["audit", "--k", "3", "--format", "json", "-"], text)
    assert geom.audit_text(text, layers.library()) == expected

    tracer = tracing.Tracer()
    assert geom.audit_text(text, layers.library(tracer)) == expected
    spans = {span[0] for span in tracer.spans}
    assert {"interchange.parse", "drawing.build", "validate.homotopy", "audit.density"} <= spans


def _traced_cli(argv, stdin_text, marker):
    """Stdout and spans of one ``perfbench/traced_cli.py`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERFBENCH.parent / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith(marker)]
    assert len(lines) == 1
    return proc.stdout, json.loads(lines[0][len(marker):])


def test_traced_cli_process_matches_cli(monkeypatch):
    # The render and tight_pipe workloads read their traces from processes
    # running perfbench/traced_cli.py; their output must be the CLI's, and
    # the stages the CLI loads on first use must still be timed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    marker = importlib.import_module("traced_cli").SPANS_MARKER
    tracing = importlib.import_module("tracing")
    text = _cli(["generate", "--n", "54"])
    for argv, stdin_text, expected in (
        (["generate", "--n", "54"], "", {"generator.generate", "interchange.emit"}),
        (["export", "--figure", "svg", "-"], text, {"figures.export_svg"}),
        (["audit", "--k", "3", "-"], text, {"validate.homotopy", "audit.density"}),
        (
            ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
            text,
            {"interchange.parse", "skeleton.extract", "segments.decompose", "interchange.emit"},
        ),
    ):
        stdout, spans = _traced_cli(argv, stdin_text, marker)
        assert stdout == _cli(argv, stdin_text)
        assert expected <= {span[0] for span in spans}
        if argv[0] == "analyze":
            counts = tracing.merge_counts(span[4] for span in spans)
            assert counts["interchange.report_bytes"] == len(stdout.encode("utf-8")) > 0


def test_every_layer_is_called_through_cli_names(monkeypatch):
    # perfbench/layers.py replaces these names on crossing_ledger.cli; the CLI
    # must call the replacement, also for stages it has not loaded yet.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    calls: set[str] = set()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)

        return call

    names = [*layers.LAYERS, "merge_reports"]
    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    text = _cli(["generate", "--n", "6"])
    for argv in (
        ["validate", "--k", "3", "--format", "json", "-"],
        ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
        ["audit", "--k", "3", "-"],
        ["export", "--figure", "svg", "-"],
    ):
        _cli(argv, text)
    assert calls == set(names)
