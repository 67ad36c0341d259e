"""The benchmark's in-process audit must stay the CLI's audit.

``perfbench/`` times the library through the names ``crossing_ledger.cli``
imports (``perfbench/layers.py``) and replays the CLI audit order in
``perfbench/geom.py``.  This smoke test keeps both in step with the CLI, so
a refactor of the CLI cannot silently break the benchmark.
"""

from __future__ import annotations

import importlib
import io
from pathlib import Path

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
