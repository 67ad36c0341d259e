"""Run the crossing-ledger CLI with a span around every call into a layer.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py <cli arguments>``.
Output and exit code are those of ``python -m crossing_ledger.cli``; the
spans follow as one JSON line on stderr, after the marker ``perfbench-spans``.
"""

from __future__ import annotations

import json
import sys

from crossing_ledger import cli

import layers
from tracing import Tracer

SPANS_MARKER = "perfbench-spans "


def main() -> int:
    tracer = Tracer()
    layers.instrument_cli(tracer)
    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
