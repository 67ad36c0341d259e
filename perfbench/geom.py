"""The geom_corpus operation: one drawing through the library, in the CLI audit order.

Run as a script, it audits a corpus read from stdin (a JSON list of
interchange texts) and prints the digest of the outcomes, so the benchmark
can compare outcomes across interpreters with different ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import sys

from crossing_ledger.errors import BudgetExceeded, InvariantError

import layers
from corpus import K


def audit_text(text: str, lib) -> str:
    """The report ``crossing-ledger audit --k 3 --format json`` prints for ``text``."""
    spec = lib.parse_text(text)
    pmap = lib.build_map(spec)
    validation = lib.merge_reports(
        lib.check_sanity(pmap), lib.check_homotopy(pmap), lib.check_k_planar(pmap, K)
    )
    dec = lib.extract_skeleton(pmap, "exact")
    pieces = lib.decompose(dec)
    profiles = lib.face_profiles(dec, pieces)
    report = lib.density_report(dec, profiles, pieces, k=K)
    doc = lib.report_document(
        spec,
        {"validation": validation.to_dict(), "audit": report.to_dict()},
        include_drawing=False,
    )
    return lib.emit_report(doc)


def refusal_kind(exc: Exception) -> str | None:
    """The name of a known typed refusal, or None for anything else."""
    if isinstance(exc, BudgetExceeded):
        return "budget"
    if isinstance(exc, InvariantError) and exc.rule == layers.DISCONNECTED_REGION:
        return "disconnected-region"
    return None


def outcome(text: str, lib) -> tuple[str | None, str]:
    """(refusal kind or None, report text or refusal message).

    Exceptions other than the two known refusals propagate.
    """
    try:
        return None, audit_text(text, lib)
    except (BudgetExceeded, InvariantError) as exc:
        kind = refusal_kind(exc)
        if kind is None:
            raise
        return kind, f"error: {exc}\n"


def outcome_digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def combined_digest(digests: list[str]) -> str:
    return "sha256:" + hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def main() -> int:
    lib = layers.library()
    texts = json.load(sys.stdin)
    print(combined_digest([outcome_digest(outcome(t, lib)[1]) for t in texts]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
