"""The audit's per-face ledger, replayed from the faces alone, as a test oracle.

The budgets are computed here with ``Fraction``s from ``BOUND_TABLE``, and
the component counts with a union-find of this module's own: c over the
skeleton's edges on every vertex, d over the segments of every edge, so
that two crossing edges share a component.  Two identities must then hold
exactly on every drawing the audit accepts:

- the budgets plus ``alpha (c + d - 2)`` sum to ``alpha (n - 2) - |E_p|``;
- the charges, half the sticks of each face, sum to ``|E| - |E_p|``.

So the total slack is the bound minus ``|E|``, and the report's verdicts
must agree: ``certified`` implies ``|E| <= k_bound(n, k)``, and the ledger
reads ``violated`` exactly when the bound does.
"""

from __future__ import annotations

from fractions import Fraction

from crossing_ledger import decompose, density_report, extract_skeleton, face_profiles, k_bound
from crossing_ledger.audit import BOUND_TABLE


def _roots(nodes, links) -> dict:
    """Node -> the root of its component, the components joined along ``links``."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in links:
        parent[find(a)] = find(b)
    return {v: find(v) for v in nodes}


def checked_report(pmap, k: int):
    """``density_report`` of ``pmap``'s exact skeleton at ``k``, its ledger checked.

    Raises ``BudgetExceeded`` when the exact skeleton does.
    """
    dec = extract_skeleton(pmap, "exact")
    pieces = decompose(dec)
    profiles = face_profiles(dec, pieces)
    report = density_report(dec, profiles, pieces, k)

    alpha = Fraction(BOUND_TABLE[k][0])
    n, edges, skeleton = len(pmap.vertices), len(pmap.edge_ids), len(dec.skeleton_edges)
    c = len(set(_roots(pmap.vertices, map(pmap.endpoints, dec.skeleton_edges)).values()))
    nodes = (*pmap.vertices, *pmap.crossing_ids)
    segments = [
        pair for e in pmap.edge_ids
        for pair in zip(pmap.node_sequence(e), pmap.node_sequence(e)[1:])
    ]
    root = _roots(nodes, segments)
    d = len({root[pmap.endpoints(e)[0]] for e in pmap.edge_ids})

    def budget(size: int) -> Fraction:
        return (alpha - 3) * (size - 2) / 2 + size - 3

    budgets = sum(budget(p.size) for p in profiles)
    charges = sum(Fraction(p.stick_count, 2) for p in profiles)
    assert budgets + alpha * (c + d - 2) == alpha * (n - 2) - skeleton
    assert charges == edges - skeleton

    ledger = report.ledger
    assert (ledger.skeleton_components, ledger.drawing_components) == (c, d)
    assert ledger.components_budget == alpha * (c + d - 2)
    assert sum(row.count for row in ledger.faces) == len(profiles)
    assert sum(row.budget for row in ledger.faces) == budgets
    assert sum(row.charge for row in ledger.faces) == charges
    assert all(row.slack == row.budget - row.charge for row in ledger.faces)
    slack = sum(row.slack for row in ledger.faces) + ledger.components_budget
    assert slack == alpha * (n - 2) - edges

    # Discharge along the pairing, and find the faces still over budget.
    charge = {p.face: Fraction(p.stick_count, 2) for p in profiles}
    for src, dst in report.association.mapping.items():
        charge[src] -= Fraction(1, 4)
        charge[dst] += Fraction(1, 4)
    over = tuple(p.face for p in profiles if charge[p.face] > budget(p.size))
    assert ledger.uncertified == over

    assert (ledger.verdict == "violated") == (report.bound_verdict == "violated")
    assert ledger.verdict == ("violated" if slack < 0 else "uncertified" if over else "certified")
    if ledger.verdict == "certified":
        assert edges <= k_bound(n, k)
    assert report.ok == (report.bound_verdict != "violated")
    return report
