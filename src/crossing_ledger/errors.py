"""Exception types shared across the package."""

from __future__ import annotations


class CrossingLedgerError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(CrossingLedgerError):
    """A drawing violates a structural invariant.

    ``rule`` names the violated rule so callers can match on it.
    """

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class InvalidRotation(InvariantError):
    """A rotation is malformed (wrong entries, or broken alternation at a crossing)."""


class DanglingCrossing(InvariantError):
    """A crossing point is not referenced by exactly the two chains it belongs to."""


class NonSpherical(CrossingLedgerError):
    """The rotation system does not describe a sphere embedding (Euler check failed)."""


class ParseError(CrossingLedgerError):
    """An interchange document is malformed."""


class BudgetExceeded(CrossingLedgerError):
    """An exact search was aborted because a conflict component is too large."""


class UnsupportedK(CrossingLedgerError):
    """No exact bound is tabulated for this crossing budget.

    ``informational_bound`` carries the generic 4.1208*sqrt(k)*n estimate.
    """

    def __init__(self, k: int, n: int, informational_bound: float):
        super().__init__(
            f"no exact bound for k={k}; informational estimate "
            f"4.1208*sqrt(k)*n = {informational_bound:.2f}"
        )
        self.k = k
        self.n = n
        self.informational_bound = informational_bound


class BadN(CrossingLedgerError):
    """The requested vertex count is not realizable by the construction."""


class BadHint(CrossingLedgerError):
    """The outer-face hint does not name a face of the map."""


class BadArgument(CrossingLedgerError, ValueError):
    """An argument lies outside the values the function documents.

    Also a ``ValueError``, so a caller that catches the ``ValueError`` these
    arguments used to raise still catches it.
    """
