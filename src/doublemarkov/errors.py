"""Shared exception types.

Plain ``ValueError`` is used for ordinary argument errors; the types here
mark conditions callers may want to handle separately (resource exhaustion,
domain failures, inputs outside a method's supported class).
"""


class BudgetExceeded(RuntimeError):
    """Raised when an input is past a fixed resource budget (command line exit code 3)."""


class PathCapExceeded(BudgetExceeded):
    """Raised when a path enumeration exceeds its cap.

    Distinguishable from "no paths", which is an empty result.
    """

    def __init__(self, cap: int):
        super().__init__(f"number of simple paths exceeds cap {cap}")
        self.cap = cap


class NotPositiveDefinite(ValueError):
    """Raised by operations whose domain is the positive definite cone."""


class UniquePathRequired(ValueError):
    """Raised by ideal-layer operations when the unique-path hypothesis fails.

    The monomial description is only valid when every non-edge of the
    concentration graph is joined by at most one path in the covariance
    graph; refusing the input is not the same as returning an answer.
    """
