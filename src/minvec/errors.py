"""Exception types shared by all minvec modules."""


class MinvecError(Exception):
    """Base class for all toolkit errors."""


class BudgetExceeded(MinvecError):
    """An enumeration or search exceeded its configured budget.

    Carries an estimate of the required size and, for searches, the best
    partial result found so far.
    """

    def __init__(self, message, estimate=None, partial=None):
        super().__init__(message)
        self.estimate = estimate
        self.partial = partial


class DatumInvalid(MinvecError):
    """An induction datum or query violates a structural precondition."""


class ConstructionFailure(MinvecError):
    """A construction the theory guarantees failed; falsifies the build."""
