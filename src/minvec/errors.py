"""Exception types shared by all minvec modules."""


class MinvecError(Exception):
    """Base class for all toolkit errors."""


class BudgetExceeded(MinvecError):
    """An enumeration or search exceeded its configured budget.

    Carries an estimate of the required size where one is known.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DatumInvalid(MinvecError):
    """An induction datum or query violates a structural precondition."""


class ConstructionFailure(MinvecError):
    """A construction the theory guarantees failed; falsifies the build."""
