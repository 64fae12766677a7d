"""Exception types shared across the toolkit."""


class ConvmaxError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(ConvmaxError, ValueError):
    """Grid functions with different dimensions cannot be combined."""


class MemoryCapExceeded(ConvmaxError, ValueError):
    """A dense table would exceed the configured entry cap."""


class ZeroMassInput(ConvmaxError, ValueError):
    """A norm-ratio consumer received a function with zero total mass."""


class ZeroDenominator(ConvmaxError, ZeroDivisionError):
    """A likelihood-ratio style quotient has a vanishing denominator."""


class BoundaryParameter(ConvmaxError, ValueError):
    """A ratio/residual operation received a parameter on {0,1}.

    Carries the index of the offending coordinate.
    """

    def __init__(self, coordinate):
        super().__init__(f"parameter p[{coordinate}] lies on the boundary {{0,1}}")
        self.coordinate = coordinate


class UnimodalityViolation(ConvmaxError, AssertionError):
    """The unimodality chain failed for a pmf.

    Mathematically impossible for a genuine Poisson-binomial pmf; signals a
    numerical or implementation bug.
    """


class BudgetExceeded(ConvmaxError, ValueError):
    """An exhaustive sweep or solver run would exceed its configured budget."""


class BoundValidityError(ConvmaxError, ValueError):
    """A computed upper bound violated a known rigorous lower bound."""
