"""Exception types shared across the package."""


class SplitnormError(Exception):
    """Base class for all package errors."""


class InvariantViolation(SplitnormError):
    """An internal exact identity failed: a bug, never a property of the input."""


class ParseError(SplitnormError):
    """A function spec, coefficient file, or config could not be parsed."""


class NonRealInput(SplitnormError):
    """An operation that requires real-valued data received complex input."""


class ZeroPolynomial(SplitnormError):
    """Root isolation was asked about the identically zero polynomial."""


class NegativeShift(SplitnormError):
    """The split operator requires a nonnegative shift."""


class InvalidSpec(SplitnormError):
    """A generalized-split specification violates its support constraints."""


class OddOrNonintegerP(SplitnormError):
    """The exact engine only handles even integer exponents."""


class OddP(OddOrNonintegerP):
    """An even exponent was required."""


class InvalidOffsets(SplitnormError):
    """Generalized-split offsets must satisfy |b| <= A."""


class NegativeNorm(SplitnormError):
    """A norm factor must be nonnegative."""


class TailDivergence(SplitnormError):
    """The tail integral of |f^|^p diverges for p <= 1."""


class BudgetExceeded(SplitnormError):
    """The requested error target is unreachable within the node budget.

    Carries the best result obtained so far in ``result`` when available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class POutOfRange(SplitnormError):
    """Multiplier constants are defined for 1 < p < infinity."""


class MissingInput(SplitnormError):
    """A bound report is missing a required input."""


class InapplicableHypothesis(SplitnormError):
    """A bound was requested whose hypotheses do not hold for the inputs."""


class UnverifiedPositivity(SplitnormError):
    """The positive-kernel exact norm requires a verified or asserted kernel."""


class GridOverflow(SplitnormError):
    """A discrete multiplier shift would move support off the grid."""
