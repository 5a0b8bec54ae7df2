"""Exception types shared across the package, one per exit code of the
command line.

- :class:`SplitnormError`: a parse, config or parameter error (exit 2);
- :class:`InapplicableHypothesis`: a hypothesis of the requested result
  does not hold for the inputs (exit 3);
- :class:`BudgetExceeded`: the work or the error target is out of budget
  (exit 4);
- :class:`InvariantViolation`: an internal exact identity failed (exit 2).
"""


class SplitnormError(Exception):
    """Base class for all package errors; raised itself for a parse, config or parameter error."""


class InvariantViolation(SplitnormError):
    """An internal exact identity failed: a bug, never a property of the input."""


class BudgetExceeded(SplitnormError):
    """The work or the error target is out of budget: the numeric engine's node
    cap, or the exact engines' predicted-work cap.

    Carries the best result obtained so far in ``result`` when available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InapplicableHypothesis(SplitnormError):
    """A bound was requested whose hypotheses do not hold for the inputs."""
