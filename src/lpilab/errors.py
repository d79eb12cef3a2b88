"""Exception types shared across the workbench.

Everything raised on purpose derives from LpiLabError, so the command line
front end can map "the input was bad or a precondition failed" to a single
exit code without guessing which layer complained.
"""


class LpiLabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(LpiLabError):
    """Bad expression text. Carries line and column of the offending token,
    or None for both when the fault is in the whole text."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class RingMismatch(LpiLabError):
    """Operands live in different coefficient rings with no canonical embedding."""


class Inadmissible(LpiLabError):
    """A nonconstant word has exponent sum zero in every variable."""


class NonUnit(LpiLabError):
    """A negative exponent was applied to an element with no inverse."""


class CapExceeded(LpiLabError):
    """An exhaustive enumeration would exceed the configured cap."""


class DiagonalCollapse(LpiLabError):
    """Sending every variable to the same symbol cancelled all terms."""


class PreconditionError(LpiLabError):
    """An operation was called on input outside its stated domain."""


class SolveError(LpiLabError):
    """An exact linear solve produced a value outside the original ring."""
