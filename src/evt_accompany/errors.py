"""Exception types shared across the package.

Three exit-code categories for the CLI: parse (2), domain (3), numerical (4).
Library code raises the specific class; the CLI exits with its exit_code. A
MismatchError, such as check-identity's verdict, is numerical (4).
"""


class EvtError(Exception):
    """Base class for all package errors."""

    def at(self, where: str) -> "EvtError":
        """The same error with `where` (e.g. "n=1000") appended to its message."""
        return type(self)(f"{self} (at {where})")


class ParseError(EvtError):
    """A distribution spec string or CLI flag could not be parsed."""

    exit_code = 2


class DomainError(EvtError):
    """An argument is outside the mathematical domain of the operation."""

    exit_code = 3


class MismatchError(EvtError):
    """Two objects that must agree (norming pairs sharing n, check-identity's
    two laws) do not: a numerical failure, exit 4."""

    exit_code = 4


class QuadratureError(EvtError):
    """Adaptive integration failed to reach tolerance within its depth cap."""

    exit_code = 4


class ConvergenceError(EvtError):
    """A root finder exceeded its iteration cap."""

    exit_code = 4


class DivergenceError(EvtError):
    """An iteration or series left its region of convergence."""

    exit_code = 4


class DegenerateError(EvtError):
    """Input data is degenerate for the requested fit (too few points, zero errors)."""

    exit_code = 4
