"""Exception hierarchy shared across the package.

The CLI maps these onto its contractual exit codes, so new error types
should subclass one of the classes below rather than raising bare
ValueError from library code.
"""


class MeanexpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MeanexpError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateFieldError(DomainError):
    """The requested field construction collapses (e.g. equal quadratic subfields)."""


class InfeasibleProblemError(MeanexpError):
    """The fixed data of an optimization problem already violates the basic inequality."""


class NeedsLargerEnumerationError(MeanexpError):
    """The candidate list was exhausted before the budget was consumed."""


class SeriesError(MeanexpError):
    """A power series does not have the structure the operation requires."""


class InapplicableError(MeanexpError):
    """The identity being evaluated does not apply to these parameters."""


class InconsistentParametersError(MeanexpError):
    """Numerically valid inputs that contradict each other."""


class SchemaError(MeanexpError):
    """A scenario file violates the input schema.

    `location` names the offending field (dotted path) for diagnostics.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location

    def __str__(self):
        base = super().__str__()
        if self.location:
            return f"{self.location}: {base}"
        return base


class InternalInconsistencyError(MeanexpError):
    """A self-check failed; indicates a bug, not bad input."""
