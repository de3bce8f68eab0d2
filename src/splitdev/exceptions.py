"""Exception types shared across the library."""


class SplitdevError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SplitdevError, ValueError):
    """A bad value, an argument or a model parameter alike: not a number of
    its kind, non-finite or outside its admissible range."""


class ShapeError(SplitdevError, ValueError):
    """Array dimensions are mutually inconsistent."""


class CausalityError(SplitdevError, ValueError):
    """The coupling pair (C, Q) admits no nondecreasing staircase vector."""


class SchemeValidationError(SplitdevError, ValueError):
    """A solve was attempted with a scheme that fails its structural checks."""


class BudgetViolationError(SplitdevError, RuntimeError):
    """A deviation pair exceeded its norm budget."""


class DivergenceError(SplitdevError, RuntimeError):
    """Iterates blew up or turned into NaNs."""


class CsvParseError(SplitdevError, ValueError):
    """Malformed returns CSV input.

    Carries the 1-based line number of the offending row in ``line``.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class OracleFailureError(SplitdevError, RuntimeError):
    """A solve that a result depends on hit ``max_iter``."""
