"""Exception types shared across the package."""


class NumericFailure(ArithmeticError):
    """A numerical routine detected corrupted or non-finite state.

    Raised when a quantity that is positive by construction (a Sherman-Morrison
    denominator, a quadratic form in a PD matrix, a CG curvature term) comes out
    non-positive or non-finite, or when the local-norm projection misses its tolerance.

    When the failing routine worked on a stack (one row per seed run in
    lockstep) ``index`` is the row that failed; otherwise it is None. The
    message never depends on the row, so a seed fails with the same text in a
    stack as on its own.
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ConfigError(ValueError):
    """A configuration key is unknown, has the wrong type, or is out of range."""
