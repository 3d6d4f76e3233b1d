"""Exception types shared across the package."""


class NumericFailure(ArithmeticError):
    """A numerical routine detected corrupted or non-finite state.

    Raised when a quantity that is positive by construction (a Sherman-Morrison
    denominator, a quadratic form in a PD matrix, a CG curvature term) comes out
    non-positive or non-finite, or when the local-norm projection misses its tolerance.

    On a stack (one row per seed run in lockstep) the message names no row,
    so a seed fails with the same text in a stack as on its own. A scenario
    throws such a stack away and runs its seeds again one at a time.
    """


class ConfigError(ValueError):
    """A configuration key is unknown, has the wrong type, or is out of range."""
