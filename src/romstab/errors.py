"""Exception types raised by romstab.

Plain ``ValueError`` is used for ordinary precondition violations (bad
shapes, out-of-range parameters).  The classes below mark conditions a
caller may reasonably want to catch and handle separately.
"""


class RomStabError(Exception):
    """Base class for romstab-specific failures."""


class ConvergenceError(RomStabError):
    """An iterative kernel failed to converge.

    Carries the best residual seen so the caller can judge how close the
    computation got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankDeficiencyError(RomStabError):
    """A matrix that must have full rank does not.

    ``column`` names the first offending column when that is known.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class InfeasibleError(RomStabError):
    """A constrained fit cannot reach the requested tolerance.

    ``best_residual`` records the smallest residual norm achieved before
    giving up.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class NumericalRangeError(RomStabError):
    """A result lies outside the double-precision range (it overflows)."""


class FormatError(RomStabError):
    """A file on disk does not follow one of the documented formats."""
