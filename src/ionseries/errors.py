"""Exception types for the ionseries package.

Every error raised by the library derives from :class:`IonSeriesError`, so callers
can catch one base class. Each subclass corresponds to one documented failure mode
of the public API.
"""

from __future__ import annotations

__all__ = [
    "IonSeriesError", "InvalidBasisError", "BasisMismatchError", "SingularRecurrenceError",
    "ConstraintInfeasibleError", "DegenerateQuadraticError", "PoleError", "TruncationError",
    "NonHermitianError", "NoSolutionFoundError", "DegenerateCaseError",
]


class IonSeriesError(Exception):
    """Base class for all ionseries errors."""


class InvalidBasisError(IonSeriesError):
    """A FockBasis is unusable for the requested operation (e.g. cutoff < 2)."""


class BasisMismatchError(IonSeriesError):
    """Two objects live in incompatible bases, or an operation requires a
    different spin dimension than the basis provides."""


class SingularRecurrenceError(IonSeriesError):
    """The series recurrence is singular (the coupling g = lamb_dicke/2 vanishes,
    so the 1/g update is undefined). The zero-coupling regime is handled by
    :func:`ionseries.series.special_case_small_eta`."""


class ConstraintInfeasibleError(IonSeriesError):
    """A closed-form constraint has no real solution at the requested parameters
    (negative radicand / empty feasible set)."""


class DegenerateQuadraticError(IonSeriesError):
    """The order-2 constraint quadratic degenerates (leading coefficient 0,
    i.e. g = 1)."""


class PoleError(IonSeriesError):
    """A rational constraint expression was evaluated at (or numerically on top
    of) a pole of one of its denominators.

    Attributes
    ----------
    location : str
        Which denominator vanished and at what parameter values.
    value : float
        The offending denominator's magnitude.
    """

    def __init__(self, message: str, location: str = "", value: float = 0.0):
        super().__init__(message)
        self.location = location
        self.value = value


class TruncationError(IonSeriesError):
    """A finite-basis construction does not fit in the requested cutoff
    (tail-mass or residual budget exceeded)."""


class NonHermitianError(IonSeriesError):
    """The eigensolver was handed a matrix whose Hermiticity defect is not
    below tolerance (a NaN defect included).

    Attributes
    ----------
    defect : float
        max |H - H^dagger| entrywise.
    """

    def __init__(self, message: str, defect: float = 0.0):
        super().__init__(message)
        self.defect = defect


class NoSolutionFoundError(IonSeriesError):
    """The numerical termination solver did not converge from any start. This is
    a statement about the search, not a proof of nonexistence.

    Attributes
    ----------
    residual_trace : list
        Per-start final max-norm residuals, for diagnosis.
    """

    def __init__(self, message: str, residual_trace=None):
        super().__init__(message)
        self.residual_trace = list(residual_trace or [])


class DegenerateCaseError(IonSeriesError):
    """A limit construction is undefined because two defining parameters vanish
    simultaneously."""
