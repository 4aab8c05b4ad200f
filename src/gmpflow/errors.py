"""Exception types shared across the package, and ``check``.

Each failure mode the numerical layer can report has its own class so
callers can distinguish validation problems (bad input data) from
numerical breakdowns (a computation that started but could not finish
within tolerance).  Every numerical contract that holds a value against
a tolerance refuses through ``check``, in one wording and with NaN
refused (and +inf, by a floor); only the rules whose class carries data
(a pivot) or names the input (a point too close to a pole, a spectrum or
a zero-length gap) stay outside it.
"""

from __future__ import annotations

import numbers

import numpy as np


class GmpflowError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GmpflowError, ValueError):
    """Input data violates a documented precondition."""


class NumericalError(GmpflowError, ArithmeticError):
    """A computation ran but failed its accuracy contract."""


class SingularMatrixError(NumericalError):
    """A linear solve hit a pivot below tolerance.

    ``pivot_index`` is the 0-based index of the failing pivot and
    ``pivot_value`` its magnitude.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is singular to working precision: pivot {pivot_index} "
            f"has magnitude {pivot_value:.3e}"
        )


class NotSymmetricError(ValidationError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(NumericalError):
    """A factorization found a non-positive leading minor.

    ``minor_index`` is the 0-based index of the first failing pivot, i.e.
    the leading principal minor of order ``minor_index + 1`` is not
    positive.
    """

    def __init__(self, minor_index: int, pivot_value: float):
        self.minor_index = minor_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: leading minor of order "
            f"{minor_index + 1} fails (pivot {pivot_value:.3e})"
        )


class NoSignChangeError(ValidationError):
    """A bracketing root-finder was called without a sign change."""


class DegenerateGapError(ValidationError):
    """A spectral gap has (numerically) zero length."""


class PoleEvaluationError(ValidationError):
    """A rational function was evaluated at (or too close to) one of its poles."""


class WindowError(ValidationError):
    """A block window is too short or badly indexed for the operation."""


class SpectrumProximityError(ValidationError):
    """A requested shift sits too close to the spectrum of an operator."""


def check(what, value, limit, exc: type = NumericalError, floor: bool = False) -> None:
    """Refuse unless ``value <= limit`` (``limit <= value < inf`` when
    ``floor``: an overflowed value holds no margin), so NaN is always
    refused.  ``value`` and ``limit`` broadcast; the ``exc`` raised names
    the first failing entry, "{what} {value:.3e} exceeds {limit:.3e}" ("is
    below" for a floor, and "inf is not finite" there), where ``what`` is a
    string or a function from that entry's flat index to one.  Nothing is
    formatted when every entry passes."""
    ok = (value >= limit) & (value < np.inf) if floor else value <= limit
    if ok is True or np.all(ok):  # Python floats compare to a bool
        return
    value, limit, ok = (np.ravel(x) for x in np.broadcast_arrays(value, limit, ok))
    i = int(np.argmin(ok))
    name = what(i) if callable(what) else what
    bound = f"{'is below' if floor else 'exceeds'} {limit[i]:.3e}"
    raise exc(f"{name} {value[i]:.3e} {'is not finite' if floor and value[i] == np.inf else bound}")


def integral(value, field: str) -> int:
    """A number with no fractional part (3 or 3.0, not 1.5 or true) and of
    magnitude at most 2**53, past which a JSON number no longer names one
    integer, as an int; otherwise a ValidationError naming ``field``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            if abs(value) > 2**53:
                raise ValidationError(f"{field} must be an integer of magnitude at most 2**53")
            return int(value)
    raise ValidationError(f"{field} must be an integer, got {value!r}")
