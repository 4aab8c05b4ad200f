"""Exception types shared across the package, ``check``, ``read_numbers``,
the one reader of a JSON record, and ``check_entries``, its number rule.

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

import json
import math
import re
from contextlib import suppress
from itertools import chain

import numpy as np

# Largest magnitude whose square is still a finite double.
SQUARE_MAX = math.sqrt(np.finfo(float).max)
# The largest double: as a limit it refuses only NaN and +-inf.
DOUBLE_MAX = float(np.finfo(float).max)


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


def read_numbers(record, spec: str, kind: type = float):
    """The numbers of a JSON record at ``spec``, a path of keys and list
    axes (``blocks[].p[]``; ``[2]``: of two entries): a float array with an
    axis per list axis, else a float, or an int for ``kind=int`` (integral,
    of magnitude at most 2**53).  A number is an int or a float, not a bool
    (NaN and Infinity count); the lists of one axis share one length.
    Anything else is a ValidationError that names the outermost fault, the
    first in file order, by its path and its value as JSON spells it:
    ``C[0] = null is not a number``.  It is built only on failure."""
    nodes, shape, path = [record], [], ""  # path: of this level, "{}" per list index

    def refusal(why) -> ValidationError:  # why(node): what is wrong with it, or None
        i, wrong = next((i, w) for i, x in enumerate(nodes) if (w := why(x)))
        name, text = path.format(*np.unravel_index(i, shape)), json.dumps(nodes[i], default=repr)
        text = text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"
        return ValidationError(wrong.format(name=name, value=f"{name or 'record'} = {text}"))

    for key, n in re.findall(r"(\w+)|\[(\d*)\]", spec):
        if key:
            try:
                nodes, path = [x[key] for x in nodes], f"{path}.{key}" if path else key
            except (KeyError, TypeError):  # a node that is not an object, or lacks key
                raise refusal(lambda x: "{value} is not an object" if not isinstance(x, dict) else
                              None if key in x else f"{path and '{name}.'}{key} is missing") from None
            continue
        want = int(n) if n else len(nodes[0]) if nodes and type(nodes[0]) is list else 0
        if set(map(type, nodes)) - {list} or set(map(len, nodes)) - {want}:
            raise refusal(lambda x: "{value} is not a list" if type(x) is not list else
                          None if len(x) == want else f"{{name}} has {len(x)} entries, not {want}")
        nodes, shape, path = list(chain.from_iterable(nodes)), shape + [want], path + "[{}]"
    if all(t is not bool and issubclass(t, (int, float)) for t in set(map(type, nodes))):
        if not shape and not _why(nodes[0], kind):
            return kind(nodes[0])
        with suppress(OverflowError):  # an integer past the largest double
            if shape:
                return np.array(nodes, dtype=float).reshape(shape)
    raise refusal(lambda x: (why := _why(x, kind)) and "{value} " + why)


def check_entries(arrays: dict, name: str = "{key}", axis: int = 0, limit=SQUARE_MAX) -> list:
    """The number rule of every record, in process as from JSON: the values
    (numbers, or lists, tuples or arrays as deep as ``name`` has indices)
    as read-only float arrays, floats where it has none, refusing the first
    entry, in the C order of ``np.stack(values, axis)`` (the JSON file's),
    that ``read_numbers``' leaf rule refuses (numpy's scalars count) or that
    is NaN, +-inf or above ``limit``, as ``name.format(*index, key=key)``; a
    float array costs one reduction.  Values of other shapes are returned
    unjudged (a 0-d NaN if ragged) for the caller's shape rule."""
    axes = name.count("{") - name.count("{key}")
    values, faults, ok = zip(*[_read(x, axes, limit) for x in arrays.values()])
    for x in values if axes else ():
        x.setflags(write=False)
    if all(ok) or len({np.shape(x) for x in values}) > 1 or np.ndim(values[0]) != axes:
        return list(values)
    stacked, axis = np.stack(values, axis), axis % (axes + 1)
    at = np.unravel_index(np.argmin(np.abs(stacked) <= limit), stacked.shape)
    k, index, value = at[axis], at[:axis] + at[axis + 1:], stacked[at]
    text, why = faults[k].get(index) or (f"{value:.6g}", "is not a number" if np.isnan(value) else
                                         "is infinite" if np.isinf(value) else
                                         "is too large: its square overflows")
    raise ValidationError(f"{name.format(*index, key=list(arrays)[k])} = {text} {why}")


def check_integer(x, name: str) -> int:
    """``read_numbers``' integer rule for a value made in process (numpy's too)."""
    if why := _why(x.item() if isinstance(x, np.generic) else x, int):
        raise ValidationError(f"{name} = {x!r} {why}")
    return int(x)


def _read(x, axes: int, limit) -> tuple:
    """x as a float array (a float where ``axes`` is 0; a 0-d NaN if ragged), its
    leaves that are not numbers as ``{index: (repr, why)}``, and whether all pass."""
    if isinstance(x, np.ndarray) and x.dtype == float and axes:
        return (x := np.array(x)), {}, np.abs(x).max(initial=0.0) <= limit  # NaN fails too
    if type(x) is float and not axes:
        return x, {}, -limit <= x <= limit
    nodes, shape = [x], []
    for _ in range(axes):
        nodes = [v.tolist() if isinstance(v, np.ndarray) else v for v in nodes]
        if not all(isinstance(v, (list, tuple)) for v in nodes) or len(set(map(len, nodes))) > 1:
            return np.array(np.nan), {}, False
        shape, nodes = shape + [len(nodes[0]) if nodes else 0], list(chain.from_iterable(nodes))
    faults = {}
    if not set(map(type, nodes)) <= {float}:
        whys = [_why(v.item() if isinstance(v, np.generic) else v, float) for v in nodes]
        faults = {np.unravel_index(i, shape): (repr(nodes[i]), w) for i, w in enumerate(whys) if w}
        nodes = [np.nan if w else float(v) for v, w in zip(nodes, whys)]
    ok = not faults and all(-limit <= v <= limit for v in nodes)
    return np.array(nodes).reshape(shape) if axes else nodes[0], faults, ok


def _why(x, kind: type) -> str | None:
    """What is wrong with the leaf x, or None."""
    number = type(x) is not bool and isinstance(x, (int, float))
    integral = number and (isinstance(x, int) or x.is_integer())
    if kind is float:  # 2**1024 - 2**970 is the least integer that rounds past a double
        too_large = integral and abs(x) >= 2**1024 - 2**970
        return "is not a number" if not number else "is too large for a double" if too_large else None
    if not integral:
        return "is not an integer"
    return "is not an integer of magnitude at most 2**53" if abs(x) > 2**53 else None
