"""Comb maps for finite-gap spectral sets.

A finite-gap set ``E = [b0, a0] \\ union of open gaps (a_j, b_j)`` carries
a distinguished rational map ``Delta`` with ``Delta^{-1}([-2, 2]) = E``:

    Delta(z) = lambda0 * z + c0 + sum_k lambda_k / (c_k - z)
             = 2 * (P_a(z) + P_b(z)) / (P_b(z) - P_a(z)),

where ``P_a(z) = prod_j (z - a_j)`` over the gap left endpoints together
with ``a0``, and ``P_b`` likewise over ``b0`` and the gap right endpoints.
Each gap contains exactly one pole ``c_k`` (a root of ``P_b - P_a``), all
``lambda_k`` are positive, and ``Delta`` sweeps ``[-2, 2]`` exactly once
on every band.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (DegenerateGapError, PoleEvaluationError, ValidationError, check,
                     check_entries, read_numbers)

GAP_REL_TOL = 1e-12
# Relative distance within which two poles, or a point and a pole, coincide.
POLE_REL_TOL = 1e-12
ZERO_RESIDUAL_REL_TOL = 1e-11


def check_distinct_poles(c) -> None:
    """Refuse two poles within ``POLE_REL_TOL * max(1, |c|)`` of each other."""
    # Python floats: every window passes here, and for a few poles a loop
    # beats numpy (whose np.sort pages in 0.1-0.3 MB of SIMD kernels).
    cs = sorted(np.asarray(c, dtype=float).tolist())
    for a, b in zip(cs, cs[1:]):
        if b - a <= POLE_REL_TOL * max(1.0, abs(b)):
            raise ValidationError(f"poles at {a} and {b} coincide")


def _pairs(entries, name: str) -> tuple:
    """Pairs given as tuples, lists or the rows of a (g, 2) array, as
    given; the first entry that is not a pair, ``name[k]``, is refused."""
    entries = entries.tolist() if isinstance(entries, np.ndarray) else entries
    if isinstance(entries, str) or not isinstance(entries, Iterable):
        raise ValidationError(f"{name} = {entries!r} is not a list of pairs")
    entries = tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in entries)
    for k, x in enumerate(entries):
        if not (isinstance(x, (tuple, list)) and len(x) == 2):
            raise ValidationError(f"{name}[{k}] = {x!r} is not a pair")
    return entries


@dataclass(frozen=True)
class GapSet:
    """The set ``[b0, a0]`` minus the open gaps ``(a_j, b_j)``.

    Gaps are ordered left to right, pairwise disjoint and strictly inside
    the outer interval.
    """

    b0: float
    a0: float
    gaps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        b0, a0 = check_entries({"b0": self.b0, "a0": self.a0})
        gaps, = check_entries({"gaps": _pairs(self.gaps, "gaps")}, "{key}[{0}][{1}]")
        vars(self).update(b0=b0, a0=a0, gaps=tuple(map(tuple, gaps.tolist())))  # frozen
        if self.b0 >= self.a0:
            raise ValidationError(f"outer interval is empty: [{self.b0}, {self.a0}]")
        left = self.b0
        for k, (a, b) in enumerate(self.gaps):
            if a >= b:
                raise ValidationError(f"gap {k} = ({a}, {b}) is not an increasing pair")
            if a <= left:
                raise ValidationError(f"gap {k} = ({a}, {b}) overlaps its left neighbour")
            left = b
        if self.gaps and self.gaps[-1][1] >= self.a0:
            raise ValidationError("last gap reaches beyond the outer interval")

    @property
    def g(self) -> int:
        return len(self.gaps)

    @property
    def diameter(self) -> float:
        return self.a0 - self.b0

    def a_points(self) -> np.ndarray:
        """Roots of P_a: the gap left endpoints and the right outer endpoint."""
        return np.array([a for a, _ in self.gaps] + [self.a0])

    def b_points(self) -> np.ndarray:
        """Roots of P_b: the left outer endpoint and the gap right endpoints."""
        return np.array([self.b0] + [b for _, b in self.gaps])

    def bands(self) -> list[tuple[float, float]]:
        lows = [self.b0] + [b for _, b in self.gaps]
        highs = [a for a, _ in self.gaps] + [self.a0]
        return list(zip(lows, highs))

    def to_json(self) -> dict:
        return {
            "b0": self.b0,
            "a0": self.a0,
            "gaps": [[a, b] for a, b in self.gaps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GapSet":
        return cls(read_numbers(data, "b0"), read_numbers(data, "a0"),
                   read_numbers(data, "gaps[][2]"))


@dataclass(frozen=True)
class DeltaData:
    """Partial-fraction data of a comb map: slope, offset and gap poles,
    all finite and small enough to square; positive slope and weights."""

    lambda0: float
    c0: float
    poles: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        lambda0, c0 = check_entries({"lambda0": self.lambda0, "c0": self.c0})
        poles = _pairs(self.poles, "poles")
        c, lam = check_entries({"c": [x[0] for x in poles], "lambda": [x[1] for x in poles]},
                               "poles[{0}].{key}", axis=1)
        vars(self).update(lambda0=lambda0, c0=c0,  # frozen
                          poles=tuple(zip(c.tolist(), lam.tolist())))
        if self.lambda0 <= 0:
            raise ValidationError(f"slope must be positive, got {self.lambda0}")
        for pole, weight in self.poles:
            if weight <= 0:
                raise ValidationError(f"pole weight at {pole} must be positive")
        check_distinct_poles(c)

    @property
    def g(self) -> int:
        return len(self.poles)

    def cs(self) -> np.ndarray:
        return np.array([c for c, _ in self.poles])

    def lams(self) -> np.ndarray:
        return np.array([l for _, l in self.poles])

    def aligned_to(self, c) -> "DeltaData":
        """The same map with its poles listed in the order of the poles ``c``,
        which must match them within 1e-12 absolute."""
        c, cs = np.asarray(c, dtype=float), self.cs()
        if c.size != cs.size:
            raise ValidationError("window poles differ from the map poles")
        check("window poles differ from the map poles by", np.abs(np.sort(c) - np.sort(cs)),
              1e-12, ValidationError)
        by_rank = np.argsort(cs)[np.argsort(np.argsort(c))]  # same rank as c[i]
        return DeltaData(self.lambda0, self.c0, [self.poles[i] for i in by_rank])

    def to_json(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "c0": self.c0,
            "poles": [{"c": c, "lambda": l} for c, l in self.poles],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeltaData":
        cs, lams = (read_numbers(data, f"poles[].{key}").tolist() for key in ("c", "lambda"))
        return cls(read_numbers(data, "lambda0"), read_numbers(data, "c0"), zip(cs, lams))


def gap_zeros(gapset: GapSet) -> np.ndarray:
    """The pole locations: one root of P_b - P_a inside each gap, from one
    ``numkit.bisect_root`` call over all gaps.  P_b and P_a are formed by
    ``np.multiply.reduce``, the reduction of ``np.prod`` without its wrapper.

    Raises DegenerateGapError for the first gap of (numerically) zero
    length, else for the first pole whose residual |(P_b - P_a)(c_k)|
    exceeds 1e-11 times the local polynomial scale.
    """
    a_pts, b_pts = gapset.a_points(), gapset.b_points()
    lo, hi = a_pts[:-1], b_pts[1:]
    short = hi - lo <= GAP_REL_TOL * max(1.0, gapset.diameter)
    if short.any():
        k = int(np.argmax(short))
        raise DegenerateGapError(f"gap {k} = {gapset.gaps[k]} has numerically zero length")
    ends = np.stack([b_pts, a_pts])
    products = lambda x: np.multiply.reduce(x[:, None, None] - ends, axis=2).T
    cs = numkit.bisect_root(lambda x: np.subtract(*products(x)), lo, hi)
    pb, pa = products(cs)
    check(lambda k: f"gap {k}: pole residual", np.abs(pb - pa),
          ZERO_RESIDUAL_REL_TOL * (np.abs(pa) + np.abs(pb) + 1.0), DegenerateGapError)
    return cs


def delta_from_gaps(gapset: GapSet) -> DeltaData:
    """Partial-fraction data of the comb map of a gap set.

    The slope is 4 / (sum a_j - sum b_j).  At a pole P_a = P_b, so the
    residue of the ratio form there is
    lambda_k = 4 / (sum_j 1/(c_k - a_j) - sum_j 1/(c_k - b_j)).  The
    offset makes the map equal 2 at the right outer endpoint:
    c0 = 2 - lambda0 * a0 - sum_k lambda_k / (c_k - a0).
    """
    a_pts, b_pts = gapset.a_points(), gapset.b_points()
    lambda0 = 4.0 / float(np.sum(a_pts) - np.sum(b_pts))
    cs = gap_zeros(gapset)
    inv_a, inv_b = 1.0 / (cs[:, None] - a_pts), 1.0 / (cs[:, None] - b_pts)
    lams = 4.0 / (np.sum(inv_a, axis=1) - np.sum(inv_b, axis=1))
    c0 = float(2.0 - lambda0 * gapset.a0 - np.sum(lams / (cs - gapset.a0)))
    return DeltaData(lambda0, c0, tuple(zip(cs.tolist(), lams.tolist())))


def eval_delta(delta: DeltaData, z):
    """Evaluate the comb map; complex arguments are allowed.

    Raises PoleEvaluationError when a real argument sits on a pole.
    """
    z_arr = np.asarray(z)
    cs = delta.cs()
    dist = np.abs(z_arr[..., None] - cs)
    near = np.any(dist <= POLE_REL_TOL * np.maximum(1.0, np.abs(cs)), axis=-1)
    if near.any():
        raise PoleEvaluationError(
            f"argument {z_arr[near].flat[0]} coincides with a pole of the comb map"
        )
    tail = np.sum(delta.lams() / (cs - z_arr[..., None]), axis=-1)
    result = delta.lambda0 * z_arr + delta.c0 + tail
    return result if result.ndim else result[()]
