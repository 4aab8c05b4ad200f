"""The surface of periodic states sharing one comb map.

A single block repeated periodically determines a band operator; the
block lies on the surface when the trace of its transfer matrix equals
the comb map of the target gap set.  That reduces to g+2 scalar
residual equations.  This module evaluates the residuals and projects
nearby blocks onto the surface by Gauss-Newton iteration.  The operator
identity that characterises surface points, that the comb map applied
to the periodic operator is the sum of the two block shifts, is checked
through ``ks.delta_of_gmp`` (acceptance criterion 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .finitegap import DeltaData
from .gmp import GmpBlock, lambda_k

SURFACE_TOL = 1e-9
SOLVE_TARGET = 1e-12
MAX_ITERATIONS = 100
FD_STEP_REL = 1e-6


def is_residual(blk: GmpBlock, d: DeltaData) -> np.ndarray:
    """Surface residuals of a periodically repeated block.

    Returns the g+2 vector
    (lambda0 * p_g - 1,
     lambda0 * sum_j p_j q_j + c0,
     Lambda_k - lambda_k for k = 1..g);
    it vanishes exactly when the periodic operator's transfer trace
    reproduces the comb map of ``d``.  A stack of blocks gives one such
    vector per row, on the last axis.
    """
    g = blk.g
    if len(d.poles) != g:
        raise ValidationError(
            f"block has {g} trailing slots but the map has {len(d.poles)} poles"
        )
    out = np.empty(blk.p.shape[:-1] + (g + 2,))
    out[..., 0] = d.lambda0 * blk.p[..., g] - 1.0
    out[..., 1] = d.lambda0 * np.vecdot(blk.p, blk.q) + d.c0
    out[..., 2:] = lambda_k(blk, d.cs()) - d.lams()
    return out


def intrinsic_offset(blk: GmpBlock) -> float:
    """Constant term of the block's own transfer trace expansion."""
    return -float(np.dot(blk.p, blk.q)) / float(blk.p[-1])


@dataclass(frozen=True)
class IsPoint:
    """A block on the surface, together with its comb map context."""

    block: GmpBlock
    delta: DeltaData

    def __post_init__(self):
        worst = float(np.max(np.abs(self.residual())))
        if worst > SURFACE_TOL:
            raise ValidationError(
                f"residual {worst:.3e} exceeds surface tolerance {SURFACE_TOL:.1e}"
            )

    def residual(self) -> np.ndarray:
        return is_residual(self.block, self.delta)


def _fd_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian, one column per coordinate.

    ``fun`` evaluates the 2n points x + h_i e_i, x - h_i e_i as one stack.
    """
    n = x.size
    h = FD_STEP_REL * np.maximum(1.0, np.abs(x))
    idx = np.arange(n)
    pts = np.tile(x, (2 * n, 1))
    pts[idx, idx] += h
    pts[n + idx, idx] -= h
    vals = fun(pts)
    return ((vals[:n] - vals[n:]) / (2.0 * h[:, None])).T


def _gauss_newton(fun, x0: np.ndarray) -> np.ndarray:
    """Minimum-norm Gauss-Newton iteration with step halving.

    ``fun`` maps coordinates to the residual vector, which is driven
    below ``SOLVE_TARGET``.
    """
    x = x0.copy()
    r = fun(x)
    best = float(np.max(np.abs(r)))
    for _ in range(MAX_ITERATIONS):
        if best <= SOLVE_TARGET:
            return x
        jac = _fd_jacobian(fun, x)
        gram = jac @ jac.T
        try:
            step = -jac.T @ np.linalg.solve(gram, r)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"normal equations broke down: {exc}") from exc
        alpha = 1.0
        for _ in range(40):
            trial = x + alpha * step
            r_trial = fun(trial)
            trial_norm = float(np.max(np.abs(r_trial)))
            if trial_norm < best:
                x, r, best = trial, r_trial, trial_norm
                break
            alpha *= 0.5
        else:
            raise NumericalError(
                f"projection stalled at residual {best:.3e}"
            )
    if best <= SOLVE_TARGET:
        return x
    raise NumericalError(
        f"no convergence after {MAX_ITERATIONS} iterations "
        f"(residual {best:.3e})"
    )


def solve_is_point(d: DeltaData, seed: GmpBlock) -> IsPoint:
    """Project a nearby block onto the surface.

    The trailing p entry is pinned to 1/lambda0 exactly; the remaining
    2g+1 coordinates are driven to zero residual by minimum-norm
    Gauss-Newton steps.
    """
    g = seed.g
    p_fixed = 1.0 / d.lambda0
    start = GmpBlock(
        np.concatenate([seed.p[:g], [p_fixed]]), seed.q
    )
    with np.errstate(all="ignore"):  # a non-finite residual is refused below
        worst = np.max(np.abs(is_residual(start, d)))
    if not worst < 1.0:
        raise ValidationError(
            f"seed residual {worst:.3e} too large; start closer to the surface"
        )

    def fun(x):
        """Residual entries 1..g+1 at the point x, or at each row of x."""
        pts = np.atleast_2d(x)
        P = np.column_stack([pts[:, :g], np.full(len(pts), p_fixed)])
        return is_residual(GmpBlock(P, pts[:, g:]), d)[:, 1:].reshape(x.shape[:-1] + (g + 1,))

    x0 = np.concatenate([start.p[:g], start.q])
    x = _gauss_newton(fun, x0)
    block = GmpBlock(np.concatenate([x[:g], [p_fixed]]), x[g:])
    return IsPoint(block, d)
