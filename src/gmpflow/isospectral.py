"""The surface of periodic states sharing one comb map.

A single block repeated periodically determines a band operator; the
block lies on the surface when the trace of its transfer matrix equals
the comb map of the target gap set.  That reduces to g+2 scalar
residual equations.  This module evaluates the residuals, projects
nearby blocks onto the surface by Gauss-Newton iteration, measures the
distance to it, and verifies the operator identity that characterises
surface points: the comb map applied to the periodic operator is the
sum of the two block shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .finitegap import DeltaData, apply_comb_map
from .gmp import GmpBlock, GmpWindow, assemble_wrapped, lambda_k, residue_product

SURFACE_TOL = 1e-9
SOLVE_TARGET = 1e-12
DISTANCE_TARGET = 1e-11
MAX_ITERATIONS = 100
FD_STEP_REL = 1e-6
FD_CHECK_REL = 1e-5


def is_residual(blk: GmpBlock, d: DeltaData) -> np.ndarray:
    """Surface residuals of a periodically repeated block.

    Returns the g+2 vector
    (lambda0 * p_g - 1,
     lambda0 * sum_j p_j q_j + c0,
     Lambda_k - lambda_k for k = 1..g);
    it vanishes exactly when the periodic operator's transfer trace
    reproduces the comb map of ``d``.
    """
    g = blk.g
    if len(d.poles) != g:
        raise ValidationError(
            f"block has {g} trailing slots but the map has {len(d.poles)} poles"
        )
    c = d.cs()
    lams = d.lams()
    out = np.empty(g + 2)
    out[0] = d.lambda0 * blk.p[g] - 1.0
    out[1] = d.lambda0 * float(np.dot(blk.p, blk.q)) + d.c0
    for k in range(1, g + 1):
        out[k + 1] = lambda_k(blk, c, k) - lams[k - 1]
    return out


def intrinsic_offset(blk: GmpBlock) -> float:
    """Constant term of the block's own transfer trace expansion."""
    return -float(np.dot(blk.p, blk.q)) / float(blk.p[-1])


def alternative_qg(blk: GmpBlock, c) -> float:
    """Residue-sum representation of q_g plus the intrinsic offset.

    Sums, over the poles, the trace of the residue product with the
    final factor replaced by the corner matrix diag(0, 1/p_g).  The
    value equals q_g + intrinsic_offset(blk) identically.
    """
    final = np.array([[0.0, 0.0], [0.0, 1.0 / blk.p[blk.g]]])
    total = 0.0
    for k in range(1, blk.g + 1):
        total += float(np.trace(residue_product(blk, blk, c, k) @ final))
    return total


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


@dataclass(frozen=True)
class IsJacobian:
    """Partial derivatives of the residue functionals on the surface.

    Rows follow the interleaved free coordinates (p_0, q_0, ..,
    p_{g-1}, q_{g-1}); columns follow the pole index.  sigma_min is the
    smallest singular value, positive everywhere on the surface.
    """

    matrix: np.ndarray
    sigma_min: float

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if not np.all(np.isfinite(mat)):
            raise ValidationError("jacobian entries must be finite")


def _fd_jacobian(fun, x: np.ndarray, h_rel: float) -> np.ndarray:
    """Central finite-difference Jacobian, one column per coordinate."""
    cols = []
    for i in range(x.size):
        h = h_rel * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.array(cols).T


def _gauss_newton(fun, x0: np.ndarray, target: float, guard=None) -> np.ndarray:
    """Minimum-norm Gauss-Newton iteration with step halving.

    ``fun`` maps coordinates to the residual vector; ``guard`` may
    reject a trial point (returning False) before evaluation.
    """
    x = x0.copy()
    r = fun(x)
    best = float(np.max(np.abs(r)))
    for _ in range(MAX_ITERATIONS):
        if best <= target:
            return x
        jac = _fd_jacobian(fun, x, FD_STEP_REL)
        gram = jac @ jac.T
        try:
            step = -jac.T @ np.linalg.solve(gram, r)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"normal equations broke down: {exc}") from exc
        alpha = 1.0
        for _ in range(40):
            trial = x + alpha * step
            if guard is None or guard(trial):
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
    if best <= target:
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
    initial = is_residual(start, d)
    if float(np.max(np.abs(initial))) >= 1.0:
        raise ValidationError(
            f"seed residual {np.max(np.abs(initial)):.3e} too large; "
            "start closer to the surface"
        )
    c = d.cs()
    lams = d.lams()

    def fun(x):
        p = np.concatenate([x[:g], [p_fixed]])
        q = x[g:]
        blk = GmpBlock(p, q)
        out = np.empty(g + 1)
        out[0] = d.lambda0 * float(np.dot(p, q)) + d.c0
        for k in range(1, g + 1):
            out[k] = lambda_k(blk, c, k) - lams[k - 1]
        return out

    x0 = np.concatenate([start.p[:g], start.q])
    x = _gauss_newton(fun, x0, SOLVE_TARGET)
    block = GmpBlock(np.concatenate([x[:g], [p_fixed]]), x[g:])
    return IsPoint(block, d)


def is_jacobian(blk: GmpBlock, d: DeltaData) -> IsJacobian:
    """Derivatives of the residue functionals in the free coordinates.

    The trailing pair (p_g, q_g) is eliminated through the two linear
    surface relations, so the columns are taken with respect to the
    2g interleaved coordinates.  Computed by central differences with
    step 1e-6 and cross-validated against step 1e-5.
    """
    g = blk.g
    if len(d.poles) != g:
        raise ValidationError(
            f"block has {g} trailing slots but the map has {len(d.poles)} poles"
        )
    c = d.cs()
    p_fixed = 1.0 / d.lambda0

    def lam_vec(x):
        p = np.concatenate([x[0::2], [p_fixed]])
        q_head = x[1::2]
        q_tail = -d.c0 - d.lambda0 * float(np.dot(x[0::2], q_head))
        q = np.concatenate([q_head, [q_tail]])
        b = GmpBlock(p, q)
        return np.array([lambda_k(b, c, k) for k in range(1, g + 1)])

    x0 = np.empty(2 * g)
    x0[0::2] = blk.p[:g]
    x0[1::2] = blk.q[:g]
    mat = _fd_jacobian(lam_vec, x0, FD_STEP_REL).T
    check = _fd_jacobian(lam_vec, x0, FD_CHECK_REL).T
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat - check))) > FD_CHECK_REL * scale:
        raise NumericalError("finite-difference cross-validation failed")
    sigma_min = float(np.linalg.svd(mat, compute_uv=False)[-1])
    return IsJacobian(mat, sigma_min)


def is_distance(blk: GmpBlock, d: DeltaData) -> tuple[float, IsPoint]:
    """Distance from a block to the surface and the projected point.

    Gauss-Newton with minimum-norm steps starting at ``blk``; the
    returned distance is the Euclidean shift of all 2g+2 coordinates
    and vanishes exactly when the block already lies on the surface.
    """
    g = blk.g
    initial = is_residual(blk, d)
    if float(np.max(np.abs(initial))) >= 1.0:
        raise ValidationError(
            f"residual {np.max(np.abs(initial)):.3e} too large; "
            "distance estimate needs a nearby block"
        )

    def guard(x):
        return x[g] > 0.0

    def fun(x):
        return is_residual(GmpBlock(x[: g + 1], x[g + 1 :]), d)

    x0 = np.concatenate([blk.p, blk.q])
    x = _gauss_newton(fun, x0, DISTANCE_TARGET, guard=guard)
    nearest = GmpBlock(x[: g + 1], x[g + 1 :])
    return float(np.linalg.norm(x - x0)), IsPoint(nearest, d)


def magic_check(pt, window_blocks: int = 40, margin: int = 10, *, delta=None) -> dict:
    """Verify the two-shift identity for a periodically repeated block.

    Applies the comb map to the wrapped dense operator (slope and
    offset terms plus one resolvent per pole) and reports the largest
    deviation of the central rows from the pattern with ones at offsets
    +-(g+1) and zeros elsewhere.  Accepts an IsPoint, or a raw GmpBlock
    together with ``delta=`` for off-surface experiments.
    """
    if isinstance(pt, IsPoint):
        blk, d = pt.block, pt.delta
    else:
        blk, d = pt, delta
        if d is None:
            raise ValidationError("raw blocks need delta= context")
    g = blk.g
    if margin < 1:
        raise ValidationError("margin must be at least one block")
    if window_blocks < 2 * margin + 10:
        raise ValidationError(
            f"need at least {2 * margin + 10} blocks, got {window_blocks}"
        )
    amat = assemble_wrapped(GmpWindow((blk,) * window_blocks, d.cs()))
    result = apply_comb_map(amat, d)[0]
    n = amat.shape[0]
    period = g + 1
    lo = margin * period
    hi = n - margin * period
    two_shift = np.eye(n, k=period) + np.eye(n, k=-period)
    deviation = float(np.max(np.abs(result - two_shift)[lo:hi]))
    return {
        "deviation": deviation,
        "n_blocks": window_blocks,
        "margin": margin,
        "rows_checked": hi - lo,
    }
