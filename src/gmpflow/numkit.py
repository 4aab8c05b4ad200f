"""Dense linear-algebra helpers with explicit failure contracts.

Thin wrappers around LAPACK-backed numpy/scipy routines that add the
pivot, symmetry and residual checks the rest of the package relies on.
Matrices are plain float ndarrays.  Norms appearing in the contracts are
Frobenius norms; the fixed tolerances are tuned for the moderate scales
used throughout (operator norms up to a few units).
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf

from .errors import (
    NoSignChangeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericalError,
    SingularMatrixError,
)

PIVOT_REL_TOL = 1e-13
SOLVE_RESIDUAL_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-12
CHOLESKY_RESIDUAL_REL_TOL = 1e-10
BISECT_REL_WIDTH = 1e-13


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` by partially pivoted LU.

    Raises SingularMatrixError, carrying the 0-based failing pivot index,
    when any pivot magnitude falls below ``1e-13 * ||mat||``.  The result
    satisfies ``||mat @ x - rhs|| <= 1e-10 * ||mat|| * ||x||`` (one step of
    iterative refinement is applied if the first solve misses the bound).
    """
    mat = np.asarray(mat, dtype=float)
    rhs_arr = np.asarray(rhs, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if rhs_arr.shape[0] != mat.shape[0]:
        raise ValueError(
            f"right-hand side length {rhs_arr.shape[0]} does not match "
            f"matrix order {mat.shape[0]}"
        )
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(rhs_arr))):
        raise ValueError("matrix and right-hand side must be finite")

    scale = float(np.linalg.norm(mat))
    with warnings.catch_warnings():
        # Exactly singular input is reported through the pivot check below.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(mat, check_finite=False)
    pivots = np.abs(np.diag(lu))
    worst = int(np.argmin(pivots))
    if pivots[worst] <= PIVOT_REL_TOL * scale:
        raise SingularMatrixError(worst, float(pivots[worst]))

    x = lu_solve((lu, piv), rhs_arr, check_finite=False)
    residual = np.linalg.norm(mat @ x - rhs_arr)
    bound = SOLVE_RESIDUAL_REL_TOL * scale * np.linalg.norm(x)
    if residual > bound:
        x = x + lu_solve((lu, piv), rhs_arr - mat @ x, check_finite=False)
        residual = np.linalg.norm(mat @ x - rhs_arr)
        bound = SOLVE_RESIDUAL_REL_TOL * scale * np.linalg.norm(x)
        if residual > bound:
            raise NumericalError(
                f"solve residual {residual:.3e} exceeds bound {bound:.3e}"
            )
    return x


def sym_eigen(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix.

    The input must be symmetric within 1e-12 (relative to its size for
    matrices with large entries); the returned pair satisfies
    ``||mat @ V - V @ diag(vals)|| <= 1e-9 * ||mat||`` and
    ``||V.T @ V - I|| <= 1e-10``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, scale):
        raise NotSymmetricError(
            f"matrix is not symmetric: max |M - M^T| = {asym:.3e}"
        )
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return vals, vecs


def lower_cholesky_like(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular G with ``G @ G.T = mat`` for symmetric positive
    definite input.

    Raises NotPositiveDefiniteError naming the first failing leading
    minor (0-based pivot index) when the input is not positive definite.
    The factor satisfies ``||G @ G.T - mat|| <= 1e-10 * ||mat||``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    scale = float(np.max(np.abs(mat))) if mat.size else 1.0
    if asym > SYMMETRY_TOL * max(1.0, scale):
        raise NotSymmetricError(
            f"matrix is not symmetric: max |M - M^T| = {asym:.3e}"
        )

    g, info = dpotrf(mat, lower=1, clean=1)
    done = info - 1 if info > 0 else mat.shape[0]
    # potrf accepts any positive pivot; the guard is stricter
    weak = np.flatnonzero(np.diag(g)[:done] ** 2 <= 1e-14 * max(1.0, scale))
    if info > 0 or weak.size:
        j = int(weak[0]) if weak.size else done
        raise NotPositiveDefiniteError(j, float(mat[j, j] - g[j, :j] @ g[j, :j]))

    residual = np.linalg.norm(g @ g.T - mat)
    if residual > CHOLESKY_RESIDUAL_REL_TOL * np.linalg.norm(mat):
        raise NumericalError(
            f"cholesky residual {residual:.3e} exceeds tolerance"
        )
    return g


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous scalar function on a bracketing interval.

    Requires ``f(lo) * f(hi) <= 0`` (NoSignChangeError otherwise) and
    contracts the bracket to width ``1e-13 * max(1, |root|)``.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoSignChangeError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_REL_WIDTH * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)
