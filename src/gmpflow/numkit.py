"""Linear-algebra helpers with explicit failure contracts.

Thin wrappers around LAPACK-backed numpy/scipy routines that add the
pivot, symmetry and residual checks the rest of the package relies on.
Matrices are plain float ndarrays; a symmetric tridiagonal one is passed
as its diagonal and off-diagonal, and solved in O(n), at every order,
under the dense solve's contract.
Norms appearing in the contracts are Frobenius norms; the fixed
tolerances are tuned for the moderate scales used throughout (operator
norms up to a few units).  scipy is imported inside the functions that
call it, here, in ``jacobi`` and in ``construct``, so that a command
which calls none of them starts without it.
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    NoSignChangeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    check,
)

PIVOT_REL_TOL = 1e-13
SOLVE_RESIDUAL_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-12
CHOLESKY_RESIDUAL_REL_TOL = 1e-10
BISECT_REL_WIDTH = 1e-13


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` by partially pivoted LU.

    Raises SingularMatrixError, carrying the 0-based failing pivot index,
    when any pivot magnitude falls below ``1e-13 * ||mat||``.  Each column
    of the result satisfies ``||mat @ x - rhs|| <= 1e-10 * ||mat|| * ||x||``
    (one step of iterative refinement is applied to a column that misses
    the bound at first).
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

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

    scale = _frobenius(mat)
    with warnings.catch_warnings():
        # Exactly singular input is reported through the pivot check below.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(mat, check_finite=False)
    back = partial(lu_solve, (lu, piv), check_finite=False)
    return _checked_solve(np.abs(np.diag(lu)), scale, scale, lambda x: mat @ x, back, rhs_arr)


def _frobenius(*parts: np.ndarray) -> float:
    """Frobenius norm of the entries of ``parts``, summed at a power of two so none overflows."""
    flat = np.concatenate(parts, axis=None)
    flat /= (m := math.ldexp(1.0, math.frexp(np.abs(flat).max(initial=0.0))[1]))
    return math.sqrt(flat @ flat) * m


def _checked_solve(pivots, pivot_scale, scale: float, matvec, back, rhs: np.ndarray) -> np.ndarray:
    """The contract of ``solve`` around a factorization with U pivots
    ``pivots``: the pivot check against ``pivot_scale`` (one, or one per
    pivot), then ``back(rhs)``.  Each column is held to its own residual
    bound at the normwise ``scale``, and refined once, alone, if it misses,
    so a column comes out as its own one-column solve would."""
    short = pivots <= PIVOT_REL_TOL * pivot_scale
    if short.any():
        worst = int(np.argmin(np.where(short, pivots, np.inf)))
        raise SingularMatrixError(worst, float(pivots[worst]))
    x = back(rhs)
    for attempt in range(2):
        residual = np.linalg.norm(matvec(x) - rhs, axis=0)
        bound = SOLVE_RESIDUAL_REL_TOL * scale * np.linalg.norm(x, axis=0)
        miss = residual > bound
        if attempt or not miss.any():
            break
        x = np.where(miss, x + back(rhs - matvec(x)), x)
    check("solve residual", residual, bound)
    return x


def banded_matvec(bands, x: np.ndarray) -> np.ndarray:
    """``T[:n, :n] @ x``, n = len(x), for the symmetric tridiagonal T with
    diagonal and off-diagonal ``bands``; x is a vector or a stack of columns.
    Two slice products on the off-diagonal: for one-shot products, as in the
    residual of ``solve_tridiagonal``, ``jacobi_to_gmp`` and
    ``kappa_pairing``; ``jacobi.lanczos`` takes band rows instead."""
    n = x.shape[0]
    col = (slice(None),) + (None,) * (x.ndim - 1)
    out = bands[0][:n][col] * x
    off = bands[1][: n - 1][col]
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


def solve_tridiagonal(diag, off, rhs, z: float) -> np.ndarray:
    """Solve ``(T - z I) x = rhs`` for the symmetric tridiagonal T with
    diagonal ``diag`` and off-diagonal ``off``, in O(n) per right-hand side.

    LAPACK ``gttrf``/``gttrs`` under the contract of ``solve``, with two
    scales: each U pivot is held against the 1-norm of its own column,
    |o(i-1)| + |d(i) - z| + |o(i)|, so that O(1) pivots next to entries
    near 1e154 pass, and the residual bound takes ``||T - z I||`` from
    ``_frobenius``.  Orders 1 and 2 are padded to 3 with decoupled unit rows.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    diag = np.asarray(diag, dtype=float) - float(z)
    off, rhs = np.asarray(off, dtype=float), np.asarray(rhs, dtype=float)
    n = diag.size
    if diag.shape != (n,) or off.shape != (n - 1,) or rhs.shape[:1] != (n,):
        raise ValueError(f"shapes {diag.shape}, {off.shape}, {rhs.shape} do not match")
    if not all(np.all(np.isfinite(v)) for v in (diag, off, rhs)):
        raise ValueError("matrix and right-hand side must be finite")
    low, mid = (off, diag) if n > 2 else (np.r_[off, 0.0, 0.0][:2], np.r_[diag, 1.0, 1.0][:3])
    lu = dgttrf(low, mid, low)[:5]  # scipy's gttrf wrapper needs n >= 3

    def back(r):
        cols = r.reshape(n, -1) if n > 2 else np.pad(r.reshape(n, -1), ((0, 3 - n), (0, 0)))
        return dgttrs(*lu, cols)[0][:n].reshape(r.shape)

    scale, mag, edge = _frobenius(diag, off, off), np.abs(diag), np.pad(np.abs(off), 1)
    matvec = partial(banded_matvec, (diag, off))
    return _checked_solve(np.abs(lu[1][:n]), edge[:-1] + mag + edge[1:], scale, matvec, back, rhs)


def project_out(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``vec`` minus its components along the dot-orthonormal rows of
    ``basis``: classical Gram-Schmidt applied twice (CGS2)."""
    for _ in range(2):
        vec = vec - (basis @ vec) @ basis
    return vec


def _symmetric(mat) -> tuple[np.ndarray, float]:
    """The input as a float array, checked square and symmetric within
    ``1e-12 * max(1, max |M|)`` (a NaN entry fails), with its largest
    entry magnitude."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    scale = float(np.max(np.abs(mat))) if mat.size else 1.0
    check("matrix is not symmetric: max |M - M^T|", asym, SYMMETRY_TOL * max(1.0, scale),
          NotSymmetricError)
    return mat, scale


def sym_eigen(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix.

    The input must be symmetric within 1e-12 (relative to its size for
    matrices with large entries), which is checked.  The residual
    ``||mat @ V - V @ diag(vals)||`` and ``||V.T @ V - I||`` are LAPACK's
    (``syevd`` via ``numpy.linalg.eigh``), a small multiple of machine
    epsilon times ``||mat||`` and the order, and are not checked.
    """
    mat, _ = _symmetric(mat)
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return vals, vecs


def lower_cholesky_like(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular G with ``G @ G.T = mat`` for symmetric positive
    definite input.

    Raises NotPositiveDefiniteError naming the first failing leading
    minor (0-based pivot index) when the input is not positive definite.
    The factor satisfies ``||G @ G.T - mat|| <= 1e-10 * ||mat||``.
    """
    from scipy.linalg.lapack import dpotrf

    mat, scale = _symmetric(mat)
    g, info = dpotrf(mat, lower=1, clean=1)
    done = info - 1 if info > 0 else mat.shape[0]
    # potrf accepts any positive pivot; the guard is stricter
    weak = np.flatnonzero(np.diag(g)[:done] ** 2 <= 1e-14 * max(1.0, scale))
    if info > 0 or weak.size:
        j = int(weak[0]) if weak.size else done
        raise NotPositiveDefiniteError(j, float(mat[j, j] - g[j, :j] @ g[j, :j]))

    residual = np.linalg.norm(g @ g.T - mat)
    check("cholesky residual", residual, CHOLESKY_RESIDUAL_REL_TOL * np.linalg.norm(mat))
    return g


def bisect_root(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Roots of a continuous function on brackets (arrays or scalars), all at once.

    ``f`` maps one point per bracket, flattened, to its values.  Each bracket
    needs ``f(lo) * f(hi) <= 0`` (NoSignChangeError names the first without)
    and stops on its own, at width ``1e-13 * max(1, |midpoint|)``, where ``f``
    vanishes or after 200 halvings; it then holds its midpoint.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    bad = ~(np.isfinite(lo) & np.isfinite(hi)) | (lo >= hi)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"invalid bracket [{lo[k]}, {hi[k]}]")
    flo, fhi = f(lo), f(hi)
    hit = (flo == 0.0) | (fhi == 0.0)
    same = ~hit & (np.sign(flo) == np.sign(fhi))
    if same.any():
        k = int(np.argmax(same))
        raise NoSignChangeError(
            f"f({lo[k]}) = {flo[k]:.3e} and f({hi[k]}) = {fhi[k]:.3e} have the same sign"
        )
    end = np.where(flo == 0.0, lo, hi)
    lo, hi, side = np.where(hit, end, lo), np.where(hit, end, hi), np.sign(flo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        stop = hi - lo <= BISECT_REL_WIDTH * np.maximum(1.0, np.abs(mid))
        if stop.all():
            break
        fmid = f(mid)
        stop |= fmid == 0.0
        left = np.sign(fmid) == side
        lo, hi = np.where(left | stop, mid, lo), np.where(left & ~stop, hi, mid)
    root = (0.5 * (lo + hi)).reshape(shape)
    return float(root) if root.ndim == 0 else root
