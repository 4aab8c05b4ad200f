"""50-digit references for the comb map of a GMP window.

``local_delta_column`` evaluates one block column of the comb map
``Delta(A) = lambda0 A + c0 + sum_k lambda_k (c_k - A)^{-1}`` from local
stacked systems, with no eigensolve and no wrap seam.  The resolvent of
a GMP matrix at a pole is block tridiagonal, so for each pole block
column j of it solves the consistent system made of block rows
j - 2..j + 2 of ``c_k - A`` against the unknown block columns
j - 1..j + 1, with the identity at block j on the right.  The matrix
entries are built from the window's P, Q and poles, not from
``assemble_dense``.
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 50
# Residual of a local system above which its three-block support fails.
LOCAL_RESIDUAL_TOL = mpmath.mpf(10) ** -40


def window_entry(w, b1: int, s: int, b2: int, t: int):
    """Entry (slot s of block b1, slot t of block b2) of the window matrix."""
    g = w.g
    if b1 == b2:
        i = b1 - w.j_min
        hi, lo = max(s, t), min(s, t)
        val = mpmath.mpf(float(w.P[i, hi])) * mpmath.mpf(float(w.Q[i, lo]))
        if s == t < g:
            val += mpmath.mpf(float(w.c[s]))
        return val
    if b2 == b1 + 1 and s == g:  # coupling A(p) = delta_g p^T of block b2
        return mpmath.mpf(float(w.P[b2 - w.j_min, t]))
    if b1 == b2 + 1 and t == g:
        return mpmath.mpf(float(w.P[b1 - w.j_min, s]))
    return mpmath.mpf(0)


def local_delta_column(w, d, j: int) -> np.ndarray:
    """Blocks (j - 1, j), (j, j) and (j + 1, j) of the comb map of the
    window, as a float array of shape (3, g + 1, g + 1).

    Blocks j - 2..j + 2 must lie in the window.
    """
    per = w.g + 1
    rows = [(b, s) for b in range(j - 2, j + 3) for s in range(per)]
    cols = [(b, t) for b in range(j - 1, j + 2) for t in range(per)]
    with mpmath.workdps(DPS):
        A = mpmath.matrix([[window_entry(w, *r, *c) for c in cols] for r in rows])
        out = mpmath.matrix(len(cols), per)
        for i, c in enumerate(cols):
            for m in range(per):
                out[i, m] = mpmath.mpf(float(d.lambda0)) * A[i + per, per + m]
                if c == (j, m):
                    out[i, m] += mpmath.mpf(float(d.c0))
        for ck, lk in d.poles:
            shifted = -A
            for i, r in enumerate(rows):
                if r in cols:
                    shifted[i, cols.index(r)] += mpmath.mpf(float(ck))
            for m in range(per):
                rhs = mpmath.matrix([1 if r == (j, m) else 0 for r in rows])
                # least squares through the normal equations, pivoted
                x = mpmath.lu_solve(shifted, rhs)
                residual = mpmath.norm(shifted * x - rhs)
                if residual > LOCAL_RESIDUAL_TOL:
                    raise AssertionError(f"local system of column {j} has residual {residual}")
                for i in range(len(cols)):
                    out[i, m] += mpmath.mpf(float(lk)) * x[i]
        col = np.array([[float(out[i, m]) for m in range(per)] for i in range(len(cols))])
    return col.reshape(3, per, per)
