"""Double-precision references that the package itself never runs.

Each is the dense or closed-form route to a quantity that ``gmpflow``
computes another way, kept as the oracle its tests compare against:

- ``dense(window)``: the n x n tridiagonal matrix of a Jacobi window;
- ``spectral_measure_plus``: the spectral measure of a one-sided window
  at e_0, from the dense eigensolve;
- ``moment`` and ``cauchy_transform`` of a ``DiscreteMeasure``;
- ``two_by_two_resolvent``: the corner resolvent of a two-sided window,
  checked against the half-line resolvents r_+ and r_-;
- ``intrinsic_offset``: the constant term of a GMP block's own transfer
  trace expansion.
"""

from __future__ import annotations

import numpy as np

from gmpflow import numkit
from gmpflow.errors import NumericalError, SpectrumProximityError, WindowError
from gmpflow.gmp import GmpBlock
from gmpflow.jacobi import DiscreteMeasure, JacobiWindow, resolvent_r, spectrum_near

CORNER_IDENTITY_TOL = 1e-8


def dense(window: JacobiWindow) -> np.ndarray:
    mat = np.diag(window.b)
    off = window.a[1:]
    mat[np.arange(window.size - 1), np.arange(1, window.size)] = off
    mat[np.arange(1, window.size), np.arange(window.size - 1)] = off
    return mat


def moment(measure: DiscreteMeasure, order: int) -> float:
    return float(np.sum(measure.weights * measure.points**order))


def cauchy_transform(measure: DiscreteMeasure, z) -> complex:
    return np.sum(measure.weights / (measure.points - z))


def spectral_measure_plus(window: JacobiWindow) -> DiscreteMeasure:
    """Eigenvalues and squared first components of the dense truncation."""
    if window.n_min != 0:
        raise WindowError("spectral_measure_plus expects a one-sided window starting at 0")
    eigvals, eigvecs = numkit.sym_eigen(dense(window))
    weights = eigvecs[0, :] ** 2
    keep = weights > 0.0
    weights = weights[keep] / np.sum(weights[keep])
    return DiscreteMeasure(eigvals[keep], weights)


def two_by_two_resolvent(window: JacobiWindow, z: float) -> np.ndarray:
    """Corner resolvent [[R(-1,-1), R(-1,0)], [R(0,-1), R(0,0)]], refused
    when ``spectrum_near`` finds an eigenvalue within
    1e-8 * max(1, ``norm_bound()``) of z.

    Verifies the half-line identities -1/R(0,0) = -1/r_+ + a(0)^2 r_- and
    -1/R(-1,-1) = -1/r_- + a(0)^2 r_+ before returning.
    """
    if window.n_min > -1 or window.n_max < 0:
        raise WindowError("corner resolvent needs sites -1 and 0")
    scale = max(1.0, window.norm_bound())
    if spectrum_near(window, z, 1e-8 * scale).size:
        raise SpectrumProximityError(
            f"z = {z} is too close to the window spectrum"
        )
    corner = [window.pos(-1), window.pos(0)]
    rhs = np.zeros((window.size, 2))
    rhs[corner, [0, 1]] = 1.0
    rmat = numkit.solve_tridiagonal(window.b, window.a[1:], rhs, z)[corner]
    r_plus = resolvent_r(window, z)
    r_minus = resolvent_r(window.reflected(), z)
    a0 = window.a_at(0)
    checks = (
        (-1.0 / rmat[1, 1], -1.0 / r_plus + a0**2 * r_minus),
        (-1.0 / rmat[0, 0], -1.0 / r_minus + a0**2 * r_plus),
    )
    for lhs, rhs_val in checks:
        if abs(lhs - rhs_val) > CORNER_IDENTITY_TOL * max(
            1.0, abs(lhs), abs(rhs_val)
        ):
            raise NumericalError(
                f"corner identity residual {abs(lhs - rhs_val):.3e} "
                "exceeds tolerance"
            )
    return rmat


def intrinsic_offset(blk: GmpBlock) -> float:
    """Constant term of the block's own transfer trace expansion."""
    return -float(np.dot(blk.p, blk.q)) / float(blk.p[-1])
