"""Building GMP windows from spectral data.

Two constructions live here, and each step of either is made and
checked once, where its value is made.  The one-sided route starts from
a discrete measure: the Gram matrix of the rational system ``{1,
1/(c_g - x), ..., 1/(c_1 - x)}``, its triangular factorization, the
orthonormal rational basis obtained by multiplying through with the
comb map, and the matrix of multiplication by ``x`` in that basis, which
is a one-sided GMP matrix.  The two-sided route converts between Jacobi
windows and GMP windows: ``jacobi_to_gmp`` orthogonalizes a flag of
resolvent vectors pinned at the map poles, the ``kappa`` vectors of the
window and of its one reflection, each checked against the spectrum and
the truncation, and ``gmp_to_jacobi_measure`` tridiagonalizes the two
block-banded half-line truncations by ``lanczos`` on their band rows,
the rows of ``gmp.band_rows`` that ``gmp.assemble_dense`` places too,
with partial reorthogonalization and no eigensolve; each step is one
product of the staircase of rows the earlier Lanczos vectors occupy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (SQUARE_MAX, PoleEvaluationError, ValidationError, WindowError, check,
                     check_entries)
from .finitegap import DeltaData, check_distinct_poles, eval_delta
from .gmp import GmpWindow, band_rows, build_block_B, pattern_defect
from .jacobi import DiscreteMeasure, JacobiWindow, check_ends, kappa, lanczos

FACTOR_TOL = 1e-10
ORTHO_TOL = 1e-10
ONE_SIDED_PATTERN_TOL = 1e-9
TWO_SIDED_PATTERN_TOL = 1e-8
FLAG_RANK_REL = 1e-8
POLE_SUPPORT_REL = 1e-12
READOUT_TOL = 1e-8


def _raw_columns(points: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Rational system evaluated on support points.

    Column 0 is the constant 1; columns 1..g hold 1/(c - x) with the
    poles taken in reverse listed order, matching the minus-side
    convention where the last pole enters first.
    """

    inverse = [1.0 / (c - points) for c in cs[::-1]]
    return np.column_stack([np.ones_like(points)] + inverse)


def gram_D(measure: DiscreteMeasure, c_list) -> np.ndarray:
    """Gram matrix of the rational system under the measure.

    Entries are direct sums sum_i w_i f_j(x_i) f_k(x_i) over the system
    of _raw_columns; the off-diagonal pole pairings equal divided
    differences of the Cauchy transform and the pole diagonal equals its
    derivative.  Raises PoleEvaluationError when a pole sits on the
    support.
    """

    cs, = check_entries({"poles": c_list}, "{key}[{0}]")
    if cs.ndim != 1 or cs.size < 1:
        raise ValidationError("at least one pole is required" if cs.ndim == 1 else
                              f"poles = {c_list!r} is not a list of numbers")
    check_distinct_poles(cs)
    pts = measure.points
    scale = max(1.0, float(np.max(np.abs(pts))), float(np.max(np.abs(cs))))
    for c in cs:
        if np.min(np.abs(pts - c)) <= POLE_SUPPORT_REL * scale:
            raise PoleEvaluationError(f"pole {c} lies on the support of the measure")
    F = _raw_columns(pts, cs)
    D = F.T @ (measure.weights[:, None] * F)
    return 0.5 * (D + D.T)


def factor_L(D: np.ndarray) -> np.ndarray:
    """Upper-triangular L with positive diagonal and L^T D L = I.

    Equivalently D^{-1} = L L^T, which fixes L: (G^{-1})^T, G the lower
    Cholesky factor of D, from one triangular solve, times the upper
    triangular I - triu(E) + diag(E) / 2, E = L^T D L - I, one first-order
    step toward L^T D L = I; L stays exactly triangular.  Raises
    NotPositiveDefiniteError when D is not positive definite and
    NumericalError when max|L^T D L - I| > ``FACTOR_TOL * max(1, max|D|)``.
    """
    from scipy.linalg import solve_triangular

    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError(f"Gram matrix must be square, got {D.shape}")
    eye = np.eye(D.shape[0])
    L = solve_triangular(numkit.lower_cholesky_like(D), eye, lower=True).T
    E = L.T @ D @ L - eye
    L -= L @ (np.triu(E) - np.diag(np.diag(E)) / 2)
    resid = float(np.max(np.abs(L.T @ D @ L - eye)))
    check("triangular factor residual", resid, FACTOR_TOL * max(1.0, float(np.max(np.abs(D)))))
    return L


@dataclass(frozen=True)
class RationalBasis:
    """Orthonormal rational functions evaluated on a measure's support,
    as ``tau_basis`` makes and checks them.

    table holds one column per basis function, grouped in blocks of
    g + 1 columns; the first block spans the raw rational system and
    block m spans the map-multiplied continuation.  L carries the
    first-block coefficients (``factor_L`` of the raw system's Gram
    matrix), and ``m_vec`` the first moments, the integrals of x * tau
    against the measure, of the first block.
    """

    measure: DiscreteMeasure
    table: np.ndarray
    L: np.ndarray

    @property
    def g(self) -> int:
        return self.L.shape[0] - 1

    @property
    def depth(self) -> int:
        return self.table.shape[1] // self.L.shape[0]

    @property
    def m_vec(self) -> np.ndarray:
        return self.table[:, : self.L.shape[0]].T @ (self.measure.weights * self.measure.points)


def tau_basis(measure: DiscreteMeasure, d: DeltaData, depth: int = 2) -> RationalBasis:
    """Orthonormal rational basis of the measure, depth blocks deep.

    The first block orthogonalizes the raw rational system of the map's
    poles through factor_L; block m multiplies block m - 1 pointwise by
    the comb map values and re-orthogonalizes, so block m spans the
    map-power multiples of the raw system.  Leading coefficients stay
    positive.  The functions are carried as sqrt(w) * tau, w the measure's
    weights, which are orthonormal under the plain dot product, and divided
    by sqrt(w) at the end.  Raises NumericalError when the measure cannot
    support the requested depth, or when the Gram matrix of those rows
    deviates from the identity by more than ``ORTHO_TOL``.
    """

    if int(depth) != depth or depth < 1:
        raise ValidationError("depth must be a positive integer")
    depth = int(depth)
    cs = d.cs()
    per = d.g + 1
    if depth * per > measure.n_points:
        raise ValidationError(
            f"depth {depth} needs {depth * per} support points, "
            f"the measure has {measure.n_points}"
        )
    L = factor_L(gram_D(measure, cs))
    pts, root_w = measure.points, np.sqrt(measure.weights)
    rows = np.empty((depth * per, pts.size))
    rows[:per] = (_raw_columns(pts, cs) @ L).T * root_w
    dvals = np.asarray(eval_delta(d, pts), dtype=float)
    for idx in range(per, depth * per):
        _append_orthonormal(rows, idx, dvals * rows[idx - per],
                            f"measure rank exhausted at basis function {idx}")
    dev = float(np.max(np.abs(rows @ rows.T - np.eye(depth * per))))
    check("basis table is not orthonormal: deviation", dev, ORTHO_TOL)
    return RationalBasis(measure, np.ascontiguousarray((rows / root_w).T), L)


def one_sided_coupling(g: int) -> np.ndarray:
    """``pattern_defect`` mask of the one-sided build: adjacent blocks
    couple only through slot 0 of the farther block."""
    return np.broadcast_to(np.arange(g + 1) == 0, (g + 1, g + 1))


def multiplication_matrix(rb: RationalBasis) -> np.ndarray:
    """Matrix of multiplication by x in the rational basis.

    Entries are integrals of x tau_j tau_k against the basis measure.
    The result carries the one-sided GMP pattern: dense blocks on the
    diagonal, adjacent blocks coupled through row 0 of the farther block
    only.  Raises NumericalError when the pattern degrades.
    """

    if rb.depth < 2:
        raise ValidationError("multiplication needs a basis at least two blocks deep")
    T = rb.table
    wx = rb.measure.weights * rb.measure.points
    M = T.T @ (wx[:, None] * T)
    M = 0.5 * (M + M.T)
    check("multiplication matrix lost the block pattern: off-pattern entry",
          pattern_defect(M, one_sided_coupling(rb.g)),
          ONE_SIDED_PATTERN_TOL * max(1.0, float(np.max(np.abs(M)))))
    return M


def _append_orthonormal(rows: np.ndarray, k: int, cand: np.ndarray, what: str) -> None:
    """Orthonormalize cand against rows[:k] into rows[k].  When cand lies
    numerically in the span of rows[:k], its remainder below
    ``FLAG_RANK_REL`` times its norm, ``check`` refuses it with a
    NumericalError led by ``what``, and rows[k] is untouched."""

    vec = numkit.project_out(rows[:k], cand)
    rem = float(np.linalg.norm(vec))
    check(f"{what}: remainder", rem, FLAG_RANK_REL * max(float(np.linalg.norm(cand)), 1e-300),
          floor=True)
    rows[k] = vec / rem


def jacobi_to_gmp(window: JacobiWindow, d: DeltaData, n_blocks: int = 5) -> GmpWindow:
    """GMP window of the Jacobi operator in the basis pinned at the map poles.

    Orthogonalizes the flag seeded by the basis vector at site -1, the
    mirror resolvent vectors pinned at the map poles on the left of the
    split, the plain ones on the right, and the basis vector at site 0,
    then continues block by block both ways by applying the mapped
    operator to the previous block's g + 1 vectors at once, one solve per
    pole, appended in the flag's order; the triangular coupling structure
    makes each continuation step produce exactly one new direction.
    The matrix of the operator in the resulting orthonormal system is
    read off as GMP blocks, with signs gauged so every coupling entry
    is nonnegative.  The mirror vectors are the kappa vectors of the
    window reflected once through the split, mapped back.  Each of the 2g
    kappa vectors counts the eigenvalues within 1e-6 of its pole; every
    flag candidate is held by ``check_ends`` over its outermost g + 1
    sites, so a width the window cannot carry is refused, naming a block
    and slot.  A converted window that ``GmpWindow`` refuses is refused as
    such, naming the crossing bond a(0) when its blocks, which grow like
    1 / a(0), are too large to square.
    """

    if int(n_blocks) != n_blocks or n_blocks < 3:
        raise ValidationError("at least three blocks are required")
    n_blocks = int(n_blocks)
    cs = d.cs()
    g = d.g
    per = g + 1
    k_lo = -(n_blocks // 2) - 1
    k_hi = k_lo + n_blocks
    n_sites = window.size
    if n_sites < (n_blocks + 2) * per:
        raise WindowError(
            f"window with {n_sites} sites cannot host {n_blocks} blocks "
            f"of size {per} plus boundary"
        )

    b, off = window.b, window.a[1:]

    def mapped(v: np.ndarray) -> np.ndarray:
        # lambda0 J + c0 + sum_k lambda_k (c_k - J)^{-1}, applied to the columns of v
        out = d.lambda0 * numkit.banded_matvec((b, off), v) + d.c0 * v
        for ck, lk in zip(cs, d.lams()):
            out -= lk * numkit.solve_tridiagonal(b, off, v, ck)
        return out

    basis = np.zeros(((n_blocks + 1) * per, n_sites))
    basis[0, window.pos(-1)] = 1.0
    slot: dict = {(-1, g): 0}  # (block, slot) -> row of basis

    def append(key: tuple, cand: np.ndarray) -> None:
        at = f"at block {key[0]} slot {key[1]}"
        _append_orthonormal(basis, len(slot), cand, f"flag vectors became linearly dependent {at}")
        check_ends(cand, f"window too short for the flag vector {at}", per)
        slot[key] = len(slot)

    # the mirror flag nests from the far end: orthogonalize last pole first
    mirror = window.reflected()
    for m in range(g - 1, -1, -1):
        append((-1, m), kappa(mirror, cs[m]).vec[::-1])
    for m, c in enumerate(cs):
        append((0, m), kappa(window, c).vec)
    append((0, g), np.eye(1, n_sites, window.pos(0))[0])
    for j in (*range(1, k_hi + 1), *range(-2, k_lo - 1, -1)):
        near = [slot[j - 1 if j > 0 else j + 1, m] for m in range(per)]
        cands = np.ascontiguousarray(mapped(basis[near].T).T)
        for m in range(per) if j > 0 else range(g, -1, -1):
            append((j, m), cands[m])

    V = basis[[slot[j, m] for j in range(k_lo, k_hi + 1) for m in range(per)]].T
    amat = V.T @ numkit.banded_matvec((b, off), V)
    amat = 0.5 * (amat + amat.T)

    scale = max(1.0, float(np.max(np.abs(amat))))
    # Adjacent blocks couple only through slot g of the nearer block.
    coupling = np.broadcast_to((np.arange(per) == g)[:, None], (per, per))
    check("operator lost the GMP pattern in the flag basis (the Jacobi window is likely "
          "too narrow): off-pattern entry", pattern_defect(amat, coupling),
          TWO_SIDED_PATTERN_TOL * scale)

    # Row i: slot g of block k_lo + i, and the slots of block k_lo + i + 1.
    last = np.arange(n_blocks)[:, None] * per + g
    nxt = last + 1 + np.arange(per)
    # Gauge: flip slot m of block i + 1 where its coupling to slot g of block
    # i, flipped or not, is negative.  Flips of slot g multiply up (a zero
    # coupling there, which would reset them, leaves no finite readout).
    C = amat[last, nxt]
    flips_g = np.cumprod(np.where(C[:, g] < 0.0, -1.0, 1.0))
    s = np.ones(amat.shape[0])
    s[per:] = np.where(np.r_[1.0, flips_g[:-1]][:, None] * C < 0.0, -1.0, 1.0).ravel()
    amat = amat * s[:, None] * s[None, :]

    P = amat[last, nxt]
    B = amat[nxt[:, :, None], nxt[:, None, :]]
    Q = B[:, g, :] / P[:, g:]
    try:
        w = GmpWindow(P, Q, cs, j_min=k_lo + 1)
    except ValidationError as exc:
        # block 0 grows like 1 / a(0): name the bond when blocks overflow
        grown = np.abs(np.stack([P, Q])).max() > SQUARE_MAX
        note = f" (crossing bond a(0) = {window.a_at(0):.6g})" if grown else ""
        raise ValidationError(f"converted window: {exc}{note}") from exc
    dev = np.max(np.abs(build_block_B(w.rows(), w.c) - B), axis=(1, 2))
    check(lambda i: f"block {w.j_min + i} readout deviates from the diagonal part by",
          dev, READOUT_TOL * scale)
    return w


def gmp_to_jacobi_measure(w: GmpWindow) -> JacobiWindow:
    """Jacobi window matching the two half-line resolvents of a GMP window.

    ``lanczos`` takes the ``band_rows`` of the two halves of the window's
    matrix: the blocks >= 0 from the normalized coupling vector of the
    site left of the split, which lies on block 0, and the blocks <= -1,
    index order reversed, from that site.  Block j couples to block j + 1
    only through its slot g, so Lanczos vector k of a half lies on its
    first k + 1 blocks: b(k) reads only those blocks, a(k + 1) one more,
    and ``lanczos`` reads only that staircase, also where it projects
    against the earlier vectors: at its first steps, and later where
    Simon's estimate of their dot products asks.  The depth rule, blocks
    of the half - 1, keeps exactly the b(k) and a(k) that do not depend on
    where the window is cut; a half whose Krylov space is exhausted
    earlier stops there.  The crossing bond a(0) is the norm of the first
    coupling vector, taken exactly at a power-of-two scale near its maximum.
    """

    if w.j_min > -1 or w.j_max < 0:
        raise WindowError("window must contain blocks -1 and 0")
    per = w.g + 1
    k0 = -w.j_min  # window position of block 0
    p0 = w.block(0).p
    e = np.frexp(np.max(np.abs(p0)))[1]  # entries near 1e-160 square to subnormals
    a0 = float(np.ldexp(np.linalg.norm(np.ldexp(p0, -e)), e))
    plus, minus = band_rows(w.rows(k0), w.c), band_rows(w.rows(0, k0), w.c)[::-1, ::-1]
    v_plus = np.pad(p0 / a0, (0, plus.shape[0] - per))
    check("starting vector norm deviates from 1 by", abs(np.linalg.norm(v_plus) - 1.0), 1e-12)
    jp = lanczos(plus, v_plus, plus.shape[0] // per - 1)
    jm = lanczos(minus, np.eye(1, minus.shape[0])[0], minus.shape[0] // per - 1)
    if jp.size < 2 or jm.size < 2:
        raise WindowError("window too narrow to recover a bond on each side of the split")
    b_arr = np.concatenate([jm.b[::-1], jp.b])
    a_arr = np.concatenate(([1.0], jm.a[:0:-1], [a0], jp.a[1:]))
    return JacobiWindow(a_arr, b_arr, n_min=-jm.size)
