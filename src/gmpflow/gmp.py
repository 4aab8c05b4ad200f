"""Block Jacobi matrices with rank-one couplings and rational resolvents.

The operators handled here are (g+1)-block Jacobi matrices whose
off-diagonal blocks are the rank-one matrices ``A(p) = delta_g p^T``
(only the last row of the block is nonzero) and whose diagonal blocks are

    B(p, q) = strict upper part of q p^T  +  lower part of p q^T
              + diag(c_1, ..., c_g, 0).

The scalars ``c_1..c_g`` are the gap poles of the underlying comb map.
Such a matrix is determined by a two-sided sequence of blocks; a window
holds a finite run of them.  The key algebraic objects are the 2x2
transfer matrix with unit determinant, built from one elementary factor
per pole plus one factor for infinity, and the positive functionals
``Lambda_k`` (residues of the transfer trace) together with their
two-block generalizations, whose positivity characterizes the class and
whose reciprocals enter the closed-form resolvent columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .errors import (
    NumericalError,
    PoleEvaluationError,
    ValidationError,
    WindowError,
)

# The symplectic unit [[0, -1], [1, 0]].
JMAT = np.array([[0.0, -1.0], [1.0, 0.0]])
JMAT.setflags(write=False)
EYE2 = np.eye(2)
EYE2.setflags(write=False)

DET_TOL = 1e-9
VALIDITY_FLOOR = 1e-8
POLE_REL_TOL = 1e-12


@dataclass(frozen=True)
class GmpBlock:
    """One block of forming vectors: p = (p_0..p_g), q = (q_0..q_g).

    A block of a window is a view of its rows.  ``GmpWindow.rows`` gives a
    stack of blocks, whose p and q keep the row axis in front; every block
    routine of this module broadcasts over it.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.ndim != 1 or q.ndim != 1 or p.size != q.size or p.size < 1:
            raise ValidationError("p and q must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValidationError("block entries must be finite")
        if p[-1] <= 0.0:
            raise ValidationError(f"last p entry must be positive, got {p[-1]}")

    @classmethod
    def _view(cls, p: np.ndarray, q: np.ndarray) -> "GmpBlock":
        """Block over read-only rows already checked, without a copy."""
        blk = object.__new__(cls)
        vars(blk).update(p=p, q=q)  # frozen: bypass __setattr__
        return blk

    @property
    def g(self) -> int:
        return self.p.shape[-1] - 1

    @cached_property
    def _pairs(self) -> np.ndarray:
        return np.stack([self.p, self.q], axis=-1)

    def pm(self, m: int) -> np.ndarray:
        """The 2-vector (p_m, q_m)."""
        return self._pairs[..., m, :]


@dataclass(frozen=True, init=False)
class GmpWindow:
    """A finite run of blocks j = j_min..j_max sharing one pole list c.

    Row i of the read-only ``(n_blocks, g+1)`` arrays ``P`` and ``Q``
    holds the forming vectors of block j_min + i.
    """

    P: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    j_min: int = 0

    def __init__(self, blocks, c, j_min: int = 0):
        blocks = tuple(blocks)
        if len({blk.g for blk in blocks}) > 1:
            raise ValidationError("all blocks must share one gap count")
        self._set_rows([blk.p for blk in blocks], [blk.q for blk in blocks], c, j_min)

    @classmethod
    def from_arrays(cls, P, Q, c, j_min: int = 0) -> "GmpWindow":
        """Window over the rows of P and Q, each checked as a ``GmpBlock``."""
        return cls.__new__(cls)._set_rows(P, Q, c, j_min)

    def _set_rows(self, P, Q, c, j_min: int) -> "GmpWindow":
        P, Q, c = (np.array(arr, dtype=float) for arr in (P, Q, c))
        if P.shape[:1] == (0,):
            raise ValidationError("window must contain at least one block")
        if P.ndim != 2 or P.shape != Q.shape or P.shape[1] < 1:
            raise ValidationError("P and Q must be 2-d arrays of equal shape")
        bad = ~np.isfinite(P).all(1) | ~np.isfinite(Q).all(1) | (P[:, -1] <= 0.0)
        if bad.any():
            GmpBlock(P[np.argmax(bad)], Q[np.argmax(bad)])  # raises its message
        if c.ndim != 1 or c.size != P.shape[1] - 1:
            raise ValidationError(f"pole list has length {c.size}, expected {P.shape[1] - 1}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("poles must be finite")
        for arr in (P, Q, c):
            arr.setflags(write=False)
        vars(self).update(P=P, Q=Q, c=c, j_min=j_min)  # frozen: bypass __setattr__
        return self

    @property
    def g(self) -> int:
        return self.P.shape[1] - 1

    @property
    def n_blocks(self) -> int:
        return self.P.shape[0]

    @property
    def j_max(self) -> int:
        return self.j_min + self.n_blocks - 1

    @cached_property
    def blocks(self) -> tuple[GmpBlock, ...]:
        return tuple(GmpBlock._view(p, q) for p, q in zip(self.P, self.Q))

    def rows(self, lo: int = 0, hi: int | None = None) -> GmpBlock:
        """Window positions lo..hi-1 as one stack of blocks."""
        return GmpBlock._view(self.P[lo:hi], self.Q[lo:hi])

    def block(self, j: int) -> GmpBlock:
        """Block at absolute index j."""
        if not self.j_min <= j <= self.j_max:
            raise WindowError(
                f"block {j} outside window [{self.j_min}, {self.j_max}]"
            )
        return GmpBlock._view(self.P[j - self.j_min], self.Q[j - self.j_min])

    def interior_js(self) -> range:
        """Absolute indices of blocks with both neighbours present."""
        return range(self.j_min + 1, self.j_max)

    def scalar_index(self, j: int, slot: int) -> int:
        """Position of slot ``slot`` of block j in the assembled matrix."""
        if not 0 <= slot <= self.g:
            raise WindowError(f"slot {slot} outside 0..{self.g}")
        return (j - self.j_min) * (self.g + 1) + slot

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "C": self.c.tolist(),
            "j_min": self.j_min,
            "blocks": [
                {"p": p, "q": q} for p, q in zip(self.P.tolist(), self.Q.tolist())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GmpWindow":
        try:
            blocks = tuple(
                GmpBlock(np.array(b["p"]), np.array(b["q"]))
                for b in data["blocks"]
            )
            return cls(blocks, np.array(data["C"]), int(data["j_min"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed window data: {exc}") from exc


@dataclass(frozen=True)
class TransferEval:
    """A fully assembled 2x2 transfer matrix; unit determinant enforced."""

    value: np.ndarray

    def __post_init__(self):
        value = np.array(self.value)
        value.setflags(write=False)
        object.__setattr__(self, "value", value)
        if value.shape != (2, 2):
            raise ValidationError("transfer matrix must be 2x2")
        det = value[0, 0] * value[1, 1] - value[0, 1] * value[1, 0]
        if abs(det - 1.0) > DET_TOL:
            raise NumericalError(
                f"transfer determinant {det} deviates from 1 beyond {DET_TOL}"
            )

    @property
    def trace(self) -> float:
        return self.value[0, 0] + self.value[1, 1]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products of the last axes of two (stacks of) vectors."""
    return a[..., :, None] * b[..., None, :]


def build_block_B(blk: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Diagonal block: mixed outer products of p and q plus diag(c, 0)."""
    c = np.asarray(c, dtype=float)
    if c.size != blk.g:
        raise ValidationError(f"pole list length {c.size}, expected {blk.g}")
    pq = _outer(blk.p, blk.q)
    mat = np.tril(pq) + np.triu(np.swapaxes(pq, -1, -2), 1)
    diag = np.arange(blk.g + 1)
    mat[..., diag, diag] += np.append(c, 0.0)
    return mat


def block_diagonal(stack: np.ndarray) -> np.ndarray:
    """Dense matrix carrying the (n, m, m) ``stack`` on its block diagonal."""
    idx = np.arange(stack.shape[0] * stack.shape[1]).reshape(stack.shape[:2])
    mat = np.zeros((idx.size, idx.size))
    mat[idx[:, :, None], idx[:, None, :]] = stack
    return mat


def assemble_dense(window: GmpWindow) -> np.ndarray:
    """Dense symmetric matrix of the window; banded with halfwidth g+1."""
    mat = block_diagonal(build_block_B(window.rows(), window.c))
    per = window.g + 1
    # Coupling block A(p) = delta_g p^T: last row of block i against all
    # slots of block i+1.
    last = np.arange(per - 1, mat.shape[0] - per, per)[:, None]
    nxt = last + 1 + np.arange(per)
    mat[last, nxt] = mat[nxt, last] = window.P[1:]
    return mat


def assemble_wrapped(window: GmpWindow) -> np.ndarray:
    """Dense window operator with the two ends coupled to each other.

    The extra coupling uses the first block's interaction vector, the
    same convention as between consecutive blocks.  Plain truncation can
    be singular at a pole of the comb map; the wrapped operator of a
    near-periodic window keeps its spectrum inside the bands.
    """
    if window.n_blocks < 3:
        raise ValidationError("periodic wrap needs at least three blocks")
    mat = assemble_dense(window)
    per = window.g + 1
    mat[-1, :per] = mat[:per, -1] = window.P[0]
    return mat


def pattern_defect(mat: np.ndarray, coupling: np.ndarray) -> float:
    """Largest entry of a symmetric block matrix outside its block pattern.

    Diagonal blocks of size ``coupling.shape[0]`` are free; the block
    right of each diagonal block may hold only the entries marked in the
    boolean mask ``coupling``; every block farther out must vanish.  Only
    the upper triangle is read.
    """
    blk, slot = np.divmod(np.arange(mat.shape[0]), coupling.shape[0])
    step = blk[None, :] - blk[:, None]
    allowed = (step <= 0) | ((step == 1) & coupling[slot[:, None], slot[None, :]])
    return float(np.max(np.abs(mat), where=~allowed, initial=0.0))


def bp_factor(z: float, c: float, pm: np.ndarray) -> np.ndarray:
    """Elementary factor I - (c - z)^{-1} pm pm^T J; determinant 1 exactly."""
    denom = c - z
    if abs(denom) <= POLE_REL_TOL * max(1.0, abs(c)):
        raise PoleEvaluationError(f"factor evaluated at its pole c = {c}")
    return EYE2 - (_outer(pm, pm) @ JMAT) / denom


def bp_factor_inf(z: float, pm: np.ndarray) -> np.ndarray:
    """The factor carrying the pole at infinity: [[0, -p], [1/p, (z-pq)/p]]."""
    p, q = pm[..., 0], pm[..., 1]
    if (p == 0.0).any():
        raise ValidationError("infinity factor requires p != 0")
    mat = np.zeros(p.shape + (2, 2))
    mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1] = -p, 1.0 / p, (z - p * q) / p
    return mat


def factor_chain(
    mat: np.ndarray, z: float, c: np.ndarray, blk: GmpBlock, lo: int, hi: int
) -> np.ndarray:
    """``mat`` times the elementary factors lo..hi-1 of ``blk`` at z, in order."""
    for m in range(lo, hi):
        mat = mat @ bp_factor(z, c[m], blk.pm(m))
    return mat


def transfer_matrix(blk: GmpBlock, c: np.ndarray, z: float) -> TransferEval:
    """Product of one elementary factor per pole and the infinity factor."""
    c = np.asarray(c, dtype=float)
    mat = factor_chain(EYE2, z, c, blk, 0, blk.g)
    return TransferEval(mat @ bp_factor_inf(z, blk.pm(blk.g)))


def transfer_via_resolvent(blk: GmpBlock, c: np.ndarray, z: float) -> TransferEval:
    """Transfer matrix from resolvent entries of the diagonal block.

    With ``r_pp = <(B - z)^{-1} p, p>``, ``r_pd = <(B - z)^{-1} delta_g, p>``
    and ``r_dd = <(B - z)^{-1} delta_g, delta_g>``, the transfer matrix is
    ``(1/r_pd) [[r_pp r_dd - r_pd^2, -r_pp], [r_dd, -1]]``.
    """
    c = np.asarray(c, dtype=float)
    bmat = build_block_B(blk, c)
    shifted = bmat - z * np.eye(blk.g + 1)
    delta = np.zeros(blk.g + 1)
    delta[blk.g] = 1.0
    x_p = numkit.solve(shifted, blk.p)
    x_d = numkit.solve(shifted, delta)
    r_pp = float(blk.p @ x_p)
    r_pd = float(blk.p @ x_d)
    r_dd = float(x_d[blk.g])
    if abs(r_pd) < 1e-14 * max(1.0, abs(r_pp), abs(r_dd)):
        raise NumericalError("degenerate corner resolvent entry")
    mat = (
        np.array([[r_pp * r_dd - r_pd**2, -r_pp], [r_dd, -1.0]]) / r_pd
    )
    return TransferEval(mat)


def residue_product(
    nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray, k: int
) -> np.ndarray:
    """Mixed factor product at the pole c_k, before the infinity factor.

    The first k-1 elementary factors use the vectors of ``nextblk``, the
    rank-one middle term pairs the k-th vectors of both blocks, and the
    factors k+1..g use the vectors of ``thisblk``.
    """
    g = thisblk.g
    c = np.asarray(c, dtype=float)
    if nextblk.g != g:
        raise ValidationError("blocks must share one gap count")
    if not 1 <= k <= g:
        raise ValidationError(f"pole index {k} outside 1..{g}")
    ck = c[k - 1]
    mat = factor_chain(EYE2, ck, c, nextblk, 0, k - 1)
    mat = mat @ (_outer(nextblk.pm(k - 1), thisblk.pm(k - 1)) @ JMAT)
    return factor_chain(mat, ck, c, thisblk, k, g)


def lambda_sharp(
    nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray, k: int
) -> float:
    """Two-block functional: minus the trace of the mixed factor product.

    The residue product of the two blocks, closed by the infinity factor
    of ``thisblk``, all evaluated at the pole c_k.  With equal blocks it
    is the residue functional Lambda_k.  Stacks of blocks give one value
    per pair of rows.
    """
    mat = residue_product(nextblk, thisblk, c, k)
    mat = mat @ bp_factor_inf(c[k - 1], thisblk.pm(thisblk.g))
    vals = -(mat[..., 0, 0] + mat[..., 1, 1])
    return vals if vals.ndim else float(vals)


def lambda_k(blk: GmpBlock, c: np.ndarray, k: int) -> float:
    """Residue functional at the k-th pole (equal-blocks case)."""
    return lambda_sharp(blk, blk, c, k)


def validate_gmp(window: GmpWindow, floor: float = VALIDITY_FLOOR) -> dict:
    """Check the class criterion: adjacent-pair functionals stay above floor.

    Returns a report with the minimum over adjacent block pairs of the
    two-block functional for each pole index, the absolute block index
    attaining it, and the overall verdict.  A functional that is not
    finite fails the criterion and is reported in place of the minimum.
    """
    report = {
        "valid": False,
        "floor": float(floor),
        "g": window.g,
        "n_pairs": max(window.n_blocks - 1, 0),
        "min_per_k": {},
        "argmin_j": {},
        "message": "",
    }
    if window.n_blocks < 2:
        report["message"] = "insufficient window: need at least two blocks"
        return report
    worst_k = None
    for k in range(1, window.g + 1):
        vals = lambda_sharp(window.rows(1), window.rows(0, -1), window.c, k)
        finite = np.isfinite(vals)
        i_min = int(np.argmin(vals if finite.all() else finite))
        report["min_per_k"][k] = float(vals[i_min])
        report["argmin_j"][k] = window.j_min + i_min
        if not vals[i_min] > floor and worst_k is None:
            worst_k = k
    report["valid"] = worst_k is None
    report["message"] = "ok"
    if worst_k is not None:
        worst = report["min_per_k"][worst_k]
        verdict = f"{worst:.3e} <= floor {floor:.1e}" if np.isfinite(worst) else "not finite"
        report["message"] = (
            f"pair functional at k={worst_k} is {verdict} "
            f"(block {report['argmin_j'][worst_k]})"
        )
    return report


def resolvent_column(window: GmpWindow, k: int) -> np.ndarray:
    """Column of (c_k - A)^{-1} at the unit vector e_{k-1}, in closed form.

    The window must contain the absolute blocks -1, 0, 1.  The result is
    a window-aligned vector supported on those three blocks: the outer
    blocks come from explicit factor products divided by the adjacent
    pair functionals, the middle block from a small stacked least-squares
    solve (its system matrix may be singular at the pole).
    """
    g = window.g
    if not 1 <= k <= g:
        raise ValidationError(f"pole index {k} outside 1..{g}")
    if window.j_min > -1 or window.j_max < 1:
        raise WindowError(
            "window must contain blocks -1, 0, 1 for a resolvent column"
        )
    c = window.c
    ck = c[k - 1]
    blk_m1 = window.block(-1)
    blk_0 = window.block(0)
    blk_1 = window.block(1)

    lam_m1 = lambda_sharp(blk_0, blk_m1, c, k)
    lam_0 = lambda_sharp(blk_1, blk_0, c, k)
    scale = max(abs(lam_m1), abs(lam_0), 1.0)
    if min(abs(lam_m1), abs(lam_0)) <= 1e-12 * scale:
        raise ValidationError(
            "pair functional vanishes; the closed-form column is undefined"
        )

    # Block -1: slot k-1 is 1/Lambda, later slots from factor products,
    # slot g from orthogonality to this block's p.
    f_m1 = np.zeros(g + 1)
    f_m1[k - 1] = 1.0 / lam_m1
    row = blk_m1.pm(k - 1) @ JMAT
    mat = np.eye(2)
    for l in range(k, g):
        if l > k:
            mat = mat @ bp_factor(ck, c[l - 1], blk_m1.pm(l - 1))
        f_m1[l] = float(row @ mat @ blk_m1.pm(l)) / (ck - c[l]) / lam_m1
    f_m1[g] = -float(blk_m1.p[:g] @ f_m1[:g]) / blk_m1.p[g]

    # Block +1: slot k-1 is 1/Lambda, earlier slots from factor products,
    # slots k..g vanish.
    f_1 = np.zeros(g + 1)
    f_1[k - 1] = 1.0 / lam_0
    for m in range(k - 1):
        mat = factor_chain(np.eye(2), ck, c, blk_1, m + 1, k - 1)
        val = float(blk_1.pm(m) @ JMAT @ mat @ blk_1.pm(k - 1))
        f_1[m] = val / (ck - c[m]) / lam_0

    # Block 0: stack the three block-row equations that involve it.
    b_m1 = build_block_B(blk_m1, c)
    b_0 = build_block_B(blk_0, c)
    b_1 = build_block_B(blk_1, c)
    eye = np.eye(g + 1)
    e_rhs = np.zeros(g + 1)
    e_rhs[k - 1] = 1.0
    delta = np.zeros(g + 1)
    delta[g] = 1.0

    rows = [ck * eye - b_0]
    rhs = [e_rhs + blk_0.p * f_m1[g] + delta * float(blk_1.p @ f_1)]
    rows.append(blk_0.p[None, :])
    rhs.append(np.array([float(((ck * eye - b_m1) @ f_m1)[g])]))
    rows.append(np.outer(blk_1.p, delta))
    rhs.append((ck * eye - b_1) @ f_1)
    f_0, *_ = np.linalg.lstsq(
        np.vstack(rows), np.concatenate(rhs), rcond=None
    )

    column = np.zeros((g + 1) * window.n_blocks)
    for j, f_blk in ((-1, f_m1), (0, f_0), (1, f_1)):
        lo = window.scalar_index(j, 0)
        column[lo : lo + g + 1] = f_blk

    dense = assemble_dense(window)
    target = np.zeros(column.size)
    target[window.scalar_index(0, k - 1)] = 1.0
    residual = np.max(np.abs((ck * np.eye(column.size) - dense) @ column - target))
    if residual > 1e-8 * max(1.0, np.max(np.abs(column))):
        raise NumericalError(
            f"closed-form column residual {residual:.3e} too large"
        )
    return column
