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
from functools import lru_cache

import numpy as np

from . import numkit
from .errors import (
    NumericalError,
    PoleEvaluationError,
    ValidationError,
    WindowError,
    integral,
)
from .finitegap import POLE_REL_TOL, check_distinct_poles

# The symplectic unit [[0, -1], [1, 0]].
JMAT = np.array([[0.0, -1.0], [1.0, 0.0]])
JMAT.setflags(write=False)
EYE2 = np.eye(2)
EYE2.setflags(write=False)

DET_TOL = 1e-9
VALIDITY_FLOOR = 1e-8


@dataclass(frozen=True)
class GmpBlock:
    """One block of forming vectors: p = (p_0..p_g), q = (q_0..q_g).

    A block of a window is a view of its rows.  ``GmpWindow.rows`` gives a
    stack of blocks, whose p and q keep the row axis in front; every block
    routine of this module broadcasts over it.  A stack is checked row by
    row, and the first bad row raises its own message.
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
        if p.ndim < 1 or p.shape != q.shape or p.shape[-1] < 1:
            raise ValidationError("p and q must be nonempty vectors of equal length")
        rows_p, rows_q = p.reshape(-1, p.shape[-1]), q.reshape(-1, p.shape[-1])
        finite = np.isfinite(rows_p).all(1) & np.isfinite(rows_q).all(1)
        bad = ~finite | (rows_p[:, -1] <= 0.0)
        if bad.any():
            i = np.argmax(bad)
            if not finite[i]:
                raise ValidationError("block entries must be finite")
            raise ValidationError(f"last p entry must be positive, got {rows_p[i, -1]}")

    @classmethod
    def _view(cls, p: np.ndarray, q: np.ndarray) -> "GmpBlock":
        """Block over read-only rows already checked, without a copy."""
        blk = object.__new__(cls)
        vars(blk).update(p=p, q=q)  # frozen: bypass __setattr__
        return blk

    @property
    def g(self) -> int:
        return self.p.shape[-1] - 1

    def pm(self, m: int) -> np.ndarray:
        """The 2-vector (p_m, q_m)."""
        return np.stack([self.p[..., m], self.q[..., m]], axis=-1)


@dataclass(frozen=True, init=False)
class GmpWindow:
    """A finite run of blocks j = j_min..j_max sharing one pole list c.

    Row i of the read-only ``(n_blocks, g+1)`` arrays ``P`` and ``Q``
    holds the forming vectors of block j_min + i.  The constructor is the
    one place the window rules are applied: every row obeys the block
    rules of ``GmpBlock``, and the g poles are finite and distinct.
    """

    P: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    j_min: int = 0

    def __init__(self, P, Q, c, j_min: int = 0):
        P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
        c = np.array(c, dtype=float)
        if P.shape[:1] == (0,):
            raise ValidationError("window must contain at least one block")
        if P.ndim != 2 or P.shape != Q.shape:
            raise ValidationError("P and Q must be 2-d arrays of equal shape")
        rows = GmpBlock(P, Q)
        if c.ndim != 1 or c.size != rows.g:
            raise ValidationError(f"pole list has length {c.size}, expected {rows.g}")
        if not np.isfinite(c).all():
            raise ValidationError("poles must be finite")
        check_distinct_poles(c)
        c.setflags(write=False)
        vars(self).update(P=rows.p, Q=rows.q, c=c, j_min=j_min)  # frozen: bypass __setattr__

    @property
    def g(self) -> int:
        return self.P.shape[1] - 1

    @property
    def n_blocks(self) -> int:
        return self.P.shape[0]

    @property
    def j_max(self) -> int:
        return self.j_min + self.n_blocks - 1

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
            P = [np.array(b["p"], dtype=float) for b in data["blocks"]]
            Q = [np.array(b["q"], dtype=float) for b in data["blocks"]]
            c = np.array(data["C"], dtype=float)
            j_min = integral(data["j_min"], "j_min")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed window data: {exc}") from exc
        shapes = sorted({row.shape for row in P + Q})
        if len(shapes) > 1:
            raise ValidationError(f"p and q of every block must share one shape, got {shapes}")
        return cls(P, Q, c, j_min)


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


def pattern_defect(rows: np.ndarray, coupling: np.ndarray, first: int = 0) -> float:
    """Largest entry of whole block rows outside their block pattern.

    ``rows`` holds block rows ``first``, ``first + 1``, ... of a symmetric
    block matrix over all of its columns, with diagonal blocks of size
    ``coupling.shape[0]``.  Diagonal blocks are free; the block right of
    each diagonal block may hold only the entries marked in the boolean
    mask ``coupling``, and the block left of it only those of its
    transpose; every block farther out must vanish.
    """
    per = coupling.shape[0]
    k, nb = rows.shape[0] // per, rows.shape[1] // per
    # block column minus block row, entry by entry
    step = (np.arange(nb) - np.arange(first, first + k)[:, None]).repeat(per, 0).repeat(per, 1)
    allowed = (
        (step == 0)
        | ((step == 1) & np.tile(coupling, (k, nb)))
        | ((step == -1) & np.tile(coupling.T, (k, nb)))
    )
    return float(np.max(np.abs(rows), where=~allowed, initial=0.0))


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


def transfer_matrix(blk: GmpBlock, c: np.ndarray, z: float) -> TransferEval:
    """Product of one elementary factor per pole and the infinity factor."""
    c = np.asarray(c, dtype=float)
    mat = EYE2
    for m in range(blk.g):
        mat = mat @ bp_factor(z, c[m], blk.pm(m))
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


@lru_cache(maxsize=8)
def _chain_plan(c_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Slot positions and denominators of the g-1 steps of ``lambda_sharp``
    at the poles ``np.frombuffer(c_bytes)``, on axes (step, side, k-1).

    Step i applies slot g-2-i of the next block on side 0 to the poles
    k > slot+1 and slot i+1 of this block on side 1 to k < slot+1, as
    I + w w^T J / e with e = c_k - c_m on side 0 and c_m - c_k on side 1;
    e = inf makes the other factors the identity.
    """
    c = np.frombuffer(c_bytes)
    g, k0, side, step = c.size, np.arange(c.size), np.arange(2)[:, None], np.arange(c.size - 1)
    slot = np.where(side == 0, g - 2 - step[:, None, None], step[:, None, None] + 1)
    active = np.where(side == 0, slot < k0, slot > k0)
    cm = np.broadcast_to(c[slot], active.shape)
    near = active & (np.abs(cm - c) <= POLE_REL_TOL * np.maximum(1.0, np.abs(cm)))
    if near.any():
        raise PoleEvaluationError(f"factor evaluated at its pole c = {cm[near][0]}")
    denom = np.where(active, (cm - c) * (2 * side - 1), np.inf)[..., None]
    denom.setflags(write=False)
    return slot + side * (g + 1), denom


def lambda_sharp(
    nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray, *, states=None
) -> np.ndarray:
    """Two-block functionals of all poles c_k, shape (..., g); the residue
    functionals Lambda_k for equal blocks.

    At c_k the mixed product N_0..N_{k-2} (u v^T J) T_k..T_{g-1} of the
    elementary factors of ``nextblk`` (N) and ``thisblk`` (T) has a
    rank-one middle, so it is a_k b_k^T with a_k = N_0..N_{k-2} u and
    b_k^T = v^T J T_k..T_{g-1}, built for every pole and row at once;
    the functional is minus the trace of a_k b_k^T times the infinity
    factor of ``thisblk``.  A list ``states`` receives the states i < g:
    a_k through slots >= g-1-i, b_k through slots <= i, on axes
    (component, side, k-1, row).
    """
    g, c = thisblk.g, np.asarray(c, dtype=float)
    if nextblk.p.shape != thisblk.p.shape:
        raise ValidationError("blocks must share one gap count")
    # Component, block and slot of [next (p, q); this (q, -p)], rows last.
    # With w = (q, -p) = v^T J the row side takes the column form: for
    # T = I - v v^T J / (c_m - c_k), T^T = I - w w^T J / (c_k - c_m).
    slots = np.concatenate([nextblk.p, thisblk.q, nextblk.q, -thisblk.p], axis=-1)
    slots = slots.T.reshape(2, 2, g + 1, -1)
    state = slots[:, :, :g]
    if states is not None:
        states.append(state)
    if g > 1:
        idx, denom = _chain_plan(c.tobytes())
        w = slots.reshape(2, 2 * g + 2, -1)[:, idx]
        rank_one = w[None, :] * np.stack([w[1], -w[0]])[:, None]  # [l, j]: w_j (w^T J)_l
        for (col0, col1), den in zip(rank_one.transpose(2, 0, 1, 3, 4, 5), denom):
            state = state + (col0 * state[0] + col1 * state[1]) / den
            if states is not None:
                states.append(state)
    # terms of minus the trace of a_k b_k^T times the infinity factor at
    # c_k, whose transpose is [[0, 1/p], [-p, (c_k - pq)/p]]
    p, q = thisblk.p[..., g], thisblk.q[..., g]
    closing = np.zeros((2, 2, g, state.shape[-1]))
    closing[0, 1], closing[1, 0], closing[1, 1] = -1.0 / p, p, (p * q - c[:, None]) / p
    terms = state[:, None, 0] * state[None, :, 1] * closing
    vals = ((terms[0, 0] + terms[0, 1]) + (terms[1, 0] + terms[1, 1])).T
    return vals.reshape(thisblk.p.shape[:-1] + (g,))


def lambda_k(blk: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Residue functionals of the poles (equal-blocks case), shape (..., g)."""
    return lambda_sharp(blk, blk, c)


def validate_gmp(window: GmpWindow, floor: float = VALIDITY_FLOOR) -> dict:
    """Check the class criterion: adjacent-pair functionals stay above floor.

    Returns a report with the pair functionals (``values``, row i pairing
    the window's blocks i+1 and i), their minimum over adjacent block
    pairs for each pole slot (``min_per_k``), the absolute block index
    attaining it (``argmin_j``), and the overall verdict.  A functional
    that is not finite fails the criterion and is reported in place of
    the minimum.  The message names poles k = 1..g.
    """
    if window.n_blocks < 2:
        return {
            "valid": False,
            "values": np.zeros((0, window.g)),
            "min_per_k": np.zeros(0),
            "argmin_j": np.zeros(0, dtype=int),
            "message": "insufficient window: need at least two blocks",
        }
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        vals = lambda_sharp(window.rows(1), window.rows(0, -1), window.c)
    # per pole: the first value that is not finite, else the minimum
    i_min = np.where(np.isfinite(vals), vals, -np.inf).argmin(0)
    mins = vals[i_min, np.arange(window.g)]
    above = ((mins > floor) & np.isfinite(mins)).tolist()
    report = {
        "valid": all(above),
        "values": vals,
        "min_per_k": mins,
        "argmin_j": i_min + window.j_min,
        "message": "ok",
    }
    if not report["valid"]:
        k = above.index(False)
        verdict = f"{mins[k]:.3e} <= floor {floor:.1e}" if np.isfinite(mins[k]) else "not finite"
        report["message"] = (
            f"pair functional at k={k + 1} is {verdict} (block {report['argmin_j'][k]})"
        )
    return report


def resolvent_column(window: GmpWindow, k: int, j: int) -> np.ndarray:
    """Column of (c_k - A)^{-1} at slot k-1 of block j, in closed form.

    The window must contain the blocks j-1, j, j+1.  The result is a
    window-aligned vector supported on those three blocks: the outer
    blocks come from the partial factor chains of the adjacent pair
    functionals, divided by them, the middle block from a small stacked
    least-squares solve (its system matrix may be singular at the pole).
    """
    g = window.g
    if not 1 <= k <= g:
        raise ValidationError(f"pole index {k} outside 1..{g}")
    if window.j_min > j - 1 or window.j_max < j + 1:
        raise WindowError(f"window must contain blocks {j - 1}..{j + 1} for a resolvent column")
    c, ck, i0 = window.c, window.c[k - 1], j - window.j_min  # i0: position of block j
    states = []  # chains of the pairs (block j, block j-1) and (block j+1, block j)
    lams = lambda_sharp(window.rows(i0, i0 + 2), window.rows(i0 - 1, i0 + 1), c, states=states)
    lam_m1, lam_0 = lams[:, k - 1]
    if min(abs(lam_m1), abs(lam_0)) <= 1e-12 * max(abs(lam_m1), abs(lam_0), 1.0):
        raise ValidationError("pair functional vanishes; the closed-form column is undefined")
    chains = np.stack(states)[..., k - 1, :]  # (state, component, side, pair)
    P, Q = window.P[i0 - 1 : i0 + 2], window.Q[i0 - 1 : i0 + 2]  # blocks j-1, j, j+1
    xs = np.zeros((5, g + 1))  # the column on blocks j-2..j+2
    xs[1, k - 1], xs[3, k - 1] = 1.0 / lam_m1, 1.0 / lam_0
    # Block j-1: slot l in k..g-1 pairs (p_l, q_l) with the row chain
    # through slots k..l-1; slot g from orthogonality to its p.
    row = chains[k - 1 : g - 1, :, 1, 0]
    xs[1, k:g] = (row[:, 0] * P[0, k:g] + row[:, 1] * Q[0, k:g]) / (ck - c[k:g]) / lam_m1
    xs[1, g] = -float(P[0, :g] @ xs[1, :g]) / P[0, g]
    # Block j+1: slot m < k-1 pairs (p_m, q_m) J with the column chain
    # through slots m+1..k-2; slots k..g vanish.
    col = chains[g - 2 - np.arange(k - 1), :, 0, 1]
    fwd = (Q[2, : k - 1] * col[:, 0] - P[2, : k - 1] * col[:, 1]) / (ck - c[: k - 1])
    xs[3, : k - 1] = fwd / lam_0
    # Block j: least squares on the three block-row equations involving it.
    eye = np.eye(g + 1)
    shifted = ck * eye - build_block_B(window.rows(i0 - 1, i0 + 2), c)  # blocks j-1, j, j+1
    system = np.vstack([shifted[1], P[1][None, :], np.outer(P[2], eye[g])])
    rhs = np.concatenate([
        eye[k - 1] + P[1] * xs[1, g] + eye[g] * float(P[2] @ xs[3]),
        [(shifted[0] @ xs[1])[g]],
        shifted[2] @ xs[3],
    ])
    xs[2] = np.linalg.lstsq(system, rhs, rcond=None)[0]

    # (c_k - A) column on block rows j-2..j+2; it lives on blocks j-1..j+1
    hi = min(window.j_max - j, 2) + 3
    ps = np.zeros((5, g + 1))
    ps[1:hi] = window.P[i0 - 1 : i0 + hi - 2]
    res = np.zeros((5, g + 1))
    res[1:4] = (shifted @ xs[1:4, :, None])[..., 0]
    res[:4, g] -= np.vecdot(ps[1:], xs[1:])  # coupling to the block above
    res[1:] -= ps[1:] * xs[:4, g:]  # coupling to the block below
    res[2, k - 1] -= 1.0
    residual = np.max(np.abs(res[max(window.j_min - j, -2) + 2 : hi]))
    if residual > 1e-8 * max(1.0, np.max(np.abs(xs))):
        raise NumericalError(f"closed-form column residual {residual:.3e} too large")
    column = np.zeros((g + 1) * window.n_blocks)
    column[(i0 - 1) * (g + 1) : (i0 + 2) * (g + 1)] = xs[1:4].ravel()
    return column
