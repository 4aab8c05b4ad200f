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
from .errors import (DOUBLE_MAX, PoleEvaluationError, ValidationError, WindowError, check,
                     check_entries, check_integer, read_numbers)
from .finitegap import POLE_REL_TOL, check_distinct_poles

# The symplectic unit [[0, -1], [1, 0]].
JMAT = np.array([[0.0, -1.0], [1.0, 0.0]])
JMAT.setflags(write=False)
EYE2 = np.eye(2)
EYE2.setflags(write=False)

VALIDITY_FLOOR = 1e-8


def _check_rows(p: np.ndarray, q: np.ndarray) -> None:
    """The block rules: p and q nonempty of one shape, a positive last p entry."""
    if p.ndim < 1 or p.shape != q.shape or p.shape[-1] < 1:
        raise ValidationError("p and q must be nonempty vectors of equal length")
    pg = p[..., -1]
    if not pg.min(initial=np.inf) > 0.0:
        raise ValidationError(f"last p entry must be positive, got {pg.flat[np.argmin(pg > 0.0)]}")


@dataclass(frozen=True)
class GmpBlock:
    """One block of forming vectors: p = (p_0..p_g), q = (q_0..q_g).

    A block of a window is a view of its rows.  ``GmpWindow.rows`` gives a
    stack of blocks, whose p and q keep the row axis in front; every block
    routine of this module broadcasts over it.  A block made in process
    (lists: one block; an array: a stack) reads p and q by ``check_entries``
    with no magnitude limit, named ``p[i]`` (``p[r][i]`` in a stack), then
    obeys the block rules of ``_check_rows``.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        name = "{key}" + "[{}]" * max(getattr(self.p, "ndim", 1), 1)
        p, q = check_entries({"p": self.p, "q": self.q}, name, -2, DOUBLE_MAX)
        _check_rows(p, q)
        vars(self).update(p=p, q=q)  # frozen: bypass __setattr__

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
    holds the forming vectors of block j_min + i.  The constructor applies
    the window rules, each array passing the number rule ``check_entries``
    once, with every entry small enough to square and named by its JSON
    path (``blocks[3].q[1]``): the block rules of ``_check_rows``, g poles
    (``C[0]``), distinct, and an integer j_min.
    """

    P: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    j_min: int = 0

    def __init__(self, P, Q, c, j_min: int = 0):
        P, Q = check_entries({"p": P, "q": Q}, "blocks[{0}].{key}[{1}]", 1)
        if P.shape[:1] == (0,):
            raise ValidationError("window must contain at least one block")
        if P.ndim != 2 or P.shape != Q.shape:
            raise ValidationError("P and Q must be 2-d arrays of equal shape")
        _check_rows(P, Q)
        c, = check_entries({"C": c}, "{key}[{0}]")
        if c.ndim != 1 or c.size != P.shape[1] - 1:
            raise ValidationError(f"pole list has length {c.size}, expected {P.shape[1] - 1}")
        check_distinct_poles(c)
        vars(self).update(P=P, Q=Q, c=c, j_min=check_integer(j_min, "j_min"))  # frozen

    def _with_rows(self, P, Q, j_min: int) -> "GmpWindow":
        """Window of rows P, Q from j_min on this window's checked pole list."""
        P, Q = check_entries({"p": P, "q": Q}, "blocks[{0}].{key}[{1}]", 1)
        _check_rows(P, Q)
        win = object.__new__(GmpWindow)
        vars(win).update(P=P, Q=Q, c=self.c, j_min=check_integer(j_min, "j_min"))
        return win

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
            raise WindowError(f"block {j} outside window [{self.j_min}, {self.j_max}]")
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
        """The window of ``to_json``'s form, read by ``read_numbers``; ``"g"``
        may be left out, and if present must be the genus of the blocks."""
        P, Q = (read_numbers(data, f"blocks[].{key}[]") for key in "pq")
        window = cls(P, Q, read_numbers(data, "C[]"), read_numbers(data, "j_min", int))
        g = read_numbers(data, "g", int) if "g" in data else None
        if g not in (None, window.g):
            raise ValidationError(f"window key g is {g} but its blocks have genus {window.g}")
        return window


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products of the last axes of two (stacks of) vectors."""
    return a[..., :, None] * b[..., None, :]


def build_block_B(blk: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Diagonal block: mixed outer products of p and q plus diag(c, 0)."""
    c = np.asarray(c, dtype=float)
    if c.size != blk.g:
        raise ValidationError(f"pole list length {c.size}, expected {blk.g}")
    pq = _outer(blk.p, blk.q)
    mat = np.where(np.tri(blk.g + 1, dtype=bool), pq, np.swapaxes(pq, -1, -2))
    # Adding diag(c, 0) + 0.0 to every entry turns -0.0 to +0.0 wherever a
    # sum of the two triangles and then of the poles would have.
    mat += np.diag(np.append(c, 0.0) + 0.0)
    return mat


def band_rows(blocks: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Row i of the matrix of a run of blocks (``GmpWindow.rows``) on its
    entries i - h..i + h, h = g + 1, every entry outside the run zero."""
    n, per = blocks.p.shape
    # block row r on blocks r - 1, r, r + 1: A(p_r)^T, B_r and A(p_{r+1})
    stack = np.zeros((n, per, 3 * per))
    stack[1:, :, per - 1] = stack[:-1, -1, 2 * per :] = blocks.p[1:]
    stack[:, :, per : 2 * per] = build_block_B(blocks, c)
    # slot s holds its band on columns s..s + 2h of its block row
    band = np.arange(per)[:, None] * (3 * per + 1) + np.arange(2 * per + 1)
    return stack.reshape(n, -1)[:, band].reshape(n * per, -1)


def assemble_dense(window: GmpWindow) -> np.ndarray:
    """Dense symmetric matrix of the window: its ``band_rows`` placed on a
    zero matrix."""
    rows = band_rows(window.rows(), window.c)
    n, h = rows.shape[0], window.g + 1
    cols = np.arange(n)[:, None] + np.arange(-h, h + 1)
    inside = (cols >= 0) & (cols < n)
    mat = np.zeros((n, n))
    mat.ravel()[(cols + n * np.arange(n)[:, None])[inside]] = rows[inside]
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
    # entry (r, s, b, t): slot s of block row r against slot t of block column b
    blocks = np.abs(rows).reshape(k, per, nb, per)
    r = np.arange(k)
    for step, free in ((0, True), (1, coupling), (-1, coupling.T)):
        b = first + r + step
        inside = (b >= 0) & (b < nb)
        ri, bi = r[inside], b[inside]
        blocks[ri, :, bi, :] = np.where(free, 0.0, blocks[ri, :, bi, :])
    return float(np.max(blocks, initial=0.0))


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


def transfer_matrix(blk: GmpBlock, c: np.ndarray, z: float) -> np.ndarray:
    """The 2x2 product of one elementary factor per pole and the infinity
    factor.  Its determinant is 1 up to rounding; acceptance criterion 2
    measures the deviation."""
    c = np.asarray(c, dtype=float)
    mat = EYE2
    for m in range(blk.g):
        mat = mat @ bp_factor(z, c[m], blk.pm(m))
    return mat @ bp_factor_inf(z, blk.pm(blk.g))


def transfer_via_resolvent(blk: GmpBlock, c: np.ndarray, z: float) -> np.ndarray:
    """The 2x2 transfer matrix from resolvent entries of the diagonal block.

    With ``r_pp = <(B - z)^{-1} p, p>``, ``r_pd = <(B - z)^{-1} delta_g, p>``
    and ``r_dd = <(B - z)^{-1} delta_g, delta_g>``, the transfer matrix is
    ``(1/r_pd) [[r_pp r_dd - r_pd^2, -r_pp], [r_dd, -1]]``.
    """
    bmat = build_block_B(blk, c)
    shifted = bmat - z * np.eye(blk.g + 1)
    delta = np.eye(blk.g + 1)[blk.g]
    x_p, x_d = numkit.solve(shifted, np.column_stack((blk.p, delta))).T
    r_pp = float(blk.p @ x_p)
    r_pd = float(blk.p @ x_d)
    r_dd = float(x_d[blk.g])
    check("degenerate corner resolvent entry: |r_pd|", abs(r_pd),
          1e-14 * max(1.0, abs(r_pp), abs(r_dd)), floor=True)
    return np.array([[r_pp * r_dd - r_pd**2, -r_pp], [r_dd, -1.0]]) / r_pd


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


def lambda_sharp(nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Two-block functionals of all poles c_k, shape (..., g); the residue
    functionals Lambda_k for equal blocks.

    At c_k the mixed product N_0..N_{k-2} (u v^T J) T_k..T_{g-1} of the
    elementary factors of ``nextblk`` (N) and ``thisblk`` (T) has a
    rank-one middle, so it is a_k b_k^T with a_k = N_0..N_{k-2} u and
    b_k^T = v^T J T_k..T_{g-1}, built for every pole and row at once;
    the functional is minus the trace of a_k b_k^T times the infinity
    factor of ``thisblk``.  The chain runs on C-order buffers with the
    rows last: one state, updated in place, and the two factor vectors
    of each step, gathered once; each step forms its rank-one factors
    as it is applied.
    """
    g, c = thisblk.g, np.asarray(c, dtype=float)
    if nextblk.p.shape != thisblk.p.shape:
        raise ValidationError("blocks must share one gap count")
    # Component, block and slot of [next (p, q); this (q, -p)], rows last.
    # With w = (q, -p) = v^T J the row side takes the column form: for
    # T = I - v v^T J / (c_m - c_k), T^T = I - w w^T J / (c_k - c_m).
    slots = np.concatenate([nextblk.p, thisblk.q, nextblk.q, -thisblk.p], axis=-1)
    slots = slots.reshape(-1, 4 * g + 4).T.reshape(2, 2, g + 1, -1)
    state = slots[:, :, :g]
    if g > 1:
        # C-order copies of the strided slots: the state, and the factor
        # vectors w of each step on axes (step, component, side, 1, row)
        idx, denom = _chain_plan(c.tobytes())
        factors = slots.reshape(2, 2 * g + 2, -1)[:, idx].transpose(1, 0, 2, 3, 4).copy()
        state = state.copy()
        del slots  # frees the concatenation it views
        for w, den in zip(factors, denom):
            inc = w * w[1] * state[0]  # [j]: w_j (w^T J)_l state_l, summed over l
            inc += w * -w[0] * state[1]
            inc /= den
            state += inc
    # terms of minus the trace of a_k b_k^T times the infinity factor at
    # c_k, whose transpose is [[0, 1/p], [-p, (c_k - pq)/p]]
    p, q = thisblk.p[..., g].ravel(), thisblk.q[..., g].ravel()
    closing = np.zeros((2, 2, g, state.shape[-1]))
    closing[0, 1], closing[1, 0], closing[1, 1] = -1.0 / p, p, (p * q - c[:, None]) / p
    terms = state[:, None, 0] * state[None, :, 1] * closing
    vals = ((terms[0, 0] + terms[0, 1]) + (terms[1, 0] + terms[1, 1])).T
    return vals.reshape(thisblk.p.shape[:-1] + (g,))


def lambda_k(blk: GmpBlock, c: np.ndarray) -> np.ndarray:
    """Residue functionals of the poles (equal-blocks case), shape (..., g)."""
    return lambda_sharp(blk, blk, c)


def validate_gmp(window: GmpWindow, floor: float = VALIDITY_FLOOR, state: str = "") -> np.ndarray:
    """The class criterion: the pair functionals of adjacent blocks, shape
    (n_blocks - 1, g), row i pairing the window's blocks i+1 and i and
    column k-1 pole k, are returned once each is finite and strictly above
    ``floor`` (the bound a refusal prints is the next double).  Otherwise
    ``check`` raises a ValidationError naming the first in C order that is
    not, by pole k and block, after ``state``.
    """
    if window.n_blocks < 2:
        raise WindowError("the class check needs at least two blocks")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        vals = lambda_sharp(window.rows(1), window.rows(0, -1), window.c)
    g = window.g
    check(lambda i: f"{state}pair functional at k={i % g + 1} (block {window.j_min + i // g})",
          vals, np.nextafter(floor, np.inf), ValidationError, floor=True)
    return vals


def resolvent_column(P: np.ndarray, Q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of (c_1 - A)^{-1} at slot 0 of block j, in closed form, for
    a stack of pairs: ``P`` and ``Q``, (pair, 5, g + 1), hold the blocks
    j-2..j+2 of each, and c is the nonempty pole list.

    One ``lambda_sharp`` call gives the pair functionals at c_1 of the
    blocks (j+1, j) and (j, j-1).  Block j+1 is the reciprocal of the
    first on slot 0 and zero elsewhere; block j-1 the partial row chain
    of its ``bp_factor`` factors at c_1 divided by the second, slot g
    from orthogonality to its p; block j one stacked pseudo-inverse with
    the cutoff of ``np.linalg.lstsq`` (the system may be singular at the
    pole).  Each column is checked on block rows j-2..j+2.  Returns the
    indices of the pairs whose functionals do not vanish (the others
    have no closed form) and their columns on blocks j-1..j+1.
    """
    g = P.shape[-1] - 1
    # the pairs (block j, block j-1) and (block j+1, block j)
    this, nxt = GmpBlock._view(P[:, 1:3], Q[:, 1:3]), GmpBlock._view(P[:, 2:4], Q[:, 2:4])
    lams = lambda_sharp(nxt, this, c)[..., 0]
    ok = np.flatnonzero(np.min(abs(lams), 1) > 1e-12 * np.max(abs(lams), 1, initial=1.0))
    P, Q, (lam_m1, lam_0), c1 = P[ok], Q[ok], lams[ok].T, c[0]
    xs = np.zeros_like(P)  # the columns on blocks j-2..j+2
    xs[:, 1, 0], xs[:, 3, 0] = 1.0 / lam_m1, 1.0 / lam_0
    # Block j-1: slot m in 1..g-1 pairs (p_m, q_m) with the row chain
    # (p_0, q_0) J T_1..T_{m-1} of its factors T at c_1; slot g from
    # orthogonality to its p.
    blk = GmpBlock._view(P[:, 1], Q[:, 1])
    row = blk.pm(0) @ JMAT
    for m in range(1, g):
        pm = blk.pm(m)
        xs[:, 1, m] = np.vecdot(row, pm) / (c1 - c[m]) / lam_m1
        row = (row[:, None] @ bp_factor(c1, c[m], pm))[:, 0]
    xs[:, 1, g] = -np.vecdot(P[:, 1, :g], xs[:, 1, :g]) / P[:, 1, g]
    # Block j: least squares on the three block-row equations involving it.
    eye = np.eye(g + 1)
    shifted = c1 * eye - build_block_B(GmpBlock._view(P[:, 1:4], Q[:, 1:4]), c)  # blocks j-1..j+1
    system = np.concatenate([shifted[:, 1], P[:, 2, None], P[:, 3, :, None] * eye[g]], axis=1)
    rhs = np.concatenate([
        eye[0] + P[:, 2] * xs[:, 1, g:] + eye[g] * np.vecdot(P[:, 3], xs[:, 3])[:, None],
        np.vecdot(shifted[:, 0, g], xs[:, 1])[:, None],
        (shifted[:, 2] @ xs[:, 3, :, None])[..., 0],
    ], axis=1)
    xs[:, 2] = (np.linalg.pinv(system, rtol=None) @ rhs[..., None])[..., 0]

    # (c_1 - A) columns on block rows j-2..j+2; they live on blocks j-1..j+1
    res = np.zeros_like(xs)
    res[:, 1:4] = (shifted @ xs[:, 1:4, :, None])[..., 0]
    res[:, :4, g] -= np.vecdot(P[:, 1:], xs[:, 1:])  # coupling to the block above
    res[:, 1:] -= P[:, 1:] * xs[:, :4, g:]  # coupling to the block below
    res[:, 2, 0] -= 1.0
    check("closed-form column residual", np.max(np.abs(res), axis=(1, 2), initial=0.0),
          1e-8 * np.max(np.abs(xs), axis=(1, 2), initial=1.0))
    return ok, xs[:, 1:4]
