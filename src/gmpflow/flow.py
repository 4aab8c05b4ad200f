"""Shift dynamics on block windows and its scalar readout.

One step conjugates the assembled window by a block-diagonal orthogonal
matrix built from the leading vectors and then shifts by one scalar
slot.  Each step consumes one block at either edge; the surviving
central blocks reproduce the infinite evolution exactly, because a new
block depends only on its two old neighbours, so a step acts on the row
arrays of all blocks at once.  Reading off the block norms along the run
yields the coefficients of a half-axis three-term recurrence, which is
how the dynamics is compared against its Jacobi counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, WindowError
from .gmp import (
    VALIDITY_FLOOR,
    GmpBlock,
    GmpWindow,
    assemble_dense,
    block_diagonal,
    build_block_B,
    lambda_sharp,
    validate_gmp,
)

ORTHO_TOL = 1e-12
STRUCTURE_REL_TOL = 1e-8
READOUT_REL_TOL = 1e-10
# Squares as a Python float's ``x ** 2`` takes them, by the C library's pow:
# np.square rounds about one argument in a thousand the other way.
_PY_POW = np.frompyfunc(pow, 2, 1)


def rotation_o(phi) -> np.ndarray:
    """Symmetric plane rotation-reflection [[sin, cos], [cos, -sin]].

    The block is orthogonal, involutive and has determinant -1; it is
    the elementary factor from which the block orthogonals are built.
    An array of angles gives one block per angle, stacked in front.
    """
    s, co = np.sin(phi), np.cos(phi)
    return np.stack([np.stack([s, co], -1), np.stack([co, -s], -1)], -2)


def tail_norms(p: np.ndarray) -> np.ndarray:
    """Norms of the trailing sections (p_k, ..., p_g) for k = 0..g."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(np.cumsum(p[..., ::-1] ** 2, axis=-1)[..., ::-1])


def u_block(p) -> np.ndarray:
    """Orthogonal block sending delta_0 to p/||p||.

    Built as the product of embedded plane rotations acting on
    coordinate pairs (k-1, k) for k = 1..g, where the k-th angle has
    sine and cosine proportional to (p_{k-1}, ||(p_k..p_g)||).  Column
    0 of the result is p/||p||; column k vanishes on the first k-1
    slots, carries the squared tail norm on slot k-1 and -p_{k-1} times
    the tail below.  A stack of vectors, one per row, gives the stack of
    their blocks.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ValidationError("p must be a vector with at least two entries")
    if not np.all(np.isfinite(p)):
        raise ValidationError("p must be finite")
    if np.any(p[..., -1] <= 0.0):
        raise ValidationError("trailing p entry must be positive")
    tails = tail_norms(p)
    g = p.shape[-1] - 1
    u = eye = np.broadcast_to(np.eye(g + 1), p.shape[:-1] + (g + 1, g + 1))
    for k in range(1, g + 1):
        factor = eye.copy()
        factor[..., k - 1 : k + 1, k - 1 : k + 1] = rotation_o(
            np.arctan2(p[..., k - 1], tails[..., k])
        )
        u = factor @ u
    defect = float(np.max(np.abs(np.swapaxes(u, -1, -2) @ u - eye)))
    if defect > ORTHO_TOL:
        raise NumericalError(f"orthogonality defect {defect:.3e} in u_block")
    return u


def _block_angles(P: np.ndarray):
    """Sine and cosine from the last two p entries (the last is positive)."""
    x = np.hypot(P[:, -2], P[:, -1])
    return P[:, -2] / x, P[:, -1] / x


def omega_step(window: GmpWindow) -> GmpWindow:
    """One conjugate-and-shift substep; rolls the pole order by one.

    The pole list (c_1..c_g) becomes (c_g, c_1, .., c_{g-1}).  New
    block j is assembled from old blocks j-1 and j, so the result keeps
    blocks j_min+1..j_max.  Entry by entry it coincides with
    conjugating the dense window by the embedded plane rotations and
    shifting by one scalar slot (see ``omega_identity_residual``).
    """
    g = window.g
    if window.n_blocks < 2:
        raise WindowError("need at least two blocks for a substep")
    cg = window.c[g - 1]
    s, co = _block_angles(window.P)
    sp, cp, sc, cc = s[:-1], co[:-1], s[1:], co[1:]
    prev_p, prev_q, cur_p, cur_q = window.P[:-1], window.Q[:-1], window.P[1:], window.Q[1:]
    # rotated trailing corner of the previous block
    m00 = prev_q[:, g - 1] * prev_p[:, g - 1] + cg
    m01 = prev_q[:, g - 1] * prev_p[:, g]
    m11 = prev_q[:, g] * prev_p[:, g]
    p_new = np.empty_like(cur_p)
    p_new[:, 0] = sp * cp * (m00 - m11) + (cp * cp - sp * sp) * m01
    p_new[:, 1:g] = cp[:, None] * cur_p[:, : g - 1]
    p_new[:, g] = cp * np.hypot(cur_p[:, -2], cur_p[:, -1])
    n00 = cur_q[:, g - 1] * cur_p[:, g - 1] + cg
    n01 = cur_q[:, g - 1] * cur_p[:, g]
    n11 = cur_q[:, g] * cur_p[:, g]
    q_new = np.empty_like(cur_p)
    q_new[:, 0] = -sp / cp
    q_new[:, 1:g] = cur_q[:, : g - 1] / cp[:, None]
    q_new[:, g] = (sc * sc * n00 + 2.0 * sc * cc * n01 + cc * cc * n11) / p_new[:, g]
    return GmpWindow.from_arrays(p_new, q_new, np.roll(window.c, 1), window.j_min + 1)


def jacobi_flow_step(window: GmpWindow) -> GmpWindow:
    """One full step of the flow; drops one block at each edge.

    New block j is formed from old blocks j and j+1, and the retained
    range is j_min+1..j_max-1.  The result coincides with conjugating
    the dense window by the block diagonal of ``u_block`` matrices and
    shifting by one scalar slot (see ``flow_identity_residual``).
    """
    g = window.g
    if window.n_blocks < 3:
        raise WindowError(
            f"need at least three blocks for a step, have {window.n_blocks}"
        )
    # Row i of the result comes from rows i+1 ("this") and i+2 ("next").
    this, nxt = window.P[1:-1], window.P[2:]
    tails = tail_norms(this)
    norm_this = tails[:, 0]
    norm_next = np.sqrt(nxt[:, None, :] @ nxt[:, :, None])[:, 0, 0]
    bmats = build_block_B(window.rows(1), window.c)
    u = u_block(this)
    x = this / norm_this[:, None]
    v = (np.swapaxes(u, 1, 2) @ (bmats[:-1] @ x[:, :, None]))[:, :, 0]
    p_new = np.empty_like(this)
    p_new[:, :g] = v[:, 1:]
    p_new[:, g] = norm_next * this[:, g] / norm_this
    q_new = np.empty_like(this)
    q_new[:, :g] = -norm_this[:, None] * this[:, :g] / (tails[:, :g] * tails[:, 1:])
    b_in = (nxt[:, None, :] @ bmats[1:] @ nxt[:, :, None])[:, 0, 0]
    b_in /= _PY_POW(norm_next, 2).astype(float)
    q_new[:, g] = norm_this / (this[:, g] * norm_next) * b_in
    return GmpWindow.from_arrays(p_new, q_new, window.c, window.j_min + 1)


def ods_step(
    block: GmpBlock, c, a_in: float, b_in: float
) -> tuple[GmpBlock, float]:
    """Input-output form of the step at a single block position.

    Borders the block matrix with the scalar input pair (a_in on the
    trailing slot, b_in in the corner), conjugates by the block
    orthogonal, and reads off the scalar output b_out in the leading
    corner together with the next state down the first column.
    """
    c = np.asarray(c, dtype=float)
    g = block.g
    if not (np.isfinite(a_in) and np.isfinite(b_in)):
        raise ValidationError("scalar inputs must be finite")
    if a_in <= 0.0:
        raise ValidationError(f"a_in must be positive, got {a_in}")
    bordered = np.zeros((g + 2, g + 2))
    bordered[: g + 1, : g + 1] = build_block_B(block, c)
    bordered[g, g + 1] = a_in
    bordered[g + 1, g] = a_in
    bordered[g + 1, g + 1] = b_in
    gmat = np.eye(g + 2)
    gmat[: g + 1, : g + 1] = u_block(block.p)
    m = gmat.T @ bordered @ gmat
    b_out = float(m[0, 0])
    p_new = m[1:, 0].copy()
    if p_new[-1] <= 0.0:
        raise NumericalError("trailing entry of the next state lost positivity")
    q_new = m[g + 1, 1:] / p_new[-1]
    new_block = GmpBlock(p_new, q_new)
    rebuilt = build_block_B(new_block, c)
    scale = max(1.0, float(np.max(np.abs(m))))
    defect = float(np.max(np.abs(m[1:, 1:] - rebuilt)))
    if defect > STRUCTURE_REL_TOL * scale:
        raise NumericalError(
            f"conjugated border lost the block pattern (defect {defect:.3e})"
        )
    return new_block, b_out


def omega_identity_residual(window: GmpWindow, stepped: GmpWindow) -> float:
    """Deviation of a substep result from the dense conjugation route.

    Conjugates the assembled old window by the embedded plane rotations
    of every block and compares the one-slot-shifted result against the
    assembled new window, returning the largest absolute mismatch.
    """
    g = window.g
    rots = np.broadcast_to(np.eye(g + 1), (window.n_blocks, g + 1, g + 1)).copy()
    rots[:, g - 1 :, g - 1 :] = rotation_o(np.arctan2(*_block_angles(window.P)))
    return _conjugation_residual(window, stepped, block_diagonal(rots), -1)


def flow_identity_residual(window: GmpWindow, stepped: GmpWindow) -> float:
    """Deviation of a flow step from the dense conjugation route.

    Conjugates the assembled old window by the block diagonal of
    ``u_block`` matrices and compares the one-slot-shifted result
    against the assembled new window, returning the largest absolute
    mismatch.
    """
    return _conjugation_residual(window, stepped, block_diagonal(u_block(window.P)), 1)


def _conjugation_residual(window, stepped, o_full, shift: int) -> float:
    """Largest mismatch between the assembled stepped window and the old
    one conjugated by ``o_full`` and shifted by ``shift`` scalar slots."""
    conj = o_full.T @ assemble_dense(window) @ o_full
    dense_new = assemble_dense(stepped)
    off = (stepped.j_min - window.j_min) * (window.g + 1) + shift
    m = dense_new.shape[0]
    if off < 0 or off + m > conj.shape[0]:
        raise WindowError("stepped window does not sit inside the old one")
    return float(np.max(np.abs(dense_new - conj[off : off + m, off : off + m])))


def extract_jacobi(states) -> tuple[np.ndarray, np.ndarray]:
    """Scalar readout along a state sequence.

    a(n) is the leading-vector norm of block 0 at state n; b(n) is the
    trailing product q_g * p_g of block -1 at state n+1, cross-checked
    against the quadratic mean of the block matrix at state n.  Returns
    (a, b) with len(b) = len(a) - 1.
    """
    states = list(states)
    if not states:
        raise ValidationError("need at least one state")
    a_vals = [float(np.linalg.norm(st.block(0).p)) for st in states]
    b_vals = []
    for n in range(len(states) - 1):
        cur = states[n]
        blk0 = cur.block(0)
        bmat = build_block_B(blk0, cur.c)
        b_mean = float(blk0.p @ bmat @ blk0.p) / a_vals[n] ** 2
        trail = states[n + 1].block(-1)
        b_trail = float(trail.q[-1] * trail.p[-1])
        scale = max(1.0, abs(b_mean), abs(b_trail))
        if abs(b_mean - b_trail) > READOUT_REL_TOL * scale:
            raise NumericalError(
                f"readout mismatch at step {n}: trailing {b_trail:.6e} "
                f"vs quadratic mean {b_mean:.6e}"
            )
        b_vals.append(b_trail)
    return np.array(a_vals), np.array(b_vals)


@dataclass(frozen=True)
class FlowTrajectory:
    """States of a flow run together with readout and diagnostics.

    a_out[n] = a(n) for n = 0..n_steps and b_out[n] = b(n) for
    n = 0..n_steps-1; diagnostics hold one dict per state with the
    validity minima and the central pair functionals.
    """

    states: tuple[GmpWindow, ...]
    a_out: np.ndarray
    b_out: np.ndarray
    diagnostics: tuple[dict, ...]

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1


def flow_run(
    window: GmpWindow, n_steps: int, floor: float = VALIDITY_FLOOR
) -> FlowTrajectory:
    """Iterate the flow step, recording states, readout and diagnostics.

    The window loses one block per edge per step and every retained
    state must keep the core blocks -1..1 for the readout, so the input
    must satisfy j_min <= -1 - n_steps and j_max >= 1 + n_steps.  A
    state failing the class criterion aborts the run.
    """
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    if window.j_min > -1 - n_steps or window.j_max < 1 + n_steps:
        raise WindowError(
            f"window [{window.j_min}, {window.j_max}] exhausted by "
            f"{n_steps} steps: need j_min <= {-1 - n_steps} and "
            f"j_max >= {1 + n_steps}"
        )
    states = [window]
    diagnostics = []
    for n in range(n_steps + 1):
        st = states[-1]
        report = validate_gmp(st, floor)
        if not report["valid"]:
            raise ValidationError(
                f"state {n} left the class: {report['message']}"
            )
        lams = {
            k: lambda_sharp(st.block(0), st.block(-1), st.c, k)
            for k in range(1, st.g + 1)
        }
        diagnostics.append(
            {
                "step": n,
                "n_blocks": st.n_blocks,
                "validity_min": dict(report["min_per_k"]),
                "lambda": lams,
            }
        )
        if n < n_steps:
            states.append(jacobi_flow_step(st))
    a_vals, b_vals = extract_jacobi(states)
    return FlowTrajectory(tuple(states), a_vals, b_vals, tuple(diagnostics))
