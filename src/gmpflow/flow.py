"""Shift dynamics on block windows and its scalar readout.

One step conjugates the window's band blocks by the block orthogonals
built from the leading vectors and shifts by one scalar slot
(``conjugate_shift``, which steps ``ks``' mapped blocks too).  Each step
consumes one block at either edge; the surviving central blocks
reproduce the infinite evolution exactly, because a new block depends
only on its two old neighbours, so a step acts on the row arrays of all
blocks at once.  A run is a stream of checked states, ``flow_states``;
reading off its block norms yields the coefficients of a half-axis
three-term recurrence, which is how the dynamics is compared against
its Jacobi counterpart.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WindowError, check
from .gmp import (
    VALIDITY_FLOOR,
    GmpBlock,
    GmpWindow,
    build_block_B,
    validate_gmp,
)

READOUT_REL_TOL = 1e-10
# Squares are np.float_power(x, 2.0), which calls the C library's pow per
# entry as a Python float's ``x ** 2`` does: np.square and np.power, which
# multiply or vectorize, round about one argument in a thousand the other way.


def rotation_o(phi) -> np.ndarray:
    """Symmetric plane rotation-reflection [[sin, cos], [cos, -sin]].

    The block is orthogonal, involutive and has determinant -1; it is
    the elementary factor from which the block orthogonals are built.
    An array of angles gives one block per angle, stacked in front.
    """
    s, co = np.sin(phi), np.cos(phi)
    rot = np.empty(np.shape(s) + (2, 2))
    rot[..., 0, 0], rot[..., 1, 1] = s, -s
    rot[..., 0, 1] = rot[..., 1, 0] = co
    return rot


def tail_norms(p: np.ndarray) -> np.ndarray:
    """Norms of the trailing sections (p_k, ..., p_g) for k = 0..g."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(np.cumsum(p[..., ::-1] ** 2, axis=-1)[..., ::-1])


def u_block(p, tails=None) -> np.ndarray:
    """Orthogonal block sending delta_0 to p/||p||.

    The product of plane rotations of the slot pairs (k-1, k), k = 1..g,
    each applied to the two rows it mixes; the k-th angle has sine and
    cosine proportional to (p_{k-1}, ||(p_k..p_g)||).  Column 0 of the
    result is p/||p||; column k vanishes on the first k-1 slots, carries
    the squared tail norm on slot k-1 and -p_{k-1} times the tail below.
    A stack of vectors, one per row, gives the stack of their blocks.
    All g angles of every row come from one ``arctan2`` and their
    rotations from one ``rotation_o`` call; ``tails`` takes the
    ``tail_norms`` of p when the caller has them.  The vectors are rows
    of a checked window, so they are finite with p_g > 0 and are not
    checked again; at genus 0 there is no rotation, and the block is the
    1 x 1 identity.
    """
    p = np.asarray(p, dtype=float)
    tails = tail_norms(p) if tails is None else tails
    g = p.shape[-1] - 1
    u = np.broadcast_to(np.eye(g + 1), p.shape[:-1] + (g + 1, g + 1)).copy()
    rots = rotation_o(np.arctan2(p[..., :g], tails[..., 1:]))
    for k in range(1, g + 1):
        u[..., k - 1 : k + 1, :] = rots[..., k - 1, :, :] @ u[..., k - 1 : k + 1, :]
    return u


def jacobi_flow_step(window: GmpWindow, rotations: list | None = None) -> GmpWindow:
    """One full step of the flow; drops one block at each edge.

    New block j is formed from old blocks j and j+1, and the retained
    range is j_min+1..j_max-1.  The result coincides with conjugating
    the window by the ``u_block`` matrices and shifting by one scalar
    slot (``conjugate_shift``; see ``flow_identity_residual``), and a list
    ``rotations`` receives those of rows 1..n_blocks-2.
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
    u = u_block(this, tails)
    if rotations is not None:
        rotations.append(u)
    x = this / norm_this[:, None]
    v = (np.swapaxes(u, 1, 2) @ (bmats[:-1] @ x[:, :, None]))[:, :, 0]
    p_new = np.empty_like(this)
    p_new[:, :g] = v[:, 1:]
    p_new[:, g] = norm_next * this[:, g] / norm_this
    q_new = np.empty_like(this)
    q_new[:, :g] = -norm_this[:, None] * this[:, :g] / (tails[:, :g] * tails[:, 1:])
    b_in = (nxt[:, None, :] @ bmats[1:] @ nxt[:, :, None])[:, 0, 0]
    b_in /= np.float_power(norm_next, 2.0)
    q_new[:, g] = norm_this / (this[:, g] * norm_next) * b_in
    return window._with_rows(p_new, q_new, window.j_min + 1)


def conjugate_shift(u: np.ndarray, v_blocks: np.ndarray, w_blocks: np.ndarray) -> tuple:
    """The flow step on band blocks: diagonal blocks 0..n - 1, the lower
    triangular couplings j = 0..n of block j - 1 with block j, and the
    orthogonals ``u`` of blocks -1..n.  Conjugates and re-blocks (new block
    j is block j's slots 1..g and block j + 1's slot 0), and returns the
    new couplings 1..n - 1 and diagonal blocks 1..n - 2, the largest entry
    the shift leaves outside the band (slot 0 of a conjugated coupling
    against its slots 1..g, a new coupling's upper triangle) and the scale
    of the conjugated blocks."""
    g = u.shape[-1] - 1
    u_t = np.swapaxes(u, 1, 2)
    cv = u_t[:-1] @ v_blocks @ u[1:]
    cw = u_t[1:-1] @ w_blocks @ u[1:-1]
    cw = 0.5 * (cw + np.swapaxes(cw, 1, 2))
    scale = max(1.0, float(np.max(np.abs(cv))), float(np.max(np.abs(cw))))
    new_v = np.zeros_like(cv[2:])
    new_v[:, :g, :g] = cv[1:-1, 1:, 1:]
    new_v[:, g, :g] = cw[1:, 0, 1:]
    new_v[:, g, g] = cv[2:, 0, 0]
    new_w = np.empty_like(cw[2:])
    new_w[:, :g, :g] = cw[1:-1, 1:, 1:]
    new_w[:, :g, g] = new_w[:, g, :g] = cv[2:-1, 1:, 0]
    new_w[:, g, g] = cw[2:, 0, 0]
    defect = max(float(np.max(np.abs(cv[:, 0, 1:]), initial=0.0)),
                 float(np.max(np.abs(np.triu(new_v, 1)), initial=0.0)))
    return new_v, new_w, defect, scale


def flow_identity_residual(window: GmpWindow, stepped: GmpWindow) -> float:
    """Largest mismatch of the band blocks of the flow step ``stepped`` of
    ``window`` and ``conjugate_shift`` of the window's (zero couplings and
    identity orthogonals past its ends), or that call's defect if larger."""
    g, n = window.g, window.n_blocks
    if (stepped.j_min, stepped.n_blocks, stepped.g) != (window.j_min + 1, n - 2, g):
        raise WindowError("stepped window does not sit inside the old one")
    u = np.concatenate([np.eye(g + 1)[None], u_block(window.P), np.eye(g + 1)[None]])
    v = np.zeros_like(u[1:])
    v[1:-1, g] = window.P[1:]  # A(p) = e_g p^T couples a block to the one before
    new_v, new_w, defect, _ = conjugate_shift(u, v, build_block_B(window.rows(), window.c))
    new_v[1:-1, g] -= stepped.P[1:]
    new_w -= build_block_B(stepped.rows(), stepped.c)
    return max(float(np.max(np.abs(new_v[1:-1]), initial=0.0)), float(np.max(np.abs(new_w))), defect)


def extract_jacobi(P: np.ndarray, Q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar readout of a run with pole list c from the rows of blocks
    -1 and 0 of its states, stacked on axes (state, block, slot).

    a(n) is the leading-vector norm of block 0 at state n; b(n) is the
    trailing product q_g * p_g of block -1 at state n+1, cross-checked
    against the quadratic mean of the block matrix at state n, and the
    first mismatching step raises.  Returns (a, b), len(b) = len(a) - 1.
    """
    if len(P) == 0:
        raise ValidationError("need at least one state")
    P0, Q0 = P[:, 1], Q[:, 1]
    a_vals = np.sqrt(np.vecdot(P0, P0))
    bmats = build_block_B(GmpBlock._view(P0[:-1], Q0[:-1]), c)
    quad = np.vecdot((P0[:-1, None, :] @ bmats)[:, 0], P0[:-1])
    b_mean = quad / np.float_power(a_vals[:-1], 2.0)
    trail = Q[1:, 0, -1] * P[1:, 0, -1]
    scale = np.maximum(1.0, np.maximum(abs(b_mean), abs(trail)))
    check(lambda n: f"readout mismatch at step {n}: trailing {trail[n]:.6e} vs quadratic "
          f"mean {b_mean[n]:.6e}, difference", abs(b_mean - trail), READOUT_REL_TOL * scale)
    return a_vals, trail


@dataclass(frozen=True)
class FlowTrajectory:
    """Readout and diagnostics of a flow run.

    a_out[n] = a(n) for n = 0..n_steps and b_out[n] = b(n) for
    n = 0..n_steps-1.  Row n of ``lambdas`` holds the pair functionals
    of blocks 0 and -1 of state n, and row n of ``validity_min`` their
    minimum over the block pairs of state n, both indexed by pole slot.
    """

    a_out: np.ndarray
    b_out: np.ndarray
    lambdas: np.ndarray
    validity_min: np.ndarray


def flow_states(
    window: GmpWindow, n_steps: int, floor: float = VALIDITY_FLOOR, rotations: list | None = None
) -> Iterator[tuple[GmpWindow, np.ndarray]]:
    """States 0..n_steps of a flow run, each with its pair functionals.

    The window loses one block per edge per step and every state must
    keep blocks -1..1 for the readout, so the input must satisfy
    j_min <= -1 - n_steps and j_max >= 1 + n_steps.  A state is yielded
    with the pair functionals ``validate_gmp`` returns, else the run aborts
    with its error, led by "state n left the class: "; the next is stepped
    only when asked for, its rotations appended to ``rotations`` (the list
    ``ks.map_run`` makes and reads) when given, and none is kept.
    """
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    if window.j_min > -1 or window.j_max < 1:
        raise WindowError(f"window [{window.j_min}, {window.j_max}] lacks the readout's blocks -1..1")
    max_steps = min(-1 - window.j_min, window.j_max - 1)
    if n_steps > max_steps:
        raise WindowError(
            f"window [{window.j_min}, {window.j_max}] is exhausted by {n_steps} "
            f"step(s); the maximal feasible step count is {max_steps}"
        )
    st = window
    for n in range(n_steps + 1):
        yield st, validate_gmp(st, floor, f"state {n} left the class: ")
        if n < n_steps:
            st = jacobi_flow_step(st, rotations)


def flow_run(window: GmpWindow, n_steps: int, floor: float = VALIDITY_FLOOR) -> FlowTrajectory:
    """Fold ``flow_states`` into readout and diagnostics.  Of each state it
    keeps the rows of blocks -1 and 0 and the row of their pair
    functionals, as copies (a view would keep the state alive), and the
    column minimum of its functionals as ``validity_min``."""
    P, Q, lambdas, minima = [], [], [], []
    for st, vals in flow_states(window, n_steps, floor):
        i = -1 - st.j_min  # block -1; vals row i pairs blocks 0 and -1
        P.append(st.P[i : i + 2].copy())
        Q.append(st.Q[i : i + 2].copy())
        lambdas.append(vals[i].copy())
        minima.append(vals.min(0))
    a_vals, b_vals = extract_jacobi(np.stack(P), np.stack(Q), window.c)
    return FlowTrajectory(a_vals, b_vals, np.stack(lambdas), np.stack(minima))
