"""References that the package itself never runs.

Each is the dense, closed-form or fully reorthogonalized route to a
quantity that ``gmpflow`` computes another way, kept as the oracle its
tests compare against:

- ``dense(window)``: the n x n tridiagonal matrix of a Jacobi window;
- ``block_diagonal(stack)``: the dense matrix of a stack of blocks on
  its block diagonal;
- ``block_assembly(window)``: the dense matrix of a GMP window put
  together block by block, the diagonal blocks of ``build_block_B`` and
  then the couplings, the way ``gmp.assemble_dense`` built it before it
  placed ``gmp.band_rows``; the rows must give its bits, signs of zero
  included;
- ``dense_flow_identity_residual(window, stepped)``: the flow identity
  on the dense matrices, the assembled window conjugated by the block
  diagonal of its ``u_block`` matrices, shifted by one slot and compared
  with the assembled stepped window, the way
  ``flow.flow_identity_residual`` checked it before it went through the
  band blocks of ``flow.conjugate_shift``;
- ``spectral_measure_plus``: the spectral measure of a one-sided window
  at e_0, from the dense eigensolve;
- ``resolvent_r(window, z)``: the half-line resolvent r_+ alone, read
  off the solve that ``jacobi.angle_plus`` makes;
- ``moment`` and ``cauchy_transform`` of a ``DiscreteMeasure``;
- ``two_by_two_resolvent``: the corner resolvent of a two-sided window,
  checked against the half-line resolvents r_+ and r_-;
- ``intrinsic_offset``: the constant term of a GMP block's own transfer
  trace expansion;
- ``cgs2_lanczos``: Lanczos with every vector projected against all
  earlier ones, the loop ``jacobi.lanczos`` ran before it
  reorthogonalized only where Simon's estimate asks, and its
  ``np.longdouble`` form ``longdouble_lanczos``, with
  ``longdouble_jacobi``, that form on the two halves of a GMP window;
- ``band_operator(rows)``: the product of band rows that ``jacobi.lanczos``
  took as a callable before it kept its basis zero-padded, one ``vecdot``
  against a zero-padded copy of the vector; driving ``cgs2_lanczos``, it
  gives the bits of ``lanczos``'s fully projected steps;
- ``sum_rule_spectral_side``: the spectral side of the Killip-Simon sum
  rule, which the entropy ledger of ``ks`` equals at genus 0;
- ``whole_plan_lambda_sharp`` and ``tril_triu_block_B``: frozen copies of
  ``gmp.lambda_sharp``, with the rank-one factors of every step built at
  once and each step applied out of place on strided views, and of
  ``gmp.build_block_B`` as a sum of ``np.tril`` and ``np.triu``; the
  package's kernels must give their bits, signs of zero and NaN included;
- ``per_vector_jacobi_to_gmp``: ``construct.jacobi_to_gmp`` as it
  continued the flag before each block became one solve per pole: one
  ``mapped`` call, a solve per pole, for each vector, appended as it is
  made; the package must give its P and Q bit for bit, and refuse a
  window with the same error naming the same block and slot;
- ``u_block_map_run`` and ``per_state_drops``: ``ks.map_run`` as it
  carried each state by the ``u_block`` rotations it built itself, one
  call per carried state, and ``ks.functional_report``'s drops as it took
  them one state at a time from ``DeltaBlocks.column_shares``; the
  package must give their bits;
- ``reference_gauss_newton``: the Gauss-Newton loop of
  ``isospectral._gauss_newton`` as it was before each point became one
  stack with its Jacobian: one residual call at each trial, then a
  separate stack of 2n points for the Jacobian at the accepted one.
"""

from __future__ import annotations

import math

import numpy as np

from gmpflow import numkit
from gmpflow.construct import READOUT_TOL, TWO_SIDED_PATTERN_TOL, _append_orthonormal
from gmpflow.errors import (SQUARE_MAX, NumericalError, SpectrumProximityError, ValidationError,
                            WindowError, check)
from gmpflow.finitegap import DeltaData
from gmpflow.flow import conjugate_shift, u_block
from gmpflow.gmp import (GmpBlock, GmpWindow, _chain_plan, assemble_dense, band_rows,
                         build_block_B, pattern_defect)
from gmpflow.isospectral import FD_STEP_REL, MAX_ITERATIONS, SOLVE_TARGET
from gmpflow.jacobi import (DiscreteMeasure, JacobiWindow, _half_line_solve, check_ends, kappa,
                            spectrum_near)
from gmpflow.ks import DeltaBlocks, delta_of_gmp, normalized_blocks

CORNER_IDENTITY_TOL = 1e-8


def dense(window: JacobiWindow) -> np.ndarray:
    mat = np.diag(window.b)
    off = window.a[1:]
    mat[np.arange(window.size - 1), np.arange(1, window.size)] = off
    mat[np.arange(1, window.size), np.arange(window.size - 1)] = off
    return mat


def block_diagonal(stack: np.ndarray) -> np.ndarray:
    """Dense matrix carrying the (n, m, m) ``stack`` on its block diagonal."""
    idx = np.arange(stack.shape[0] * stack.shape[1]).reshape(stack.shape[:2])
    mat = np.zeros((idx.size, idx.size))
    mat[idx[:, :, None], idx[:, None, :]] = stack
    return mat


def dense_flow_identity_residual(window: GmpWindow, stepped: GmpWindow) -> float:
    """Largest entry of the assembled stepped window minus the assembled
    window conjugated by the block diagonal of ``u_block`` matrices, on
    the square the one-slot shift puts it on."""
    o_full = block_diagonal(u_block(window.P))
    conj = o_full.T @ assemble_dense(window) @ o_full
    dense_new = assemble_dense(stepped)
    off = (stepped.j_min - window.j_min) * (window.g + 1) + 1
    m = dense_new.shape[0]
    if off < 0 or off + m > conj.shape[0]:
        raise WindowError("stepped window does not sit inside the old one")
    return float(np.max(np.abs(dense_new - conj[off : off + m, off : off + m])))


def block_assembly(window: GmpWindow) -> np.ndarray:
    """Dense symmetric matrix of a GMP window: the ``build_block_B`` blocks
    on the diagonal, then the coupling A(p) = delta_g p^T of each block
    but the first, slot g of the block before against its slots."""
    mat = block_diagonal(build_block_B(window.rows(), window.c))
    per = window.g + 1
    last = np.arange(per - 1, mat.shape[0] - per, per)[:, None]
    nxt = last + 1 + np.arange(per)
    mat[last, nxt] = mat[nxt, last] = window.P[1:]
    return mat


def resolvent_r(window: JacobiWindow, z: float) -> float:
    """r_+(z) = <(J_+ - z)^{-1} e_0, e_0> at a real z, J_+ the window's
    sites 0..n_max, from the half-line solve of ``jacobi.angle_plus``; a
    window without site 0 is refused."""
    return float(_half_line_solve(window, z)[0])


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


def cgs2_lanczos(matvec, start: np.ndarray, depth: int, grow: int):
    """b(0..depth) and a(0..depth), a(0) the placeholder 1, of the symmetric
    operator ``matvec`` at the unit vector ``start``, by Lanczos in the
    dtype of ``start`` with every new vector projected twice against all
    earlier ones (CGS2).  Step k applies ``matvec`` to the leading
    (k + 2) * grow rows, the staircase of ``jacobi.lanczos``; in double
    precision, with the same ``matvec``, its steps before
    ``LANCZOS_FULL_STEPS`` are that function's, bit for bit."""
    n = start.size
    basis = np.zeros((depth + 1, n), dtype=start.dtype)
    basis[0] = start
    b, a = np.empty(depth + 1, dtype=start.dtype), np.ones(depth + 1, dtype=start.dtype)
    for k in range(depth + 1):
        rows = min(n, (k + 2) * grow)
        vec = basis[k, :rows]
        image = matvec(vec)
        b[k] = vec @ image
        if k == depth:
            break
        w, earlier = image, basis[: k + 1, :rows]
        for _ in range(2):
            if w.dtype == np.float64:  # the products of numkit.project_out
                w = w - (earlier @ w) @ earlier
            else:  # einsum runs about twice as fast as matmul on np.longdouble
                w = w - np.einsum("i,ij->j", np.einsum("ij,j->i", earlier, w), earlier)
        a[k + 1] = np.sqrt(w @ w)
        basis[k + 1, :rows] = w / a[k + 1]
    return b, a


def band_operator(rows):
    """x -> M[:n, :n] @ x, n = x.size, M symmetric with row i on its entries
    i - h..i + h (zero outside M) in ``rows[i]``, as ``gmp.band_rows`` gives
    them: x copied into a zero-padded buffer, the h slots after it zeroed,
    and one ``vecdot`` with the buffer's row windows."""
    rows = np.ascontiguousarray(rows, dtype=float)
    size, h = rows.shape[0], rows.shape[1] // 2
    buf = np.zeros(size + 2 * h)
    windows = np.lib.stride_tricks.sliding_window_view(buf, 2 * h + 1)

    def matvec(x: np.ndarray) -> np.ndarray:
        n = x.size
        buf[h : h + n] = x
        buf[h + n : 2 * h + n] = 0.0
        return np.vecdot(rows[:n], windows[:n])

    return matvec


def longdouble_lanczos(rows, start, depth: int, grow: int):
    """``cgs2_lanczos`` on the symmetric banded matrix of the band rows
    ``rows`` (row i: entries i - h..i + h), in ``np.longdouble``, its double
    input taken as exact, by four slice products per upper diagonal."""
    rows = np.asarray(rows, np.longdouble)
    n, h = rows.shape[0], rows.shape[1] // 2

    def matvec(x: np.ndarray) -> np.ndarray:
        m = x.size
        out = rows[:m, h] * x
        for d in range(1, min(h + 1, m)):
            band = rows[: m - d, h + d]
            out[:-d] += band * x[d:]
            out[d:] += band * x[:-d]
        return out

    return cgs2_lanczos(matvec, np.asarray(start, np.longdouble), depth, grow)


def longdouble_jacobi(w: GmpWindow) -> tuple[np.ndarray, np.ndarray]:
    """b and a of ``construct.gmp_to_jacobi_measure(w)`` in its site order,
    from ``longdouble_lanczos`` on the band rows of the same two halves
    at the same start vectors and depths, and a(0) = |p| of block 0."""
    per, k0 = w.g + 1, -w.j_min
    p0 = np.asarray(w.block(0).p, np.longdouble)
    a0 = np.sqrt(p0 @ p0)
    plus, minus = band_rows(w.rows(k0), w.c), band_rows(w.rows(0, k0), w.c)[::-1, ::-1]
    bp, ap = longdouble_lanczos(plus, np.pad(p0 / a0, (0, plus.shape[0] - per)),
                                plus.shape[0] // per - 1, per)
    bm, am = longdouble_lanczos(minus, np.eye(1, minus.shape[0])[0],
                                minus.shape[0] // per - 1, per)
    return np.concatenate([bm[::-1], bp]), np.concatenate(([1.0], am[:0:-1], [a0], ap[1:]))


def sum_rule_spectral_side(a, b, pad: int = 300) -> float:
    """Q + sum F(E) of the Killip-Simon P2 sum rule (Ann. Math. 158, 2003)
    for the half-line Jacobi matrix with diagonal ``b`` and off-diagonal
    ``a`` (a[k] couples sites k and k + 1), free beyond (a = 1, b = 0).

    It equals the coefficient side, sum b^2 / 4 + sum (a^2 - 1 - log a^2) / 2.
    Q = (1/4 pi) int_{-2}^{2} log(sqrt(4 - x^2) / (2 pi w(x))) sqrt(4 - x^2) dx,
    w = Im m(x + i0) / pi the density of the spectral measure at site 0:
    the continued fraction m_k = 1 / (b_k - x - a_k^2 m_{k+1}) on the free
    tail m = (-x + i sqrt(4 - x^2)) / 2, integrated in theta, x = 2 cos theta.
    F(E) = (beta^2 - beta^-2 - log beta^4) / 4, E = beta + 1/beta, |beta| > 1,
    over the eigenvalues outside [-2, 2] of the matrix followed by ``pad``
    free sites.  Leading free sites change neither side and are dropped:
    each would add an oscillation of m in theta."""
    from scipy.integrate import quad

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lead = 0
    while lead < a.size and b[lead] == 0.0 and a[lead] == 1.0:
        lead += 1
    a, b = a[lead:], b[lead:]
    levels = list(zip(b[::-1].tolist(), (np.append(a, 1.0)[::-1] ** 2).tolist()))

    def q_density(theta: float) -> float:
        x, s = 2.0 * math.cos(theta), math.sin(theta)
        m = complex(-0.5 * x, s)
        for b_k, a_sq in levels:
            m = 1.0 / (b_k - x - a_sq * m)
        return math.log(s / m.imag) * s * s / math.pi

    q = quad(q_density, 0.0, math.pi, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
    off = np.ones(b.size + pad - 1)
    off[: a.size] = a
    vals = np.linalg.eigvalsh(np.diag(np.pad(b, (0, pad))) + np.diag(off, 1) + np.diag(off, -1))
    out = vals[np.abs(vals) > 2.0]
    beta = (out + np.sign(out) * np.sqrt(out * out - 4.0)) / 2.0
    return q + float(np.sum(beta**2 - beta**-2 - np.log(beta**4)) / 4.0)


def whole_plan_lambda_sharp(nextblk: GmpBlock, thisblk: GmpBlock, c, *, states=None):
    """``gmp.lambda_sharp`` with the chain's whole rank-one plan built up
    front and every step a new array; the same arguments, values and
    states."""
    g, c = thisblk.g, np.asarray(c, dtype=float)
    slots = np.concatenate([nextblk.p, thisblk.q, nextblk.q, -thisblk.p], axis=-1)
    slots = slots.reshape(-1, 4 * g + 4).T.reshape(2, 2, g + 1, -1)
    state = slots[:, :, :g]
    if states is not None:
        states.append(state)
    if g > 1:
        idx, denom = _chain_plan(c.tobytes())
        w = slots.reshape(2, 2 * g + 2, -1)[:, idx]
        rank_one = w[None, :] * np.stack([w[1], -w[0]])[:, None]
        for (col0, col1), den in zip(rank_one.transpose(2, 0, 1, 3, 4, 5), denom):
            state = state + (col0 * state[0] + col1 * state[1]) / den
            if states is not None:
                states.append(state)
    p, q = thisblk.p[..., g].ravel(), thisblk.q[..., g].ravel()
    closing = np.zeros((2, 2, g, state.shape[-1]))
    closing[0, 1], closing[1, 0], closing[1, 1] = -1.0 / p, p, (p * q - c[:, None]) / p
    terms = state[:, None, 0] * state[None, :, 1] * closing
    vals = ((terms[0, 0] + terms[0, 1]) + (terms[1, 0] + terms[1, 1])).T
    return vals.reshape(thisblk.p.shape[:-1] + (g,))


def tril_triu_block_B(blk: GmpBlock, c) -> np.ndarray:
    """``gmp.build_block_B`` as the sum of the lower part of p q^T and the
    strict upper part of its transpose, then the poles on the diagonal."""
    pq = blk.p[..., :, None] * blk.q[..., None, :]
    mat = np.tril(pq) + np.triu(np.swapaxes(pq, -1, -2), 1)
    diag = np.arange(blk.g + 1)
    mat[..., diag, diag] += np.append(np.asarray(c, dtype=float), 0.0)
    return mat


def per_vector_jacobi_to_gmp(window: JacobiWindow, d: DeltaData, n_blocks: int = 5) -> GmpWindow:
    """``construct.jacobi_to_gmp`` with the flag continued one vector at a
    time: each continuation vector maps one vector of the block nearer the
    split, a solve per pole, and is appended before the next is made."""
    if int(n_blocks) != n_blocks or n_blocks < 3:
        raise ValidationError("at least three blocks are required")
    n_blocks = int(n_blocks)
    cs, g = d.cs(), d.g
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
        out = d.lambda0 * numkit.banded_matvec((b, off), v) + d.c0 * v
        for ck, lk in zip(cs, d.lams()):
            out -= lk * numkit.solve_tridiagonal(b, off, v, ck)
        return out

    basis = np.zeros(((n_blocks + 1) * per, n_sites))
    basis[0, window.pos(-1)] = 1.0
    slot: dict = {(-1, g): 0}

    def append(key: tuple, cand: np.ndarray) -> None:
        at = f"at block {key[0]} slot {key[1]}"
        _append_orthonormal(basis, len(slot), cand, f"flag vectors became linearly dependent {at}")
        check_ends(cand, f"window too short for the flag vector {at}", per)
        slot[key] = len(slot)

    mirror = window.reflected()
    for m in range(g - 1, -1, -1):
        append((-1, m), kappa(mirror, cs[m]).vec[::-1])
    for m, c in enumerate(cs):
        append((0, m), kappa(window, c).vec)
    append((0, g), np.eye(1, n_sites, window.pos(0))[0])
    for j in range(1, k_hi + 1):
        for m in range(per):
            append((j, m), mapped(basis[slot[(j - 1, m)]]))
    for j in range(-2, k_lo - 1, -1):
        for m in range(g, -1, -1):
            append((j, m), mapped(basis[slot[(j + 1, m)]]))

    V = basis[[slot[j, m] for j in range(k_lo, k_hi + 1) for m in range(per)]].T
    amat = V.T @ numkit.banded_matvec((b, off), V)
    amat = 0.5 * (amat + amat.T)
    scale = max(1.0, float(np.max(np.abs(amat))))
    coupling = np.broadcast_to((np.arange(per) == g)[:, None], (per, per))
    check("operator lost the GMP pattern in the flag basis (the Jacobi window is likely "
          "too narrow): off-pattern entry", pattern_defect(amat, coupling),
          TWO_SIDED_PATTERN_TOL * scale)
    last = np.arange(n_blocks)[:, None] * per + g
    nxt = last + 1 + np.arange(per)
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
        grown = np.abs(np.stack([P, Q])).max() > SQUARE_MAX
        note = f" (crossing bond a(0) = {window.a_at(0):.6g})" if grown else ""
        raise ValidationError(f"converted window: {exc}{note}") from exc
    dev = np.max(np.abs(build_block_B(w.rows(), w.c) - B), axis=(1, 2))
    check(lambda i: f"block {w.j_min + i} readout deviates from the diagonal part by",
          dev, READOUT_TOL * scale)
    return w


def reference_gauss_newton(fun, x0: np.ndarray) -> np.ndarray:
    """Minimum-norm Gauss-Newton with step halving, evaluating each trial
    alone and each accepted point a second time at the centre of its
    central-difference Jacobian, with the package's step and tolerances."""
    x = x0.copy()
    r = fun(x)
    best = float(np.max(np.abs(r)))
    for _ in range(MAX_ITERATIONS):
        if best <= SOLVE_TARGET:
            return x
        n = x.size
        h = FD_STEP_REL * np.maximum(1.0, np.abs(x))
        idx = np.arange(n)
        pts = np.tile(x, (2 * n, 1))
        pts[idx, idx] += h
        pts[n + idx, idx] -= h
        vals = fun(pts)
        jac = ((vals[:n] - vals[n:]) / (2.0 * h[:, None])).T
        step = -jac.T @ np.linalg.solve(jac @ jac.T, r)
        alpha = 1.0
        for _ in range(40):
            trial = x + alpha * step
            r_trial = fun(trial)
            trial_norm = float(np.max(np.abs(r_trial)))
            if trial_norm < best:
                x, r, best = trial, r_trial, trial_norm
                break
            alpha *= 0.5
        else:
            raise NumericalError(f"projection stalled at residual {best:.3e}")
    if best <= SOLVE_TARGET:
        return x
    raise NumericalError(f"no convergence after {MAX_ITERATIONS} iterations")


def u_block_map_run(states, d: DeltaData, margin: int) -> list[DeltaBlocks]:
    """``ks.map_run``'s blocks of the states 0..N of a flow run, each carried
    state conjugated by ``u_block`` rotations of its own rows j_lo - 1..j_hi
    + 1 (those of ``db``'s trusted range), the signs folded into them; the
    eigen route's state N replaces the carried one, as there."""
    ends = delta_of_gmp([*states[:1], *states[1:][-1:]], d, margin)
    run = ends[:1]
    for window in states[:-1]:
        db = run[-1]
        lo = db.j_lo - 1 - window.j_min
        u = u_block(window.P[lo : lo + len(db.v_blocks) + 1])
        u *= np.vstack([np.ones_like(db.signs[:1]), db.signs])[:, :, None]
        new_v, new_w, _, scale = conjugate_shift(u, db.v_blocks, db.w_blocks)
        run.append(normalized_blocks(db.j_lo + 1, new_v, new_w, scale))
    return run[:-1] + ends[-1:]


def per_state_drops(run) -> np.ndarray:
    """``ks.functional_report``'s drops of the steps into states 1..N of a
    mapped run, rows (step drop, relabelled drop): column g of block rows
    -1 and 0, one ``column_shares`` call per state."""
    return np.array([db.column_shares(-1, 0)[:, -1] for db in run[1:]]).reshape(-1, 2)
