"""Entropy functional of mapped windows and its behaviour along the flow.

Applying the comb map to a window operator produces a block tridiagonal
matrix: symmetric blocks on the diagonal, lower triangular blocks one
step right of it and their transposes one step left.  A periodic window
solving the magic identity maps exactly to the two-shift pattern
(identity off-diagonal blocks, zero diagonal blocks), and the entropy
term of a block triple measures the deviation from that pattern.
``delta_of_gmp`` is the eigen route, which applies the map to any
sequence of windows: it checks every column of the trusted block rows
against the band, extracts the blocks, and checks them against the
closed-form resolvent columns in one stacked call.  A flow step is an
orthogonal block conjugation followed by a one-slot shift, and the map
commutes with both, so ``map_run``, the one entry to a mapped flow run,
steps a window and maps its states with two eigensolves: the eigen route
at the run's ends, and every state between carried from the normalized
blocks of the one before (``carry_blocks``, by the rotations of the step
that made it and kernel ``flow.conjugate_shift``).  Both routes share one
sign normalisation (``normalized_blocks``).  This module sums the
per-block entropy terms, evaluates the exact one-step drop of the
functional under the flow, checks the telescoping identity relating a
flow run to a single shift, accumulates coefficient diagnostics along
trajectories, and verifies the closed-form determinant identities for
the density of the mapped spectral measure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (DOUBLE_MAX, NoSignChangeError, NumericalError, SpectrumProximityError,
                     ValidationError, WindowError)
from .errors import check, check_entries
from .finitegap import DeltaData, check_distinct_poles
from .flow import conjugate_shift, flow_states, jacobi_flow_step
from .gmp import GmpBlock, GmpWindow, assemble_dense, pattern_defect, resolvent_column
from .isospectral import is_residual

# Relative eigenvalue gap below which a pole counts as part of a spectrum.
SPECTRUM_GAP_REL = 1e-10
# Entries of the mapped operator outside the band, relative to its scale.
BAND_DEFECT_REL = 1e-8
# Absolute tolerance for the closed-form resolvent column cross-check.
RESOLVENT_CHECK_TOL = 1e-8
# Largest deviation of a carried state from its own eigen route, relative
# to the scale of its blocks.
CARRY_DRIFT_REL = 1e-11
# Outer band diagonal entries below this scale make the log term meaningless.
DIAGONAL_FLOOR_REL = 1e-12
# Cesaro slope of squared partial sums above which a sequence is flagged.
DIVERGENCE_SLOPE = 1e-3
# Lower bound every entropy term must respect up to roundoff.
ENTROPY_FLOOR = -1e-10


@dataclass(frozen=True)
class DeltaBlocks:
    """Block decomposition of the mapped operator on a trusted range.

    ``v_blocks[i]`` is the lower triangular coupling block between block
    rows ``j_lo + i - 1`` and ``j_lo + i`` (one more than the diagonal
    blocks, so every stored diagonal block has both neighbours), and
    ``w_blocks[i]`` the symmetric diagonal block at ``j_lo + i``.  Both
    are read-only stacks, ``(span + 1, g + 1, g + 1)`` and
    ``(span, g + 1, g + 1)`` for the ``span`` block rows j_lo..j_hi.
    Signs are normalised so every coupling block has positive diagonal,
    which keeps the log-determinant terms real.  ``signs`` holds in row i
    the signs ``normalized_blocks`` applied to the slots of block
    j_lo + i, those of block j_lo - 1 being kept; ``carry_blocks`` folds
    them into its rotations.
    """

    j_lo: int
    v_blocks: np.ndarray
    w_blocks: np.ndarray
    signs: np.ndarray

    def __post_init__(self) -> None:
        V, W = (np.asarray(arr, dtype=float) for arr in (self.v_blocks, self.w_blocks))
        if len(V) != len(W) + 1:
            raise ValidationError("coupling block count must be the diagonal block count plus one")
        for arr in (V, W, self.signs):
            arr.flags.writeable = False
        vars(self).update(v_blocks=V, w_blocks=W)  # frozen: bypass __setattr__

    @property
    def g(self) -> int:
        return self.w_blocks.shape[-1] - 1

    @property
    def j_hi(self) -> int:
        return self.j_lo + len(self.w_blocks) - 1

    def v(self, j: int) -> np.ndarray:
        """Coupling block between block rows ``j - 1`` and ``j``."""
        if not self.j_lo <= j <= self.j_hi + 1:
            raise WindowError(f"coupling block {j} outside trusted range")
        return self.v_blocks[j - self.j_lo]

    def column_shares(self, first: int, last: int) -> np.ndarray:
        """Entropy share of each scalar column of block rows first..last.

        Half the squared norm of the column, minus one, minus the log of
        its two outer band entries.  Row i holds the g + 1 columns of
        block row ``first + i``, which sum to that row's ``h_term``; the
        column one slot left of the origin is the exact one-step drop of
        the functional under the flow.
        """
        if first < self.j_lo or last > self.j_hi:
            raise WindowError(
                f"block rows [{first}, {last}] exceed trusted [{self.j_lo}, {self.j_hi}]"
            )
        a, b = first - self.j_lo, last + 1 - self.j_lo
        return column_shares(self.v_blocks[a:b], self.w_blocks[a:b], self.v_blocks[a + 1 : b + 1])


def column_shares(v_in: np.ndarray, w: np.ndarray, v_out: np.ndarray) -> np.ndarray:
    """``DeltaBlocks.column_shares`` of the block rows whose incoming couplings,
    diagonal blocks and outgoing couplings are (stacks of) v_in, w and v_out."""
    # columns laid out as contiguous rows sum in the order of a 1-d vector
    cols = (np.ascontiguousarray(np.swapaxes(m, -1, -2)) for m in (v_in, w))
    norm_sq = sum(np.sum(m**2, axis=-1) for m in (*cols, v_out))
    outer = np.diagonal(v_in, axis1=-2, axis2=-1) * np.diagonal(v_out, axis1=-2, axis2=-1)
    return 0.5 * norm_sq - 1.0 - np.log(outer)


def normalized_blocks(
    j_lo: int, raw_v: np.ndarray, raw_w: np.ndarray, scale: float, state: str = ""
) -> DeltaBlocks:
    """``DeltaBlocks`` from the raw couplings j_lo..j_hi + 1 and diagonal
    blocks j_lo..j_hi of a mapped operator, for both routes: the slots of
    each block row get the signs that make every coupling diagonal
    positive.  An entry of those diagonals below ``DIAGONAL_FLOOR_REL``
    times ``scale`` raises NumericalError, its message led by ``state``.
    """
    diag = np.diagonal(raw_v, axis1=1, axis2=2)
    check(lambda _: f"{state}vanishing coupling block diagonal entry", np.min(np.abs(diag)),
          DIAGONAL_FLOOR_REL * scale, floor=True)
    eps = np.cumprod(np.sign(diag), axis=0)
    row = np.vstack([np.ones_like(eps[:1]), eps])[:, :, None]  # block j_lo - 1's kept
    return DeltaBlocks(j_lo, row[:-1] * eps[:, None] * raw_v, row[1:-1] * eps[:-1, None] * raw_w, eps)


def check_margin(margin: int) -> None:
    """``delta_of_gmp`` drops at least the 3 blocks at each end that the
    wrap seam reaches."""
    if margin < 3:
        raise ValidationError("margin below 3 cannot clear the wrap seam")


def delta_of_gmp(states: Sequence[GmpWindow], d: DeltaData, margin: int) -> list[DeltaBlocks]:
    """Blocks of the comb map applied to each wrapped window of a run: the
    eigen route.

    ``states`` is any sequence of windows sharing one pole list (one
    window included); the result holds one ``DeltaBlocks`` per window,
    each at the cost of one eigensolve (``map_run`` maps a flow run with
    two).  Each window's dense matrix is wrapped by coupling its last
    block row to the first block's interaction vector, the same
    convention as between consecutive blocks, and the map is evaluated
    through one symmetric eigendecomposition: each pole contributes its
    weight times the resolvent at that shift.  A pole within 1e-10 of the
    spectrum (relative to the spectral radius, at least 1) raises
    SpectrumProximityError.  Rows within ``margin`` blocks of either end
    are discarded: away from the wrap seam the resolvent columns at the
    poles have exact three-block support, so the trusted interior
    reproduces the doubly infinite operator.  Every column of the trusted
    rows is checked against that band, lower triangular couplings
    included.  From the same eigendecomposition, the resolvent column at
    the first pole and slot 0 of block j, j = 0 and 1, is checked against
    its closed form wherever the trusted rows reach blocks j-1..j+1, all
    in one ``resolvent_column`` call on the blocks j-2..j+2.
    """
    if not states:
        raise ValidationError("a run has at least one window")
    c = states[0].c
    if d.g != states[0].g:
        raise ValidationError(f"map has {d.g} poles but window blocks have genus {states[0].g}")
    check_margin(margin)
    for window in states:
        if not np.array_equal(window.c, c):
            raise ValidationError("windows of a run must share one pole list")
        if window.j_max - margin < window.j_min + margin:
            raise WindowError(f"margin {margin} leaves no trusted blocks in "
                              f"[{window.j_min}, {window.j_max}]")
    d = d.aligned_to(c)

    per = d.g + 1
    tri = np.tri(per, dtype=bool)  # the coupling right of each diagonal block
    out, checks = [], []
    for window in states:
        j_lo, j_hi, n = window.j_min + margin, window.j_max - margin, window.n_blocks
        mat = assemble_dense(window)
        mat[-1, :per] = mat[:per, -1] = window.P[0]  # the wrap seam
        vals, vecs = numkit.sym_eigen(mat)
        scale = max(1.0, float(np.max(np.abs(vals))))
        weights = np.zeros(vals.size)
        for ck, lk in d.poles:
            gap = float(np.min(np.abs(ck - vals)))
            if gap <= SPECTRUM_GAP_REL * scale:
                raise SpectrumProximityError(f"shift {ck} lies within {gap:.3e} of the spectrum")
            weights += lk / (ck - vals)
        mapped = d.lambda0 * mat + d.c0 * np.eye(vals.size)
        mapped += (vecs * weights) @ vecs.T
        mapped = 0.5 * (mapped + mapped.T)

        m_scale = max(1.0, float(np.max(np.abs(mapped))))
        trusted = slice((j_lo - window.j_min) * per, (j_hi + 1 - window.j_min) * per)
        check("mapped operator lost its band structure: defect",
              pattern_defect(mapped[trusted], tri, j_lo - window.j_min), BAND_DEFECT_REL * m_scale)
        # block (j - 1, j) and block (j, j) for every j in j_lo..j_hi + 1
        cols = np.arange(j_lo, j_hi + 2) - window.j_min
        rows = cols + np.arange(-1, 1)[:, None]
        raw_v, raw_w = mapped.reshape(n, per, n, per)[rows, :, cols, :]

        for j in (0, 1):
            if d.g and j_lo <= j - 1 and j_hi >= j + 1:
                # trusted rows of the column of (c_1 - A)^{-1} at slot 0 of block j
                col = (vecs[trusted] / (c[0] - vals)) @ vecs[window.scalar_index(j, 0)]
                i = j - 2 - window.j_min  # blocks j-2..j+2: the margin keeps them inside
                checks.append((col, (j - 1 - j_lo) * per, window.P[i : i + 5], window.Q[i : i + 5]))

        out.append(normalized_blocks(j_lo, raw_v, raw_w[:-1], m_scale))

    if checks:
        cols, at, P, Q = zip(*checks)  # at: where block j-1 starts in the trusted rows
        ok, closed = resolvent_column(np.array(P), np.array(Q), c)
        for m, x in zip(ok, closed):
            cols[m][at[m] : at[m] + 3 * per] -= x.ravel()  # zero off blocks j-1..j+1
            check("resolvent column deviates from its closed form by", np.max(np.abs(cols[m])),
                  RESOLVENT_CHECK_TOL)
    return out


def carry_blocks(window: GmpWindow, rotations: np.ndarray, db: DeltaBlocks,
                 state: str = "") -> tuple[np.ndarray, np.ndarray, float]:
    """Raw mapped blocks of the flow step of ``window`` from its own, ``db``.

    The step conjugates by its ``rotations`` of rows 1..n_blocks - 2 and
    shifts by one slot, and the comb map commutes with both, so
    ``conjugate_shift`` carries the blocks of ``db``, with ``db.signs`` in
    a copy of the rotations of blocks j_lo - 1..j_hi + 1 (the raw blocks'
    conjugation, bit for bit: a sign flip is exact).  Returns the couplings
    j_lo + 1..j_hi and diagonal blocks j_lo + 1..j_hi - 1 of the stepped
    window (its eigen route's trusted range) and the scale of the
    conjugated blocks.  A defect above ``BAND_DEFECT_REL`` times that
    scale raises NumericalError, its message led by ``state``.
    """
    lo = db.j_lo - 2 - window.j_min  # the rotations start at row 1
    signs = np.vstack([np.ones_like(db.signs[:1]), db.signs])  # block j_lo - 1's kept
    u = rotations[lo : lo + len(db.v_blocks) + 1] * signs[:, :, None]
    new_v, new_w, defect, scale = conjugate_shift(u, db.v_blocks, db.w_blocks)
    check(lambda _: f"{state}carried operator lost its band structure: defect", defect,
          BAND_DEFECT_REL * scale)
    return new_v, new_w, scale


def map_run(window: GmpWindow, d: DeltaData, n_steps: int,
            margin: int) -> tuple[list[GmpWindow], list[DeltaBlocks]]:
    """The states 0..N of the flow run of ``window`` (``flow_states``) and
    the blocks of the comb map applied to each.

    A margin below 3 is refused before the first step.  One
    ``delta_of_gmp`` call maps states 0 and N, with every check of the
    eigen route; every later state is carried from the blocks of the one
    before by the rotations of the step that made it (``carry_blocks``),
    each check naming its state.  So a run costs two eigensolves, and
    every trusted range is the eigen route's.  The carried state N must
    agree with the eigen route's within ``CARRY_DRIFT_REL`` times its
    scale; the eigen route's is returned.
    """
    check_margin(margin)
    rotations = []  # one stack per step, filled as the states are drawn
    states = [st for st, _ in flow_states(window, n_steps, rotations=rotations)]
    ends = delta_of_gmp([states[0], states[-1]], d, margin)
    run = ends[:1]
    for n, (st, u) in enumerate(zip(states, rotations), 1):
        raw_v, raw_w, scale = carry_blocks(st, u, run[-1], f"state {n}: ")
        run.append(normalized_blocks(run[-1].j_lo + 1, raw_v, raw_w, scale, f"state {n}: "))
    drift = max(float(np.max(np.abs(run[-1].v_blocks - ends[1].v_blocks))),
                float(np.max(np.abs(run[-1].w_blocks - ends[1].w_blocks))))
    check(lambda _: f"state {n_steps}: carried blocks deviate from the eigen route by",
          drift, CARRY_DRIFT_REL * scale)
    run[-1] = ends[1]
    return states, run


def h_term(v0: np.ndarray, w0: np.ndarray, v1: np.ndarray) -> float | np.ndarray:
    """Entropy of one block triple; zero exactly at the two-shift pattern.

    Half the squared Frobenius norms of the incoming coupling, diagonal
    and outgoing coupling blocks, minus the block size, minus the log
    determinant of the two couplings.  Nonnegative whenever both
    determinants are positive.  Broadcasts over stacks of triples
    (leading axes), returning one term per triple; a single triple
    gives a float.
    """
    v0, w0, v1 = (np.asarray(arr, dtype=float) for arr in (v0, w0, v1))
    square = v0.ndim >= 2 and v0.shape[-2] == v0.shape[-1]
    if not (square and v0.shape == w0.shape == v1.shape):
        raise ValidationError("blocks must be square matrices of equal shape")
    w0_t = np.swapaxes(w0, -1, -2)
    w_scale = np.maximum(1.0, np.max(np.abs(w0), axis=(-2, -1)))
    check("diagonal block must be symmetric: max |W - W^T|",
          np.max(np.abs(w0 - w0_t), axis=(-2, -1)), 1e-8 * w_scale, ValidationError)
    w_sym = 0.5 * (w0 + w0_t)
    sign0, logdet0 = np.linalg.slogdet(v0)
    sign1, logdet1 = np.linalg.slogdet(v1)
    if np.any(sign0 <= 0) or np.any(sign1 <= 0):
        raise ValidationError("coupling blocks must have positive determinant")
    norms = sum(np.sum(blk * blk, axis=(-2, -1)) for blk in (v0, w_sym, v1))
    terms = 0.5 * norms - v0.shape[-1] - (logdet0 + logdet1)
    return float(terms) if terms.ndim == 0 else terms


def delta_J_H(window: GmpWindow, d: DeltaData) -> float:
    """One-step drop of the entropy functional under the flow.

    Equals the entropy share of the column one slot left of the origin
    in the mapped operator of the stepped window, a finite sum of
    squares and hence nonnegative.  Block -1 must stay trusted at margin 3.
    """
    db = delta_of_gmp([jacobi_flow_step(window)], d, 3)[0]
    return float(db.column_shares(-1, -1)[0, -1])


@dataclass(frozen=True)
class KsFunctionalReport:
    """The entropy ledger of a mapped flow run: every term computed once.

    ``row_terms[m]`` holds the entropy terms of the trusted block rows of
    state m, from row ``j_lo[m]`` on, and ``h_origin[m]`` the term of its
    row 0.  ``step_drops[m]`` is the drop from state m to m + 1: the
    entropy share of the column one slot left of the origin in state
    m + 1.  The run of the window relabelled by one (block j becomes
    block j - 1) steps the same blocks, so its drop ``shifted_drops[m]``
    is the share of scalar column g of state m + 1.  ``residuals[n]``
    compares the first n drops plus the origin term of state n with the
    origin term of state 0 plus the first n relabelled drops; it is zero
    for n = 0.  Every term must clear the roundoff floor below zero.
    """

    j_lo: tuple[int, ...]
    row_terms: tuple[np.ndarray, ...]
    h_origin: np.ndarray
    step_drops: np.ndarray
    shifted_drops: np.ndarray
    residuals: np.ndarray

    def __post_init__(self) -> None:
        entropies = (*self.row_terms, self.h_origin, self.step_drops, self.shifted_drops)
        for arr in (*entropies, self.residuals):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("entropy report contains non-finite terms")
            arr.flags.writeable = False
        check("entropy term", np.min(np.concatenate(entropies), initial=0.0), ENTROPY_FLOOR,
              ValidationError, floor=True)

    def terms(self, m: int, first: int, last: int) -> np.ndarray:
        """Entropy terms of block rows ``first`` through ``last`` of state m."""
        lo, hi = self.j_lo[m], self.j_lo[m] + len(self.row_terms[m]) - 1
        if first < lo or last > hi:
            raise WindowError(
                f"requested range [{first}, {last}] exceeds trusted [{lo}, {hi}]"
            )
        return self.row_terms[m][first - lo : last + 1 - lo]


def functional_report(run: Sequence[DeltaBlocks]) -> KsFunctionalReport:
    """The entropy ledger of the mapped states 0..N of a flow run.

    The trusted rows of every state must reach blocks -1..0.  The row
    terms of every state come from one stacked ``h_term`` call, and both
    drops of every step from one stacked ``column_shares`` call on block
    rows -1..0 of the states they reach.
    """
    if not run:
        raise ValidationError("a flow run has at least one state")
    for m, db in enumerate(run):
        if not (db.j_lo <= -1 and db.j_hi >= 0):
            raise WindowError(f"state {m} trusted range [{db.j_lo}, {db.j_hi}] misses blocks -1..0")
    triples = list(zip(*((db.v_blocks[:-1], db.w_blocks, db.v_blocks[1:]) for db in run)))
    flat = h_term(*(np.concatenate(t) for t in triples))
    row_terms = np.split(flat, np.cumsum([len(db.w_blocks) for db in run])[:-1])
    h_origin = np.array([terms[-db.j_lo] for terms, db in zip(row_terms, run)])
    rows = (np.stack([x[-1 - db.j_lo : 1 - db.j_lo] for x, db in zip(t, run)]) for t in triples)
    drops = column_shares(*rows)[1:, :, -1]  # block rows -1..0 of states 1..N
    # cumsum adds in order, as the sum of each n's terms alone would
    lhs = np.cumsum(np.append(0.0, drops[:, 0])) + h_origin
    rhs = h_origin[0] + np.cumsum(np.append(0.0, drops[:, 1]))
    return KsFunctionalReport(
        j_lo=tuple(db.j_lo for db in run),
        row_terms=tuple(row_terms),
        h_origin=h_origin,
        step_drops=drops[:, 0],
        shifted_drops=drops[:, 1],
        residuals=np.abs(lhs - rhs),
    )


def telescoping_check(run: Sequence[DeltaBlocks]) -> dict:
    """Compare flow runs of every length against a single index shift.

    ``run`` holds the mapped states 0..N of a flow run (see
    ``map_run``).  Its entropy ledger compares, for every n = 1..N,
    the run against the run of the window relabelled by one block; to
    it this adds the matching determinant chain identity for the outer
    corner entries of the coupling blocks at n = N.
    """
    report = functional_report(run)
    n = len(run) - 1
    if n < 1:
        raise ValidationError("telescoping needs at least one step")
    g = run[0].g
    det_lhs = float(np.linalg.det(run[0].v(0)))
    det_rhs = float(np.linalg.det(run[n].v(0)))
    for m in range(1, n + 1):
        det_lhs *= float(run[m].v(0)[g, g])
        det_rhs *= float(run[m].v(-1)[g, g])
    return {
        "n": n,
        "report": report,
        "residual": float(report.residuals[n]),
        "det_lhs": det_lhs,
        "det_rhs": det_rhs,
        "det_residual": abs(det_lhs - det_rhs) / max(1.0, abs(det_lhs), abs(det_rhs)),
    }


@dataclass(frozen=True)
class KsDiagnostics:
    """Coefficient differences and residual components along a run of states.

    ``values`` holds one array per tracked family, first axis the state
    index, in the column order of ``gmpflow ks``: coupling and pairing
    vector differences between neighbouring blocks and the central block,
    the two surface scalars, and the pole weight gaps.  ``sq_partials`` holds the running sums of their
    squares, ``cesaro_slopes`` the late-time slope of each total, and
    ``diverging`` the families whose slope exceeds the threshold.
    """

    values: dict[str, np.ndarray]
    sq_partials: dict[str, np.ndarray]
    cesaro_slopes: dict[str, float]
    diverging: dict[str, bool]

    def __post_init__(self) -> None:
        for name, arr in self.values.items():
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"diagnostic family {name} is not finite")
            arr.flags.writeable = False
        for arr in self.sq_partials.values():
            arr.flags.writeable = False


def ks_diagnostics(
    states: Sequence[GmpWindow], d: DeltaData, slope_tol: float = DIVERGENCE_SLOPE
) -> KsDiagnostics:
    """Track the summable coefficient families along a sequence of states.

    For each state: the leading coupling and pairing entries of the
    blocks one step right and left of the origin minus those of the
    central block, and the residual components of the central block
    against the map.  A Cesaro slope of the squared running sums over
    the late half of the run flags families that fail to stay bounded.
    """
    if not states:
        raise ValidationError("trajectory has no states")
    g = states[0].g
    if d.g != g:
        raise ValidationError(
            f"map has {d.g} poles but trajectory blocks have genus {g}"
        )
    # is_residual compares Lambda_k and lambda_k slot by slot
    d = d.aligned_to(states[0].c)
    for i, st in enumerate(states):
        if st.j_min > -1 or st.j_max < 1:
            raise WindowError(f"state {i} lacks blocks -1..1")
    # blocks -1, 0, 1 of every state, on axes (state, block, slot)
    lo = [-1 - st.j_min for st in states]
    P = np.stack([st.P[i : i + 3] for st, i in zip(states, lo)])
    Q = np.stack([st.Q[i : i + 3] for st, i in zip(states, lo)])
    P.setflags(write=False)
    Q.setflags(write=False)
    res = is_residual(GmpBlock._view(P[:, 1], Q[:, 1]), d)  # rows of checked states
    values = {
        "p_next": P[:, 2, :g] - P[:, 1, :g],
        "p_prev": P[:, 0, :g] - P[:, 1, :g],
        "q_next": Q[:, 2, :g] - Q[:, 1, :g],
        "q_prev": Q[:, 0, :g] - Q[:, 1, :g],
        "trailing_p": res[:, 0],
        "pairing": res[:, 1],
        "lambda_gap": res[:, 2:],
    }
    sq_partials = {k: np.cumsum(v**2, axis=0) for k, v in values.items()}
    # growth of each family's total over the late half of the run
    n_states, half = len(states), len(states) // 2
    cesaro_slopes = {
        name: float(np.sum(sq[-1]) - np.sum(sq[half - 1])) / (n_states - half)
        if n_states >= 4 else 0.0
        for name, sq in sq_partials.items()
    }
    return KsDiagnostics(
        values=values,
        sq_partials=sq_partials,
        cesaro_slopes=cesaro_slopes,
        diverging={name: s > slope_tol for name, s in cesaro_slopes.items()},
    )


def density_identity(c, lam, y: float) -> dict:
    """Closed-form determinant identities at the preimages of a level.

    For a pure pole map with positive weights, solves for the preimages
    of ``y`` (one inside each interval between consecutive poles, plus
    one outside on the side determined by the sign of ``y``), then
    verifies the Cauchy determinant of the pole-preimage matrix and the
    product of map derivatives against their closed forms, each residual
    relative to the larger value it compares, and each preimage against
    the level, relative to the larger of the level and the absolute sum of
    the terms it sums.  Every failure is typed: an empty or infinite
    preimage bracket a ValidationError, a preimage within the bracket
    offset 1e-9 * max(1, |c|) of its pole a NoSignChangeError naming the
    level and the offset, closed forms that leave the doubles or a
    preimage off its level a NumericalError.
    """
    c_arr, lam_arr = check_entries({"c": c, "lam": lam}, "{key}[{}]")
    y, = check_entries({"y": y})
    if c_arr.ndim != 1 or c_arr.shape != lam_arr.shape or c_arr.size == 0:
        raise ValidationError("poles and weights must be matching 1-d arrays")
    if np.any(lam_arr <= 0):
        raise ValidationError("pole weights must be positive")
    g = c_arr.size
    check_distinct_poles(c_arr)
    sorted_c = np.sort(c_arr)
    if y == 0:
        raise ValidationError(
            "level zero has no simple preimage system for a pure pole map"
        )

    def f(x: np.ndarray) -> np.ndarray:
        return np.sum(lam_arr / (c_arr - x[:, None]), axis=1) - y

    weight_sum = float(np.sum(lam_arr))
    offset = 1e-9 * max(1.0, float(np.max(np.abs(sorted_c))))
    reach = 2.0 * weight_sum / abs(y) + 1.0
    check(f"level {y:.3e}: outer preimage bracket reach", reach, DOUBLE_MAX, ValidationError)
    lo, hi = sorted_c[:-1] + offset, sorted_c[1:] - offset
    if y > 0:
        lo, hi = np.append(sorted_c[0] - reach, lo), np.append(sorted_c[0] - offset, hi)
    if y < 0:
        lo, hi = np.append(lo, sorted_c[-1] + offset), np.append(hi, sorted_c[-1] + reach)
    try:  # f changes sign on every bracket unless a preimage lies inside the offset
        roots = numkit.bisect_root(f, lo, hi)
    except NoSignChangeError as exc:
        raise NoSignChangeError(f"level {y:.3e}: a preimage lies within the bracket offset "
                                f"{offset:.3e} of its pole: {exc}") from None

    try:
        with np.errstate(all="raise"):  # the closed forms leave the doubles
            w_mat = 1.0 / (c_arr - roots[:, None])
            det_w = np.linalg.det(w_mat)
            # Cauchy's determinant, each factor of its numerator over one of
            # its denominator: (x_j - x_k)/(c_j - x_k) (c_k - c_j)/(c_k - x_j), k < j
            k, j = np.triu_indices(g, 1)
            pairs = (roots[j] - roots[k]) / (c_arr[j] - roots[k])
            pairs *= (c_arr[k] - c_arr[j]) / (c_arr[k] - roots[j])
            det_w_closed = np.prod(pairs) / np.prod(c_arr - roots)
            deriv_product = np.prod(np.sum(lam_arr / (c_arr - roots[:, None]) ** 2, axis=1))
            deriv_closed = det_w_closed**2 * np.prod(lam_arr)
    except FloatingPointError as exc:
        raise NumericalError(f"level {y:.3e}: closed forms: {exc}") from None

    got, want = np.array([det_w, deriv_product]), np.array([det_w_closed, deriv_closed])
    rel = np.abs(got - want) / np.maximum(np.abs(got), np.abs(want))
    check(lambda i: f"determinant identity of {('det W', 'the derivative product')[i]}: "
          "relative residual", rel, 1e-9)
    # both identities hold for any points that near the poles; a preimage held
    # to the bisection's width 1e-13 * max(1, |x|) at distance ~lam / |y| from
    # its pole misses the level by ~1e-13 * max(1, |x|) * |y| / lam, relative
    terms = lam_arr * w_mat
    scale = np.maximum(np.sum(np.abs(terms), axis=1), abs(y))
    check(lambda i: f"level {y:.3e}: preimage at {float(roots[i])!r}: relative residual",
          np.abs(np.sum(terms, axis=1) - y) / scale, 1e-9)
    return {
        "y": float(y),
        "roots": roots,
        "det_w": float(det_w),
        "det_w_closed": float(det_w_closed),
        "det_w_residual": float(rel[0]),
        "deriv_product": float(deriv_product),
        "deriv_product_closed": float(deriv_closed),
        "deriv_residual": float(rel[1]),
    }
