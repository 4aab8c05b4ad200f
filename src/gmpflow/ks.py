"""Entropy functional of mapped windows and its behaviour along the flow.

Applying the comb map to a window operator produces a block tridiagonal
matrix: symmetric blocks on the diagonal, lower triangular blocks one
step right of it and their transposes one step left.  A periodic window
solving the magic identity maps exactly to the two-shift pattern
(identity off-diagonal blocks, zero diagonal blocks), and the entropy
term of a block triple measures the deviation from that pattern.
``delta_of_gmp`` is the one route that applies the map to a window: it
checks every column of the trusted block rows against the band and
extracts the blocks.  This module sums the per-block entropy terms,
evaluates the exact one-step drop of the functional under the flow,
checks the telescoping identity relating a flow run to a single shift,
accumulates coefficient diagnostics along trajectories, and verifies
the closed-form determinant identities for the density of the mapped
spectral measure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import NumericalError, SpectrumProximityError, ValidationError, WindowError
from .finitegap import DeltaData, check_distinct_poles
from .flow import jacobi_flow_step
from .gmp import GmpBlock, GmpWindow, assemble_dense, pattern_defect, resolvent_column
from .isospectral import is_residual

# Relative eigenvalue gap below which a pole counts as part of a spectrum.
SPECTRUM_GAP_REL = 1e-10
# Entries of the mapped operator outside the band, relative to its scale.
BAND_DEFECT_REL = 1e-8
# Absolute tolerance for the closed-form resolvent column cross-check.
RESOLVENT_CHECK_TOL = 1e-8
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
    which keeps the log-determinant terms real.
    """

    j_lo: int
    v_blocks: np.ndarray
    w_blocks: np.ndarray

    def __post_init__(self) -> None:
        V, W = (np.asarray(arr, dtype=float) for arr in (self.v_blocks, self.w_blocks))
        if len(V) != len(W) + 1:
            raise ValidationError("coupling block count must be the diagonal block count plus one")
        for arr in (V, W):
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
        v_in, v_out = self.v_blocks[a:b], self.v_blocks[a + 1 : b + 1]
        # columns laid out as contiguous rows sum in the order of a 1-d vector
        cols = (np.ascontiguousarray(np.swapaxes(m, -1, -2)) for m in (v_in, self.w_blocks[a:b]))
        norm_sq = sum(np.sum(m**2, axis=-1) for m in (*cols, v_out))
        outer = np.diagonal(v_in, axis1=-2, axis2=-1) * np.diagonal(v_out, axis1=-2, axis2=-1)
        return 0.5 * norm_sq - 1.0 - np.log(outer)


def delta_of_gmp(window: GmpWindow, d: DeltaData, margin: int) -> DeltaBlocks:
    """Blocks of the comb map applied to the wrapped window operator.

    The window's dense matrix is wrapped by coupling its last block row
    to the first block's interaction vector, the same convention as
    between consecutive blocks, and the map is evaluated through one
    symmetric eigendecomposition: each pole contributes its weight times
    the resolvent at that shift.  A pole within 1e-10 of the spectrum
    (relative to the spectral radius, at least 1) raises
    SpectrumProximityError.  Rows within ``margin`` blocks of either end
    are discarded: away from the wrap seam the resolvent columns at the
    poles have exact three-block support, so the trusted interior
    reproduces the doubly infinite operator.  Every column of the trusted
    rows is checked against that band, lower triangular couplings
    included.  From the same eigendecomposition, the resolvent column at
    the first pole and slot 0 of block 0 is cross-checked against its
    closed form whenever the trusted rows reach blocks -1..1, and that
    of block 1 whenever they reach blocks 0..2.
    """
    if d.g != window.g:
        raise ValidationError(
            f"map has {d.g} poles but window blocks have genus {window.g}"
        )
    if margin < 3:
        raise ValidationError("margin below 3 cannot clear the wrap seam")
    j_lo = window.j_min + margin
    j_hi = window.j_max - margin
    if j_hi < j_lo:
        raise WindowError(
            f"margin {margin} leaves no trusted blocks in "
            f"[{window.j_min}, {window.j_max}]"
        )
    d = d.aligned_to(window.c)

    n, per = window.n_blocks, window.g + 1
    mat = assemble_dense(window)
    mat[-1, :per] = mat[:per, -1] = window.P[0]  # the wrap seam
    vals, vecs = numkit.sym_eigen(mat)
    scale = max(1.0, float(np.max(np.abs(vals))))
    weights = np.zeros(vals.size)
    for ck, lk in d.poles:
        gap = float(np.min(np.abs(ck - vals)))
        if gap <= SPECTRUM_GAP_REL * scale:
            raise SpectrumProximityError(
                f"shift {ck} lies within {gap:.3e} of the spectrum"
            )
        weights += lk / (ck - vals)
    mapped = d.lambda0 * mat + d.c0 * np.eye(vals.size)
    mapped += (vecs * weights) @ vecs.T
    mapped = 0.5 * (mapped + mapped.T)

    m_scale = max(1.0, float(np.max(np.abs(mapped))))
    trusted = slice((j_lo - window.j_min) * per, (j_hi + 1 - window.j_min) * per)
    # the coupling right of each diagonal block is lower triangular
    defect = pattern_defect(mapped[trusted], np.tri(per, dtype=bool), j_lo - window.j_min)
    if defect > BAND_DEFECT_REL * m_scale:
        raise NumericalError(
            f"mapped operator lost its band structure: defect {defect:.3e}"
        )
    # block (j - 1, j) and block (j, j) for every j in j_lo..j_hi + 1
    cols = np.arange(j_lo, j_hi + 2) - window.j_min
    rows = cols + np.arange(-1, 1)[:, None]
    raw_v, raw_w = mapped.reshape(n, per, n, per)[rows, :, cols, :]
    raw_w = raw_w[:-1]

    for j in (0, 1):
        if not (window.g and j_lo <= j - 1 and j_hi >= j + 1):
            continue
        try:
            closed = resolvent_column(window, 1, j)
        except ValidationError:  # the closed form is undefined here
            continue
        # column of (c_1 - A)^{-1} at slot 0 of block j
        col = (vecs / (window.c[0] - vals)) @ vecs[window.scalar_index(j, 0)]
        err = float(np.max(np.abs(col[trusted] - closed[trusted])))
        if err > RESOLVENT_CHECK_TOL:
            raise NumericalError(
                f"resolvent column deviates from its closed form by {err:.3e}"
            )

    diag = np.diagonal(raw_v, axis1=1, axis2=2)
    if np.min(np.abs(diag)) < DIAGONAL_FLOOR_REL * m_scale:
        raise NumericalError("coupling block has a vanishing diagonal entry")
    eps = np.cumprod(np.sign(diag), axis=0)
    eps_prev = np.vstack([np.ones(per), eps[:-1]])
    return DeltaBlocks(
        j_lo=j_lo,
        v_blocks=(eps_prev[:, :, None] * eps[:, None, :]) * raw_v,
        w_blocks=(eps[:-1, :, None] * eps[:-1, None, :]) * raw_w,
    )


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
    if np.any(np.max(np.abs(w0 - w0_t), axis=(-2, -1)) > 1e-8 * w_scale):
        raise ValidationError("diagonal block must be symmetric")
    w_sym = 0.5 * (w0 + w0_t)
    sign0, logdet0 = np.linalg.slogdet(v0)
    sign1, logdet1 = np.linalg.slogdet(v1)
    if np.any(sign0 <= 0) or np.any(sign1 <= 0):
        raise ValidationError("coupling blocks must have positive determinant")
    norms = sum(np.sum(blk * blk, axis=(-2, -1)) for blk in (v0, w_sym, v1))
    terms = 0.5 * norms - v0.shape[-1] - (logdet0 + logdet1)
    return float(terms) if terms.ndim == 0 else terms


def delta_J_H(window: GmpWindow, d: DeltaData, margin: int = 3) -> float:
    """One-step drop of the entropy functional under the flow.

    Equals the entropy share of the column one slot left of the origin
    in the mapped operator of the stepped window, a finite sum of
    squares and hence nonnegative.  Block -1 must stay trusted.
    """
    db = delta_of_gmp(jacobi_flow_step(window), d, margin)
    return float(db.column_shares(-1, -1)[0, -1])


def map_chain(run: Sequence[GmpWindow], d: DeltaData, margin: int) -> list[DeltaBlocks]:
    """Mapped blocks of each state, whose trusted rows must reach -1..0."""
    out = []
    for m, st in enumerate(run):
        db = delta_of_gmp(st, d, margin)
        if not (db.j_lo <= -1 and db.j_hi >= 0):
            raise WindowError(
                f"state {m} trusted range [{db.j_lo}, {db.j_hi}] misses "
                "blocks -1..0"
            )
        out.append(db)
    return out


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
        low = float(np.min(np.concatenate(entropies), initial=0.0))
        if low < ENTROPY_FLOOR:
            raise ValidationError(f"entropy term {low:.3e} below the floor")

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

    The row terms of every state come from one stacked ``h_term`` call,
    and both drops of each step from the column shares of block rows
    -1..0 of the state it reaches.
    """
    if not run:
        raise ValidationError("a flow run has at least one state")
    for m, db in enumerate(run):
        if not db.j_lo <= 0 <= db.j_hi:
            raise WindowError(f"state {m} trusted range [{db.j_lo}, {db.j_hi}] misses block 0")
    triples = zip(*((db.v_blocks[:-1], db.w_blocks, db.v_blocks[1:]) for db in run))
    flat = h_term(*(np.concatenate(t) for t in triples))
    row_terms = np.split(flat, np.cumsum([len(db.w_blocks) for db in run])[:-1])
    h_origin = np.array([terms[-db.j_lo] for terms, db in zip(row_terms, run)])
    drops = np.array([db.column_shares(-1, 0)[:, -1] for db in run[1:]]).reshape(-1, 2)
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
    ``map_chain``).  Its entropy ledger compares, for every n = 1..N,
    the run against the run of the window relabelled by one block; to
    it this adds the matching determinant chain identity for the outer
    corner entries of the coupling blocks at n = N.
    """
    n = len(run) - 1
    if n < 1:
        raise ValidationError("telescoping needs at least one step")
    report = functional_report(run)
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
    res = is_residual(GmpBlock(P[:, 1], Q[:, 1]), d)
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
    product of map derivatives against their closed forms.
    """
    c_arr = np.asarray(c, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
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
    lo, hi = sorted_c[:-1] + offset, sorted_c[1:] - offset
    if y > 0:
        lo, hi = np.append(sorted_c[0] - reach, lo), np.append(sorted_c[0] - offset, hi)
    if y < 0:
        lo, hi = np.append(lo, sorted_c[-1] + offset), np.append(hi, sorted_c[-1] + reach)
    roots = numkit.bisect_root(f, lo, hi)

    w_mat = 1.0 / (c_arr[np.newaxis, :] - roots[:, np.newaxis])
    det_w = float(np.linalg.det(w_mat))

    sign = (-1.0) ** (g * (g - 1) // 2)
    k, j = np.triu_indices(g, 1)  # every pair k < j, row by row
    root_diffs = float(np.prod(roots[k] - roots[j]))
    pole_diffs = float(np.prod(c_arr[k] - c_arr[j]))
    cross = float(np.prod(c_arr[np.newaxis, :] - roots[:, np.newaxis]))
    det_w_closed = sign * root_diffs * pole_diffs / cross

    deriv = np.sum(lam_arr / (c_arr - roots[:, None]) ** 2, axis=1)
    deriv_product = float(np.prod(deriv))
    deriv_closed = (
        (root_diffs * pole_diffs) ** 2 / cross**2 * float(np.prod(lam_arr))
    )

    det_rel = abs(det_w - det_w_closed) / max(1.0, abs(det_w))
    deriv_rel = abs(deriv_product - deriv_closed) / max(1.0, abs(deriv_product))
    if det_rel > 1e-9 or deriv_rel > 1e-9:
        raise NumericalError(
            f"determinant identities failed: {det_rel:.3e}, {deriv_rel:.3e}"
        )
    return {
        "y": float(y),
        "roots": roots,
        "det_w": det_w,
        "det_w_closed": det_w_closed,
        "det_w_residual": det_rel,
        "deriv_product": deriv_product,
        "deriv_product_closed": deriv_closed,
        "deriv_residual": deriv_rel,
    }
