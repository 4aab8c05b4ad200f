"""Entropy functional of mapped windows and its behaviour along the flow.

Applying the comb map to a window operator produces a block tridiagonal
matrix: symmetric blocks on the diagonal, lower triangular blocks one
step below it.  A periodic window solving the magic identity maps
exactly to the two-shift pattern (identity off-diagonal blocks, zero
diagonal blocks), and the entropy term of a block triple measures the
deviation from that pattern.  This module extracts the blocks, sums the
per-block entropy terms, evaluates the exact one-step drop of the
functional under the flow, checks the telescoping identity relating a
flow run to a single shift, accumulates coefficient diagnostics along
trajectories, and verifies the closed-form determinant identities for
the density of the mapped spectral measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import NumericalError, ValidationError, WindowError
from .finitegap import DeltaData, apply_comb_map
from .flow import FlowTrajectory, jacobi_flow_step
from .gmp import GmpWindow, assemble_wrapped, resolvent_column
from .isospectral import is_residual

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
    ``w_blocks[i]`` the symmetric diagonal block at ``j_lo + i``.  Signs
    are normalised so every coupling block has positive diagonal, which
    keeps the log-determinant terms real.
    """

    g: int
    j_lo: int
    j_hi: int
    v_blocks: tuple[np.ndarray, ...]
    w_blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.j_hi < self.j_lo:
            raise WindowError("trusted range is empty")
        span = self.j_hi - self.j_lo + 1
        if len(self.v_blocks) != span + 1 or len(self.w_blocks) != span:
            raise ValidationError("block count does not match the range")
        per = self.g + 1
        for arr in (*self.v_blocks, *self.w_blocks):
            if arr.shape != (per, per):
                raise ValidationError("block shape does not match the genus")
            arr.flags.writeable = False

    def v(self, j: int) -> np.ndarray:
        """Coupling block between block rows ``j - 1`` and ``j``."""
        if not self.j_lo <= j <= self.j_hi + 1:
            raise WindowError(f"coupling block {j} outside trusted range")
        return self.v_blocks[j - self.j_lo]

    def w(self, j: int) -> np.ndarray:
        """Symmetric diagonal block at block row ``j``."""
        if not self.j_lo <= j <= self.j_hi:
            raise WindowError(f"diagonal block {j} outside trusted range")
        return self.w_blocks[j - self.j_lo]


def delta_of_gmp(window: GmpWindow, d: DeltaData, margin: int) -> DeltaBlocks:
    """Blocks of the comb map applied to the wrapped window operator.

    The map is evaluated through one symmetric eigendecomposition; each
    pole contributes its weight times the resolvent at that shift.  Rows
    within ``margin`` blocks of either end are discarded: away from the
    wrap seam the resolvent columns at the poles have exact three-block
    support, so the trusted interior reproduces the doubly infinite
    operator.  One interior resolvent column is cross-checked against
    its closed form whenever the window reaches around the origin.
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

    mapped, vals, vecs = apply_comb_map(assemble_wrapped(window), d)

    per = window.g + 1

    def base(j: int) -> int:
        return (j - window.j_min) * per

    m_scale = max(1.0, float(np.max(np.abs(mapped))))
    defect = 0.0
    raw_v = []
    raw_w = []
    for j in range(j_lo, j_hi + 2):
        block = mapped[base(j - 1) : base(j - 1) + per, base(j) : base(j) + per]
        raw_v.append(block)
        defect = max(defect, float(np.max(np.abs(np.triu(block, 1)))))
    for j in range(j_lo, j_hi + 1):
        raw_w.append(mapped[base(j) : base(j) + per, base(j) : base(j) + per])
        far = mapped[base(j - 2) : base(j - 1), base(j) : base(j) + per]
        defect = max(defect, float(np.max(np.abs(far))))
    if defect > BAND_DEFECT_REL * m_scale:
        raise NumericalError(
            f"mapped operator lost its band structure: defect {defect:.3e}"
        )

    if window.g and j_lo <= -1 and j_hi >= 1:
        try:
            closed = resolvent_column(window, 1)
        except ValidationError:  # the closed form is undefined here
            pass
        else:
            # column of (c_1 - A)^{-1} at slot 0 of block 0
            col = (vecs / (window.c[0] - vals)) @ vecs[window.scalar_index(0, 0)]
            rows = slice(base(j_lo), base(j_hi) + per)
            err = float(np.max(np.abs(col[rows] - closed[rows])))
            if err > RESOLVENT_CHECK_TOL:
                raise NumericalError(
                    f"resolvent column deviates from its closed form by {err:.3e}"
                )

    eps_prev = np.ones(per)
    eps_chain = []
    v_blocks = []
    for block in raw_v:
        diag = np.diag(block)
        if np.min(np.abs(diag)) < DIAGONAL_FLOOR_REL * m_scale:
            raise NumericalError("coupling block has a vanishing diagonal entry")
        eps_here = eps_prev * np.sign(diag)
        v_blocks.append(np.outer(eps_prev, eps_here) * block)
        eps_chain.append(eps_here)
        eps_prev = eps_here
    w_blocks = [
        np.outer(eps_chain[i], eps_chain[i]) * raw_w[i] for i in range(len(raw_w))
    ]
    return DeltaBlocks(
        g=window.g,
        j_lo=j_lo,
        j_hi=j_hi,
        v_blocks=tuple(v_blocks),
        w_blocks=tuple(w_blocks),
    )


def h_term(v0: np.ndarray, w0: np.ndarray, v1: np.ndarray) -> float:
    """Entropy of one block triple; zero exactly at the two-shift pattern.

    Half the squared Frobenius norms of the incoming coupling, diagonal
    and outgoing coupling blocks, minus the block size, minus the log
    determinant of the two couplings.  Nonnegative whenever both
    determinants are positive.
    """
    v0 = np.asarray(v0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if not (v0.shape == w0.shape == v1.shape) or v0.ndim != 2:
        raise ValidationError("blocks must be square matrices of equal shape")
    if v0.shape[0] != v0.shape[1]:
        raise ValidationError("blocks must be square matrices of equal shape")
    w_scale = max(1.0, float(np.max(np.abs(w0))))
    if float(np.max(np.abs(w0 - w0.T))) > 1e-8 * w_scale:
        raise ValidationError("diagonal block must be symmetric")
    w_sym = 0.5 * (w0 + w0.T)
    sign0, logdet0 = np.linalg.slogdet(v0)
    sign1, logdet1 = np.linalg.slogdet(v1)
    if sign0 <= 0 or sign1 <= 0:
        raise ValidationError("coupling blocks must have positive determinant")
    dim = v0.shape[0]
    norms = float(np.sum(v0 * v0) + np.sum(w_sym * w_sym) + np.sum(v1 * v1))
    return 0.5 * norms - dim - float(logdet0 + logdet1)


def H_plus_partial(db: DeltaBlocks, first: int, last: int) -> float:
    """Sum of entropy terms over block rows ``first`` through ``last``."""
    if last < first:
        return 0.0
    if first < db.j_lo or last > db.j_hi:
        raise WindowError(
            f"requested range [{first}, {last}] exceeds trusted "
            f"[{db.j_lo}, {db.j_hi}]"
        )
    return sum(h_term(db.v(j), db.w(j), db.v(j + 1)) for j in range(first, last + 1))


def column_term(db: DeltaBlocks, s: int) -> float:
    """Entropy share of one scalar column of the mapped operator.

    Half the squared norm of the column, minus one, minus the log of
    its two outer band entries.  Summing over the columns of a block row
    gives that row's entropy term; the column one slot left of the
    origin is the exact one-step drop of the functional under the flow.
    """
    per = db.g + 1
    j = s // per
    m = s - j * per
    if not db.j_lo <= j <= db.j_hi:
        raise WindowError(f"scalar column {s} outside the trusted range")
    v_in = db.v(j)
    w_here = db.w(j)
    v_out = db.v(j + 1)
    norm_sq = float(
        np.sum(v_in[:, m] ** 2) + np.sum(w_here[:, m] ** 2) + np.sum(v_out[m, :] ** 2)
    )
    return 0.5 * norm_sq - 1.0 - float(np.log(v_in[m, m] * v_out[m, m]))


def delta_J_H(window: GmpWindow, d: DeltaData, margin: int = 3) -> float:
    """One-step drop of the entropy functional under the flow.

    Equals the entropy share of the column one slot left of the origin
    in the mapped operator of the stepped window, a finite sum of
    squares and hence nonnegative.
    """
    stepped = jacobi_flow_step(window)
    db = delta_of_gmp(stepped, d, margin)
    if not (db.j_lo <= -1 <= db.j_hi):
        raise WindowError(
            "stepped window too narrow: block -1 must stay inside the "
            "trusted range"
        )
    return column_term(db, -1)


def _step_chain(window: GmpWindow, n: int) -> list[GmpWindow]:
    states = [window]
    for _ in range(n):
        states.append(jacobi_flow_step(states[-1]))
    return states


def _origin_blocks(
    states: list[GmpWindow], d: DeltaData, margin: int
) -> list[DeltaBlocks]:
    """Mapped blocks of each state, whose trusted rows must reach -1..0."""
    out = []
    for m, st in enumerate(states):
        db = delta_of_gmp(st, d, margin)
        if not (db.j_lo <= -1 and db.j_hi >= 0):
            raise WindowError(
                f"state {m} trusted range [{db.j_lo}, {db.j_hi}] misses "
                "blocks -1..0"
            )
        out.append(db)
    return out


def telescoping_check(
    window: GmpWindow, d: DeltaData, n: int, margin: int = 3
) -> dict:
    """Compare an n-step flow run against a single index shift.

    The sum of per-step drop terms plus the final origin entropy must
    equal the initial origin entropy plus the same sum evaluated along
    the run started from the shifted window.  Both sides are computed
    from independent flow runs.  The report also carries the matching
    determinant chain identity for the outer corner entries of the
    coupling blocks.
    """
    if n < 1:
        raise ValidationError("telescoping needs at least one step")
    states = _step_chain(window, n)
    shifted = GmpWindow.from_arrays(window.P, window.Q, window.c, window.j_min - 1)
    states_shifted = _step_chain(shifted, n)

    dbs = _origin_blocks(states, d, margin)
    dbs_shifted = _origin_blocks(states_shifted, d, margin)

    g = window.g
    left_terms = [column_term(dbs[m], -1) for m in range(1, n + 1)]
    right_terms = [column_term(dbs_shifted[m], -1) for m in range(1, n + 1)]
    h_first = h_term(dbs[0].v(0), dbs[0].w(0), dbs[0].v(1))
    h_last = h_term(dbs[n].v(0), dbs[n].w(0), dbs[n].v(1))
    lhs = sum(left_terms) + h_last
    rhs = h_first + sum(right_terms)

    det_lhs = float(np.linalg.det(dbs[0].v(0)))
    det_rhs = float(np.linalg.det(dbs[n].v(0)))
    for m in range(1, n + 1):
        det_lhs *= float(dbs[m].v(0)[g, g])
        det_rhs *= float(dbs[m].v(-1)[g, g])
    det_scale = max(1.0, abs(det_lhs), abs(det_rhs))

    return {
        "n": n,
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "h_first": h_first,
        "h_last": h_last,
        "left_terms": left_terms,
        "right_terms": right_terms,
        "det_lhs": det_lhs,
        "det_rhs": det_rhs,
        "det_residual": abs(det_lhs - det_rhs) / det_scale,
    }


@dataclass(frozen=True)
class KsFunctionalReport:
    """Entropy bookkeeping of a flow run.

    Spatial view: per-block entropy terms of the initial state over its
    trusted range with their running sums.  Flow view: per-step drop
    terms with their running sums, and the origin entropy of each state.
    Every term must clear the roundoff floor below zero.
    """

    j_lo: int
    j_hi: int
    h_spatial: np.ndarray
    spatial_partials: np.ndarray
    h_origin: np.ndarray
    step_drops: np.ndarray
    drop_partials: np.ndarray

    def __post_init__(self) -> None:
        for arr in (
            self.h_spatial,
            self.spatial_partials,
            self.h_origin,
            self.step_drops,
            self.drop_partials,
        ):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("entropy report contains non-finite terms")
            arr.flags.writeable = False
        for arr in (self.h_spatial, self.h_origin, self.step_drops):
            if arr.size and float(np.min(arr)) < ENTROPY_FLOOR:
                raise ValidationError(
                    f"entropy term {float(np.min(arr)):.3e} below the floor"
                )


def functional_report(
    window: GmpWindow, d: DeltaData, n_steps: int, margin: int = 3
) -> KsFunctionalReport:
    """Entropy terms, running sums and per-step drops along a flow run."""
    if n_steps < 0:
        raise ValidationError("step count must be nonnegative")
    states = _step_chain(window, n_steps)
    dbs = _origin_blocks(states, d, margin)
    db0 = dbs[0]
    h_spatial = np.array(
        [h_term(db0.v(j), db0.w(j), db0.v(j + 1)) for j in range(db0.j_lo, db0.j_hi + 1)]
    )
    h_origin = np.array(
        [h_term(db.v(0), db.w(0), db.v(1)) for db in dbs]
    )
    step_drops = np.array(
        [column_term(dbs[m + 1], -1) for m in range(n_steps)]
    )
    return KsFunctionalReport(
        j_lo=db0.j_lo,
        j_hi=db0.j_hi,
        h_spatial=h_spatial,
        spatial_partials=np.cumsum(h_spatial),
        h_origin=h_origin,
        step_drops=step_drops,
        drop_partials=np.cumsum(step_drops) if n_steps else np.zeros(0),
    )


@dataclass(frozen=True)
class KsDiagnostics:
    """Coefficient differences and residual components along a trajectory.

    ``values`` holds one array per tracked family, first axis the state
    index: coupling and pairing vector differences between neighbouring
    blocks and the central block, the two surface scalars, and the pole
    weight gaps.  ``sq_partials`` holds the running sums of their
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
    t: FlowTrajectory, d: DeltaData, slope_tol: float = DIVERGENCE_SLOPE
) -> KsDiagnostics:
    """Track the summable coefficient families along a flow trajectory.

    For each state: the leading coupling and pairing entries of the
    blocks one step right and left of the origin minus those of the
    central block, and the residual components of the central block
    against the map.  A Cesaro slope of the squared running sums over
    the late half of the run flags families that fail to stay bounded.
    """
    states = t.states
    if not states:
        raise ValidationError("trajectory has no states")
    g = states[0].g
    if d.g != g:
        raise ValidationError(
            f"map has {d.g} poles but trajectory blocks have genus {g}"
        )
    # is_residual compares Lambda_k and lambda_k slot by slot
    d = d.aligned_to(states[0].c)
    n_states = len(states)
    p_next = np.zeros((n_states, g))
    p_prev = np.zeros((n_states, g))
    q_next = np.zeros((n_states, g))
    q_prev = np.zeros((n_states, g))
    trailing_p = np.zeros(n_states)
    pairing = np.zeros(n_states)
    lambda_gap = np.zeros((n_states, g))
    for i, st in enumerate(states):
        if st.j_min > -1 or st.j_max < 1:
            raise WindowError(f"state {i} lacks blocks -1..1")
        center = st.block(0)
        right = st.block(1)
        left = st.block(-1)
        p_next[i] = right.p[:g] - center.p[:g]
        p_prev[i] = left.p[:g] - center.p[:g]
        q_next[i] = right.q[:g] - center.q[:g]
        q_prev[i] = left.q[:g] - center.q[:g]
        res = is_residual(center, d)
        trailing_p[i] = res[0]
        pairing[i] = res[1]
        lambda_gap[i] = res[2:]
    values = {
        "p_next": p_next,
        "p_prev": p_prev,
        "q_next": q_next,
        "q_prev": q_prev,
        "trailing_p": trailing_p,
        "pairing": pairing,
        "lambda_gap": lambda_gap,
    }
    sq_partials = {k: np.cumsum(v**2, axis=0) for k, v in values.items()}
    cesaro_slopes: dict[str, float] = {}
    diverging: dict[str, bool] = {}
    for name, arr in values.items():
        sq = arr**2
        totals = np.cumsum(sq.sum(axis=1) if sq.ndim == 2 else sq)
        if n_states >= 4:
            half = n_states // 2
            slope = float(totals[-1] - totals[half - 1]) / (n_states - half)
        else:
            slope = 0.0
        cesaro_slopes[name] = slope
        diverging[name] = slope > slope_tol
    return KsDiagnostics(
        values=values,
        sq_partials=sq_partials,
        cesaro_slopes=cesaro_slopes,
        diverging=diverging,
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
    order = np.argsort(c_arr)
    sorted_c = c_arr[order]
    if g > 1 and np.min(np.diff(sorted_c)) <= 0:
        raise ValidationError("poles must be distinct")
    if y == 0:
        raise ValidationError(
            "level zero has no simple preimage system for a pure pole map"
        )

    def f(x: float) -> float:
        return float(np.sum(lam_arr / (c_arr - x))) - y

    weight_sum = float(np.sum(lam_arr))
    offset = 1e-9 * max(1.0, float(np.max(np.abs(sorted_c))))
    reach = 2.0 * weight_sum / abs(y) + 1.0
    brackets = []
    if y > 0:
        brackets.append((sorted_c[0] - reach, sorted_c[0] - offset))
    for k in range(g - 1):
        brackets.append((sorted_c[k] + offset, sorted_c[k + 1] - offset))
    if y < 0:
        brackets.append((sorted_c[-1] + offset, sorted_c[-1] + reach))
    roots = np.array([numkit.bisect_root(f, lo, hi) for lo, hi in brackets])

    w_mat = 1.0 / (c_arr[np.newaxis, :] - roots[:, np.newaxis])
    det_w = float(np.linalg.det(w_mat))

    sign = (-1.0) ** (g * (g - 1) // 2)
    root_diffs = 1.0
    pole_diffs = 1.0
    for k in range(g):
        for j in range(k + 1, g):
            root_diffs *= roots[k] - roots[j]
            pole_diffs *= c_arr[k] - c_arr[j]
    cross = float(np.prod(c_arr[np.newaxis, :] - roots[:, np.newaxis]))
    det_w_closed = sign * root_diffs * pole_diffs / cross

    deriv = np.array(
        [float(np.sum(lam_arr / (c_arr - x) ** 2)) for x in roots]
    )
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
