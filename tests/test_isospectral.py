import numpy as np
import numpy.testing as npt
import pytest

from gmpflow import isospectral
from gmpflow.errors import (
    SpectrumProximityError,
    ValidationError,
)
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta
from gmpflow.flow import jacobi_flow_step
from gmpflow.gmp import GmpBlock, GmpWindow, transfer_matrix
from gmpflow.isospectral import (
    FD_STEP_REL,
    IsPoint,
    _fd_jacobian,
    intrinsic_offset,
    is_residual,
    solve_is_point,
)
from gmpflow.ks import delta_of_gmp

from conftest import make_estar_gapset, make_p1_block, stack_window, wrapped_dense

SQRT2 = np.sqrt(2.0)


def estar_delta() -> DeltaData:
    return delta_from_gaps(make_estar_gapset())


def off_surface_block() -> GmpBlock:
    return GmpBlock([1.0, 0.5], [2.0, 0.0])


def quartic_seed(p0: float, q0: float) -> GmpBlock:
    return GmpBlock([p0, 0.5], [q0, -2.0 * p0 * q0])


def genus_delta(g: int) -> DeltaData:
    """Comb map of g equal gaps spread over [-3, 3]."""
    edges = np.linspace(-3.0, 3.0, 2 * g + 2).tolist()
    return delta_from_gaps(GapSet(-3.0, 3.0, tuple(zip(edges[1:-1:2], edges[2:-1:2]))))


def near_surface_rows(d: DeltaData, n_rows: int, sigma: float = 0.01):
    """P, Q rows of the closed-form surface block, each entry perturbed."""
    g = d.g
    p0 = np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0)
    q0 = np.append(np.zeros(g), -d.c0)
    u = np.random.default_rng(g).uniform(-1.0, 1.0, (2, n_rows, g + 1))
    return p0 * (1.0 + sigma * u[0]), q0 + sigma * u[1]


def live_fun(monkeypatch, d: DeltaData):
    """The residual function and start point that ``solve_is_point`` hands
    to Gauss-Newton for a seed near the surface of ``d``."""
    seen = {}
    gauss_newton = isospectral._gauss_newton

    def capture(fun, x0):
        seen.update(fun=fun, x0=x0)
        return gauss_newton(fun, x0)

    monkeypatch.setattr(isospectral, "_gauss_newton", capture)
    P, Q = near_surface_rows(d, 1)
    solve_is_point(d, GmpBlock(P[0], Q[0]))
    return seen["fun"], seen["x0"]


def column_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central differences one column at a time, one point per call."""
    cols = []
    for i in range(x.size):
        h = FD_STEP_REL * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.array(cols).T


def periodic_dense(blk: GmpBlock, c, n_blocks: int) -> np.ndarray:
    """Wrapped dense operator of a window of n_blocks copies of blk."""
    return wrapped_dense(stack_window((blk,) * n_blocks, c))


def two_shift_deviation(blk: GmpBlock, d: DeltaData) -> tuple[float, int]:
    """Largest deviation of the mapped operator of 40 copies of ``blk``,
    centred on block 0, from identity couplings and zero diagonal blocks
    over its 20 central block rows, and the number of rows checked."""
    db = delta_of_gmp(stack_window((blk,) * 40, d.cs(), j_min=-20), d, 10)
    deviation = max(np.max(np.abs(db.v_blocks - np.eye(blk.g + 1))), np.max(np.abs(db.w_blocks)))
    return float(deviation), db.w_blocks.shape[0] * (blk.g + 1)


class TestIsResidual:
    def test_canonical_block_vanishes(self):
        r = is_residual(make_p1_block(), estar_delta())
        assert r.shape == (3,)
        npt.assert_allclose(r, 0.0, atol=1e-12)

    def test_off_surface_components(self):
        r = is_residual(off_surface_block(), estar_delta())
        npt.assert_allclose(r[0], 0.0, atol=1e-15)
        npt.assert_allclose(r[1], 4.0, atol=1e-15)

    def test_linear_in_pole_weight(self):
        blk = off_surface_block()
        base = is_residual(blk, estar_delta())
        shifted = is_residual(blk, DeltaData(2.0, 0.0, ((0.0, 4.0 + 0.7),)))
        npt.assert_allclose(shifted[2], base[2] - 0.7, atol=1e-14)
        npt.assert_allclose(shifted[:2], base[:2])

    def test_pole_count_mismatch(self):
        two_pole = DeltaData(2.0, 0.0, ((0.0, 4.0), (5.0, 1.0)))
        with pytest.raises(ValidationError, match="poles"):
            is_residual(make_p1_block(), two_pole)

    def test_gap_free_block(self):
        free = GmpBlock([1.0], [0.0])
        d = delta_from_gaps(GapSet(-2.0, 2.0, ()))
        npt.assert_allclose(is_residual(free, d), 0.0, atol=1e-15)

    @pytest.mark.parametrize("g", [1, 2, 4, 8, 12])
    def test_stack_matches_single_blocks_bitwise(self, g):
        d = genus_delta(g)
        P, Q = near_surface_rows(d, 7, sigma=0.05)
        stacked = is_residual(GmpWindow(P, Q, d.cs()).rows(), d)
        single = np.array([is_residual(GmpBlock(p, q), d) for p, q in zip(P, Q)])
        assert stacked.shape == (7, g + 2)
        assert np.array_equal(stacked, single)


class TestAlternativeQg:
    def test_intrinsic_offset_formula(self):
        blk = GmpBlock([0.7, -0.3, 0.5], [0.2, 0.9, -0.4])
        expected = -(0.7 * 0.2 - 0.3 * 0.9 - 0.5 * 0.4) / 0.5
        npt.assert_allclose(intrinsic_offset(blk), expected, rtol=1e-14)

    def test_on_surface_offset_is_map_offset(self):
        d = estar_delta()
        blk = make_p1_block()
        npt.assert_allclose(intrinsic_offset(blk), d.c0, atol=1e-14)

    def test_on_surface_solved_point(self):
        d = estar_delta()
        pt = solve_is_point(d, quartic_seed(1.2, 0.4))
        npt.assert_allclose(intrinsic_offset(pt.block), d.c0, atol=1e-9)


class TestIsPoint:
    def test_canonical_block_accepted(self):
        pt = IsPoint(make_p1_block(), estar_delta())
        npt.assert_allclose(pt.residual(), 0.0, atol=1e-12)

    def test_off_surface_rejected(self):
        with pytest.raises(ValidationError, match="surface tolerance"):
            IsPoint(off_surface_block(), estar_delta())

    def test_residual_matches_free_function(self):
        pt = IsPoint(make_p1_block(), estar_delta())
        npt.assert_allclose(
            pt.residual(), is_residual(pt.block, pt.delta)
        )


class TestSolveIsPoint:
    def test_lands_on_invariant_curve(self):
        d = estar_delta()
        seed = GmpBlock([1.3, 0.5], [0.1, 0.0])
        pt = solve_is_point(d, seed)
        p0, q0 = pt.block.p[0], pt.block.q[0]
        assert pt.block.p[1] == 0.5
        npt.assert_allclose(
            2 * p0**2 + q0**2 / 2 + 2 * p0**2 * q0**2, 4.0, atol=1e-9
        )
        npt.assert_allclose(pt.block.q[1], -2.0 * p0 * q0, atol=1e-10)

    def test_canonical_block_is_fixed(self):
        pt = solve_is_point(estar_delta(), make_p1_block())
        npt.assert_allclose(pt.block.p, [SQRT2, 0.5], atol=1e-12)
        npt.assert_allclose(pt.block.q, [0.0, 0.0], atol=1e-12)

    def test_sign_flipped_seed_gives_flipped_solution(self):
        d = estar_delta()
        plus = solve_is_point(d, GmpBlock([1.3, 0.5], [0.1, 0.0]))
        minus = solve_is_point(d, GmpBlock([-1.3, 0.5], [-0.1, 0.0]))
        npt.assert_allclose(minus.block.p[0], -plus.block.p[0], rtol=1e-10)
        npt.assert_allclose(minus.block.q[0], -plus.block.q[0], rtol=1e-10)
        npt.assert_allclose(minus.block.q[1], plus.block.q[1], atol=1e-10)

    def test_distant_seed_rejected(self):
        with pytest.raises(ValidationError, match="closer"):
            solve_is_point(estar_delta(), GmpBlock([1.3, 0.5], [2.0, 0.0]))

    def test_trailing_p_overridden(self):
        pt = solve_is_point(estar_delta(), GmpBlock([1.3, 0.7], [0.1, 0.0]))
        assert pt.block.p[1] == 0.5


class TestStackedJacobian:
    """The Gauss-Newton Jacobian evaluates its 2n points as one stack."""

    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_matches_column_by_column_bitwise(self, monkeypatch, g):
        fun, x0 = live_fun(monkeypatch, genus_delta(g))
        jac = _fd_jacobian(fun, x0)
        assert jac.shape == (g + 1, 2 * g + 1)
        assert np.array_equal(jac, column_jacobian(fun, x0))

    @pytest.mark.parametrize("g", [2, 8])
    def test_one_lambda_k_call_per_evaluation(self, monkeypatch, g):
        fun, x0 = live_fun(monkeypatch, genus_delta(g))
        calls = []
        lambda_k = isospectral.lambda_k

        def counting(blk, c):
            vals = lambda_k(blk, c)
            calls.append(vals.shape)
            return vals

        monkeypatch.setattr(isospectral, "lambda_k", counting)
        _fd_jacobian(fun, x0)
        assert calls == [(2 * (2 * g + 1), g)]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("col", [0, 2, 4])
    def test_non_finite_point_in_stack_rejected(self, monkeypatch, bad, col):
        fun, x0 = live_fun(monkeypatch, genus_delta(2))
        pts = np.tile(x0, (3, 1))
        pts[1, col] = bad
        with pytest.raises(ValidationError, match="^block entries must be finite$"):
            fun(pts)


class TestAssemblePeriodicDense:
    """The wrapped assembly of a constant window is the periodic operator."""

    def test_canonical_entries(self):
        blk = make_p1_block()
        mat = periodic_dense(blk, [0.0], 3)
        expected = np.zeros((6, 6))
        for lo, nxt in ((0, 2), (2, 4), (4, 0)):
            expected[lo + 1, nxt : nxt + 2] = blk.p
            expected[nxt : nxt + 2, lo + 1] = blk.p
        npt.assert_allclose(mat, expected)

    def test_symmetry_and_wrap(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.2, 1.0, 3)
        q = rng.uniform(-1.0, 1.0, 3)
        blk = GmpBlock(p, q)
        mat = periodic_dense(blk, [-0.5, 0.8], 4)
        npt.assert_allclose(mat, mat.T)
        npt.assert_allclose(mat[11, 0:3], blk.p)

    def test_spectrum_stays_in_bands(self):
        mat = periodic_dense(make_p1_block(), [0.0], 8)
        vals = np.abs(np.linalg.eigvalsh(mat))
        assert np.all(vals >= 1.0 - 1e-9)
        assert np.all(vals <= 2.0 + 1e-9)


class TestMagicCheck:
    """The magic identity of surface points (acceptance criterion 3): the
    comb map of the periodic operator is the two-shift, checked through
    ``ks.delta_of_gmp``."""

    def test_canonical_two_shift_identity(self):
        pt = IsPoint(make_p1_block(), estar_delta())
        deviation, rows = two_shift_deviation(pt.block, pt.delta)
        assert deviation < 1e-8
        assert rows == 40

    def test_solved_point_two_shift_identity(self):
        pt = solve_is_point(estar_delta(), quartic_seed(1.25, 0.55))
        assert two_shift_deviation(pt.block, pt.delta)[0] < 1e-8

    def test_off_surface_deviation_order_one(self):
        assert two_shift_deviation(off_surface_block(), estar_delta())[0] > 0.1

    def test_pole_on_spectrum_raises(self):
        # Zero leading p isolates the gap slots, so the wrapped operator
        # has the pole position itself as an exact eigenvalue.
        blk = GmpBlock([0.0, 0.5], [0.0, 0.0])
        bad = DeltaData(2.0, 0.0, ((0.3, 4.0),))
        with pytest.raises(SpectrumProximityError):
            two_shift_deviation(blk, bad)


class TestSurfaceInvariants:
    sample_points = [
        s * z
        for z in (0.3, 0.5, 0.7, 0.85, 2.2, 2.6, 3.0, 4.0, 6.0, 9.0)
        for s in (1.0, -1.0)
    ]

    def trace_deviation(self, blk, d):
        worst = 0.0
        for z in self.sample_points:
            trace = np.trace(transfer_matrix(blk, d.cs(), z).value)
            worst = max(worst, abs(trace - float(eval_delta(d, z))))
        return worst

    def test_transfer_trace_equals_map_canonical(self):
        d = estar_delta()
        assert self.trace_deviation(make_p1_block(), d) < 1e-9

    def test_transfer_trace_equals_map_solved(self):
        d = estar_delta()
        pt = solve_is_point(d, quartic_seed(1.2, 0.4))
        assert self.trace_deviation(pt.block, d) < 1e-9

    @pytest.mark.parametrize("seed", [None, (1.25, 0.55)])
    def test_flow_step_preserves_surface(self, seed):
        d = estar_delta()
        if seed is None:
            blk = make_p1_block()
        else:
            blk = solve_is_point(d, quartic_seed(*seed)).block
        window = stack_window(tuple([blk] * 9), d.cs(), j_min=-4)
        stepped = jacobi_flow_step(window)
        for j in range(stepped.j_min, stepped.j_max + 1):
            r = is_residual(stepped.block(j), d)
            assert np.max(np.abs(r)) < 1e-9

    def test_gap_free_dense_operator_is_two_shift(self):
        blk = GmpBlock([1.0], [0.0])
        mat = periodic_dense(blk, [], 12)
        expected = np.zeros((12, 12))
        for i in range(12):
            expected[i, (i + 1) % 12] = 1.0
            expected[(i + 1) % 12, i] = 1.0
        npt.assert_allclose(mat, expected)
