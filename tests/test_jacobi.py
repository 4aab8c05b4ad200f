import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import half_line_measures, make_p1_block, make_perturbed_window
from gmpflow import jacobi, numkit
from gmpflow.errors import (
    SQUARE_MAX,
    NumericalError,
    SingularMatrixError,
    SpectrumProximityError,
    ValidationError,
    WindowError,
)
from gmpflow.gmp import GmpWindow, band_rows
from gmpflow.jacobi import (
    LANCZOS_FULL_STEPS,
    DiscreteMeasure,
    JacobiWindow,
    dist_eta,
    kappa,
    kappa_pairing,
    lanczos,
    lanczos_from_measure,
    spectrum_near,
)
from oracles import (
    band_operator,
    block_assembly,
    cauchy_transform,
    cgs2_lanczos,
    dense,
    moment,
    resolvent_r,
    spectral_measure_plus,
    two_by_two_resolvent,
)


def free_window(n_min: int, n_max: int) -> JacobiWindow:
    size = n_max - n_min + 1
    return JacobiWindow(np.ones(size), np.zeros(size), n_min)


def random_window(
    rng: np.random.Generator, n_min: int, n_max: int
) -> JacobiWindow:
    size = n_max - n_min + 1
    return JacobiWindow(
        rng.uniform(0.5, 1.5, size), rng.uniform(-0.5, 0.5, size), n_min
    )


FREE_R3 = (-3.0 + np.sqrt(5.0)) / 2.0


def reference_lanczos(measure: DiscreteMeasure, depth: int) -> JacobiWindow:
    """Lanczos with the basis re-orthogonalized twice in a per-vector loop,
    the form ``lanczos_from_measure`` had before its projections became
    one BLAS product a pass."""
    x = measure.points
    basis = [np.sqrt(measure.weights)]
    bs = []
    a_out = [1.0]
    for step in range(depth + 1):
        v = basis[step]
        xv = x * v
        bs.append(float(v @ xv))
        if step == depth:
            break
        w = xv.copy()
        for u in basis:
            w -= (u @ w) * u
        for u in basis:
            w -= (u @ w) * u
        norm = float(np.linalg.norm(w))
        a_out.append(norm)
        basis.append(w / norm)
    return JacobiWindow(np.array(a_out), np.array(bs), 0)


def stieltjes(points, weights, depth: int, dps: int = 50):
    """b(0..depth) and a(1..depth) by the Stieltjes procedure on the monic
    orthogonal polynomials, in ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(p)) for p in points]
        w = [mpmath.mpf(float(q)) for q in weights]
        prev = [mpmath.mpf(0)] * len(x)
        cur = [mpmath.mpf(1)] * len(x)
        norm_prev = mpmath.mpf(1)
        b, a = [], []
        for k in range(depth + 1):
            norm = mpmath.fsum(wi * ci * ci for wi, ci in zip(w, cur))
            a_sq = norm / norm_prev if k else mpmath.mpf(0)
            if k:
                a.append(mpmath.sqrt(a_sq))
            moment = mpmath.fsum(wi * xi * ci * ci for wi, xi, ci in zip(w, x, cur))
            b.append(moment / norm)
            nxt = [(xi - b[-1]) * ci - a_sq * pi for xi, ci, pi in zip(x, cur, prev)]
            prev, cur, norm_prev = cur, nxt, norm
        return np.array([float(v) for v in b]), np.array([float(v) for v in a])


class TestJacobiWindow:
    def test_indexing_and_dense(self):
        win = JacobiWindow(
            np.array([9.0, 2.0, 3.0]), np.array([1.0, -1.0, 0.5]), -1
        )
        assert win.n_max == 1
        assert win.a_at(0) == 2.0
        assert win.b_at(-1) == 1.0
        assert_allclose(
            dense(win), [[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 0.5]]
        )

    def test_halves(self):
        win = JacobiWindow(
            np.array([0.7, 0.9, 1.1, 1.3]),
            np.array([10.0, 20.0, 30.0, 40.0]),
            -2,
        )
        ref = win.reflected()
        assert (ref.n_min, ref.n_max) == (-2, 1)
        assert_allclose(ref.b, [40.0, 30.0, 20.0, 10.0])
        assert_allclose(ref.a, [1.0, 1.3, 1.1, 0.9])
        assert ref.a_at(0) == win.a_at(0)
        # r_+ of each half, solved in place, is that of the one-sided window
        right = JacobiWindow(np.array([1.1, 1.3]), np.array([30.0, 40.0]))
        left = JacobiWindow(np.array([1.1, 0.9]), np.array([20.0, 10.0]))
        for z in (0.0, 25.0, 50.0):
            assert resolvent_r(win, z) == resolvent_r(right, z)
            assert resolvent_r(ref, z) == resolvent_r(left, z)

    def test_validation(self):
        with pytest.raises(ValidationError):
            JacobiWindow(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValidationError):
            JacobiWindow(np.ones(3), np.zeros(2))

    def test_coefficient_whose_square_overflows_is_named(self):
        # every a(n) comes before every b(n), as in the JSON file
        big = float(np.nextafter(SQUARE_MAX, np.inf))
        a, b = np.ones(6), np.zeros(6)
        b[1], a[4] = -big, big
        with pytest.raises(ValidationError) as info:
            JacobiWindow(a, b, -3)
        assert str(info.value) == f"a[4] = {big:.6g} is too large: its square overflows"
        a[4] = SQUARE_MAX
        with pytest.raises(ValidationError) as info:
            JacobiWindow(a, b, -3)
        assert str(info.value) == f"b[1] = {-big:.6g} is too large: its square overflows"
        b[1] = -SQUARE_MAX
        assert math.isfinite(JacobiWindow(a, b, -3).norm_bound())
        a[2] = 0.0
        with pytest.raises(ValidationError, match="^all a\\(n\\) must be positive$"):
            JacobiWindow(a, b, -3)

    def test_json_round_trip(self):
        win = JacobiWindow(np.array([1.5, 0.5]), np.array([0.1, -0.2]), -1)
        back = JacobiWindow.from_json(win.to_json())
        assert back.n_min == -1
        assert_allclose(back.a, win.a)
        assert_allclose(back.b, win.b)

    @pytest.mark.parametrize("n_min", [-1.5, 2.7, False, float("nan"), "-1"])
    def test_json_offset_must_be_integral(self, n_min):
        data = {"n_min": n_min, "a": [1.5, 0.5], "b": [0.1, -0.2]}
        with pytest.raises(ValidationError) as info:
            JacobiWindow.from_json(data)
        assert str(info.value) == f"n_min = {json.dumps(n_min)} is not an integer"

    def test_json_offset_may_be_an_integral_float(self):
        data = {"n_min": -1.0, "a": [1.5, 0.5], "b": [0.1, -0.2]}
        back = JacobiWindow.from_json(data)
        assert back.n_min == -1 and type(back.n_min) is int

    @pytest.mark.parametrize("n_min", [2**53, -float(2**53)])
    def test_json_offset_may_reach_two_to_the_53(self, n_min):
        data = {"n_min": n_min, "a": [1.5, 0.5], "b": [0.1, -0.2]}
        assert JacobiWindow.from_json(data).n_min == n_min

    @pytest.mark.parametrize(
        "n_min", [2**53 + 2, -float(2**53 + 2), -1e308, pytest.param(-(10**400), id="-10**400")]
    )
    def test_json_offset_beyond_two_to_the_53_rejected(self, n_min):
        data = {"n_min": n_min, "a": [1.5, 0.5], "b": [0.1, -0.2]}
        with pytest.raises(ValidationError) as info:
            JacobiWindow.from_json(data)
        spelled = "-10000000000... (402 characters)" if n_min == -(10**400) else json.dumps(n_min)
        assert str(info.value) == f"n_min = {spelled} is not an integer of magnitude at most 2**53"


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))
        for points, weights in (([0.0, 1.0], [1.0]), ([0.0], [[1.0]])):
            with pytest.raises(ValidationError, match="^points and weights must match in length$"):
                DiscreteMeasure(np.array(points), np.array(weights))
        with pytest.raises(ValidationError, match="^measure needs at least one point$"):
            DiscreteMeasure(np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "points, weights, message",
        [
            ([0.0, 1.0], [np.nan, np.nan], "weights[0] = nan is not a number"),
            ([0.0, np.nan], [0.5, 0.5], "points[1] = nan is not a number"),
            ([np.nan, 1.0], [0.5, 0.5], "points[0] = nan is not a number"),
            ([0.0, np.inf], [0.5, 0.5], "points[1] = inf is infinite"),
            ([0.0, 1.0], [0.5, np.inf], "weights[1] = inf is infinite"),
        ],
        ids=[f"points{i}-weights{i}" for i in range(5)],
    )
    def test_non_finite_rejected(self, points, weights, message):
        with pytest.raises(ValidationError) as info:
            DiscreteMeasure(np.array(points), np.array(weights))
        assert str(info.value) == message

    def test_total_mass_a_few_times_its_limit_off_refused(self):
        weights = np.array([0.5, 0.5 + 5e-12])
        total = np.sum(weights)
        with pytest.raises(ValidationError) as info:
            DiscreteMeasure(np.array([0.0, 1.0]), weights)
        assert str(info.value) == f"total mass {total} differs from 1 by 5.000e-12 exceeds 1.000e-12"

    def test_moments(self):
        m = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert moment(m, 0) == 1.0
        assert moment(m, 1) == 0.0
        assert moment(m, 2) == 1.0


class TestSpectralMeasurePlus:
    def test_single_site(self):
        win = JacobiWindow(np.array([1.0]), np.array([0.7]))
        m = spectral_measure_plus(win)
        assert_allclose(m.points, [0.7])
        assert_allclose(m.weights, [1.0])

    def test_free_truncation_support(self):
        m = spectral_measure_plus(free_window(0, 199))
        assert m.n_points == 200
        assert np.all(np.abs(m.points) < 2.0)
        expected = 2.0 * np.cos(np.arange(200, 0, -1) * np.pi / 201.0)
        assert_allclose(m.points, expected, atol=1e-12)

    def test_first_moment_is_b0(self):
        rng = np.random.default_rng(31)
        for _ in range(10)            :
            win = random_window(rng, 0, 12)
            m = spectral_measure_plus(win)
            assert_allclose(moment(m, 1), win.b_at(0), atol=1e-12)

    def test_rejects_two_sided(self):
        with pytest.raises(WindowError):
            spectral_measure_plus(free_window(-3, 3))


class TestResolventR:
    def test_single_site(self):
        win = JacobiWindow(np.array([1.0]), np.array([0.0]))
        assert_allclose(resolvent_r(win, 2.0), -0.5)

    def test_free_value_at_three(self):
        win = free_window(0, 1999)
        assert_allclose(resolvent_r(win, 3.0), FREE_R3, atol=1e-10)

    def test_matches_measure_form(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            win = random_window(rng, 0, 15)
            m = spectral_measure_plus(win)
            z = float(np.max(m.points)) + rng.uniform(0.5, 2.0)
            assert_allclose(
                resolvent_r(win, z), cauchy_transform(m, z).real, atol=1e-10
            )

    def test_eigenvalue_rejected(self):
        win = JacobiWindow(np.array([1.0]), np.array([0.7]))
        with pytest.raises(SingularMatrixError):
            resolvent_r(win, 0.7)

    @pytest.mark.parametrize("n_min, message", [
        (1, "site 0 outside [1, 4]"), (-4, "site 0 outside [-4, -1]"),
    ])
    def test_window_without_site_zero_refused(self, n_min, message):
        win = free_window(n_min, n_min + 3)
        with pytest.raises(WindowError, match=re.escape(message)):
            resolvent_r(win, 3.0)


class TestLanczosFromMeasure:
    def test_two_symmetric_points(self):
        m = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        win = lanczos_from_measure(m, 1)
        assert_allclose(win.b, [0.0, 0.0], atol=1e-15)
        assert_allclose(win.a_at(1), 1.0, atol=1e-15)

    def test_free_round_trip(self):
        m = spectral_measure_plus(free_window(0, 120))
        win = lanczos_from_measure(m, 25)
        assert_allclose(win.b, np.zeros(26), atol=1e-8)
        assert_allclose(win.a[1:], np.ones(25), atol=1e-8)

    def test_single_point(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
        win = lanczos_from_measure(m, 0)
        assert win.size == 1
        assert_allclose(win.b, [0.0])
        with pytest.raises(ValidationError):
            lanczos_from_measure(m, 1)

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(43)
        pts = np.sort(rng.uniform(-2.0, 2.0, size=30))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-2.0, 2.0, size=30))
        w = rng.uniform(0.1, 1.0, size=30)
        m = DiscreteMeasure(pts, w / np.sum(w))
        depth = 8
        win = lanczos_from_measure(m, depth)
        back = spectral_measure_plus(win)
        for order in range(2 * depth + 1):
            assert_allclose(
                moment(back, order), moment(m, order), atol=1e-9, rtol=1e-9
            )

    def test_matches_reference_on_half_line_measures(self):
        # the spectral measures of the two halves of a 222-block window
        w = make_perturbed_window(make_p1_block(), [0.0], half=111)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        seen = half_line_measures(w)
        assert w.n_blocks == 222
        assert [depth for _, depth in seen] == [110, 110]
        for measure, depth in seen:
            got = lanczos_from_measure(measure, depth)
            ref = reference_lanczos(measure, depth)
            assert np.max(np.abs(got.b - ref.b)) <= 1e-12
            assert np.max(np.abs(got.a - ref.a)) <= 1e-12

    def test_matches_stieltjes_at_fifty_digits(self):
        rng = np.random.default_rng(47)
        pts = np.sort(rng.uniform(-2.0, 2.0, size=40))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-2.0, 2.0, size=40))
        w = rng.uniform(0.1, 1.0, size=40)
        m = DiscreteMeasure(pts, w / np.sum(w))
        b_ref, a_ref = stieltjes(m.points, m.weights, 15)
        win = lanczos_from_measure(m, 15)
        assert np.max(np.abs(win.b - b_ref)) <= 1e-14
        assert np.max(np.abs(win.a[1:] - a_ref)) <= 1e-14

    def test_negative_depth_rejected(self):
        m = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="^depth must be nonnegative$"):
            lanczos_from_measure(m, -1)

    def test_breakdown_is_reported(self):
        m = DiscreteMeasure(np.array([0.0, 1e-15]), np.array([0.5, 0.5]))
        with pytest.raises(NumericalError, match="recurrence broke down at step 1"):
            lanczos_from_measure(m, 1)


class TestLanczos:
    @staticmethod
    def plus_half(half: int = 300):
        """Band rows, dense matrix, start and depth of the plus half of a
        2 * half + 1 block window at g = 1: halfwidth 2, half + 1 steps."""
        w = make_perturbed_window(make_p1_block(), [0.0], half=half)
        rows, i0 = band_rows(w.rows(half), w.c), w.scalar_index(0, 0)
        return rows, block_assembly(w)[i0:, i0:], np.eye(1, rows.shape[0])[0], half

    @staticmethod
    def recorded_basis(monkeypatch, band, start, depth):
        """``lanczos`` on the band, with its basis after the run, without
        the padding: the array under the views ``project_out`` receives."""
        padded, project = [], numkit.project_out

        def recording(basis, vec):
            padded.append(basis.base)
            return project(basis, vec)

        monkeypatch.setattr(numkit, "project_out", recording)
        win = lanczos(band, start, depth)
        monkeypatch.undo()
        h = np.shape(band)[1] // 2
        return win, padded[-1][:, h : h + start.size]

    def test_banded_basis_vanishes_beyond_its_staircase(self, monkeypatch):
        rows, dense, start, depth = self.plus_half()
        n, grow = dense.shape[0], 2
        # the dense matrix as a band of halfwidth n - 1: every step reads
        # every row, and its vectors still vanish past the staircase
        wide = np.pad(dense, ((0, 0), (n - 1, n - 1)))
        wide = wide[np.arange(n)[:, None], np.arange(n)[:, None] + np.arange(2 * n - 1)]
        ref, basis = self.recorded_basis(monkeypatch, wide, start, depth)
        assert ref.size == depth + 1 and basis.shape == (depth + 1, n)
        for k, vec in enumerate(basis):
            assert not np.any(vec[(k + 1) * grow :])
        got, basis = self.recorded_basis(monkeypatch, rows, start, depth)
        for k, vec in enumerate(basis):
            assert not np.any(vec[(k + 1) * grow :])
        assert np.max(np.abs(got.b - ref.b)) <= 1e-13
        assert np.max(np.abs(got.a - ref.a)) <= 1e-13

    def test_full_steps_are_the_cgs2_loop_bitwise(self):
        # b(0..31) and a(1..32) come from the full projections alone, with
        # the band product lanczos made as a callable before
        rows, _, start, depth = self.plus_half()
        k = LANCZOS_FULL_STEPS
        got = lanczos(rows, start, depth)
        b_ref, a_ref = cgs2_lanczos(band_operator(rows), start, depth, 2)
        assert np.array_equal(got.b[:k], b_ref[:k])
        assert np.array_equal(got.a[: k + 1], a_ref[: k + 1])
        assert not np.array_equal(got.b, b_ref)
        assert np.max(np.abs(got.b - b_ref)) <= 1e-13
        assert np.max(np.abs(got.a - a_ref)) <= 1e-13

    def test_krylov_space_exhausted_past_the_full_steps(self, monkeypatch):
        # a 100-row diagonal operator whose start spans 45 eigenvectors: the
        # estimate branch projects at step 44 and the norm left stops the run
        x = np.cos(np.pi * (np.arange(100) + 0.5) / 100)
        start = np.zeros(100)
        start[0:90:2] = 1 / np.sqrt(45)
        projected, project = [], numkit.project_out

        def recording(basis, vec):
            projected.append(basis.shape[0] - 1)
            return project(basis, vec)

        monkeypatch.setattr(numkit, "project_out", recording)
        got = lanczos(x[:, None], start, 99)
        assert got.size == 45
        assert projected[-1] == 44 and 43 not in projected
        b_ref, a_ref = cgs2_lanczos(lambda v: x[: v.size] * v, start, 44, 100)
        assert np.max(np.abs(got.b - b_ref)) <= 1e-13
        assert np.max(np.abs(got.a - a_ref)) <= 1e-13

    def test_zero_start_stops_at_once(self):
        rows, _, start, depth = self.plus_half(20)
        got = lanczos(rows, np.zeros_like(start), depth)
        assert got.size == 1 and got.b[0] == 0.0


class TestSpectrumNear:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_answers_as_the_whole_spectrum(self, seed):
        from scipy.linalg import eigvalsh_tridiagonal

        rng = np.random.default_rng(seed)
        J = random_window(rng, -150, 149)
        eigs = eigvalsh_tridiagonal(J.b, J.a[1:])
        # inside, next to an eigenvalue, between two, and outside on both sides
        points = [0.0, eigs[17] + 1e-3, 0.5 * (eigs[40] + eigs[41]), eigs[0] - 1.0,
                  eigs[-1] + 2.5]
        for x in points:
            dist = float(np.min(np.abs(eigs - x)))
            assert spectrum_near(J, x, (1.0 - 1e-9) * dist).size == 0
            near = spectrum_near(J, x, (1.0 + 1e-9) * dist)
            assert near.size >= 1
            assert np.min(np.abs(near - x)) == pytest.approx(dist, rel=1e-6)

    def test_single_site(self):
        win = JacobiWindow([1.0], [0.25])
        assert spectrum_near(win, 1.0, 0.75 * (1.0 - 1e-9)).size == 0
        assert np.array_equal(spectrum_near(win, 1.0, 0.75 * (1.0 + 1e-9)), [0.25])
        assert spectrum_near(win, -1.0, 1.25 * (1.0 - 1e-9)).size == 0
        assert spectrum_near(win, -1.0, 1.25 * (1.0 + 1e-9)).size == 1

    def test_span_never_collapses(self):
        # at |x| near 1e12, x -/+ 1e-6 round to x itself; the range still
        # holds the doubles next to x, and the answer is "no" or "yes"
        far = free_window(-10, 9)
        assert spectrum_near(far, 1e12, 1e-6).size == 0
        assert np.array_equal(spectrum_near(JacobiWindow([1.0], [1e12]), 1e12, 1e-6), [1e12])

    @pytest.mark.parametrize("bond", ["none", "outer", "inner"])
    def test_huge_entries_raise_no_warning(self, bond):
        # entries near the square root of the largest double: the pivots
        # and squared couplings of the unscaled matrix would overflow.  The
        # count stays exact next to the small eigenvalues of the free chain
        # of 38 sites between the ends, 2 cos(k pi / 39) up to about 1e-151,
        # whose nearest to 0 lies 2 sin(pi / 78) away.  A bond of 1e153
        # outside the matrix, or between the first two sites (which moves
        # the second site to about 7.7e151 and out of the chain), puts the
        # norm bound above 2^512
        n = 41 if bond == "inner" else 40
        a, b = np.ones(n), np.zeros(n)
        b[0], b[-1] = -1.3e154, 1.3e154
        if bond != "none":
            a[1 if bond == "inner" else 0] = 1e153
        win = JacobiWindow(a, b)
        assert (win.norm_bound() > 2.0**512) == (bond != "none")
        dist = 2.0 * math.sin(math.pi / 78)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectrum_near(win, 0.0, (1.0 - 1e-12) * dist).size == 0
            assert spectrum_near(win, 0.0, (1.0 + 1e-12) * dist).size == 2
            assert spectrum_near(win, 1.3e154, 1e-8 * 1.3e154).size == 1


class TestKappa:
    def test_free_angle_and_norm(self):
        win = free_window(-80, 80)
        kap = kappa(win, 3.0)
        assert_allclose(kap.phi, math.atan(FREE_R3), atol=1e-9)
        r_prime = (-1.0 + 3.0 / np.sqrt(5.0)) / 2.0
        phi_prime = r_prime / (1.0 + FREE_R3**2)
        assert_allclose(kap.norm_sq, phi_prime, atol=1e-6)

    def test_supported_on_right_half(self):
        # exactly zero on the sites < 0, on the free window and on random
        # windows 0.7 above or below their spectrum
        cases = [(free_window(-80, 80), 3.0)]
        for seed in range(6):
            win = random_window(np.random.default_rng(seed), -60, 60)
            eigs = np.linalg.eigvalsh(dense(win))
            cases.append((win, eigs[-1] + 0.7 if seed % 2 else eigs[0] - 0.7))
        for win, c in cases:
            assert np.max(np.abs(kappa(win, c).vec[: win.pos(0)])) == 0.0

    def test_zero_angle_branch(self):
        rng = np.random.default_rng(47)
        win = random_window(rng, -75, 75)
        c = float(np.max(np.abs(dense(win)).sum(axis=1))) + 1.0
        kap = kappa(win, c)
        r_plus = resolvent_r(win, c)
        assert_allclose(kap.phi, math.atan(r_plus), atol=1e-12)

    def test_norm_bound_estimate(self):
        win = free_window(-80, 80)
        c = 3.0
        kap = kappa(win, c)
        h = 1e-5
        phi_prime = (
            kappa(win, c + h).phi - kappa(win, c - h).phi
        ) / (2.0 * h)
        norm_j = win.norm_bound()
        dist = 1.0
        lower = min(win.a_at(0) ** 2, 1.0) / (abs(c) + norm_j) ** 2
        upper = max(win.a_at(0) ** 2, 1.0) / dist**2
        assert lower <= phi_prime <= upper
        assert_allclose(kap.norm_sq, phi_prime, atol=1e-6)

    def test_proximity_rejected(self):
        win = free_window(-40, 40)
        with pytest.raises(SpectrumProximityError):
            kappa(win, 0.0)

    def test_margin_enforced(self):
        win = free_window(-5, 5)
        with pytest.raises(WindowError):
            kappa(win, 3.0)

    @pytest.mark.parametrize("n_min, n_max", [(0, 80), (-80, -1)])
    def test_one_sided_window_rejected(self, n_min, n_max):
        with pytest.raises(WindowError, match=r"^kappa needs a two-sided window around -1 \| 0$"):
            kappa(free_window(n_min, n_max), 3.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_angle_derivative_is_exact(self, seed):
        # |kappa|^2 is the limit of phi's central difference; c lies 0.3 to
        # 1.5 outside the spectrum, where the vector fits in the window
        rng = np.random.default_rng(seed)
        win = random_window(rng, -60, 60)
        eigs = np.linalg.eigvalsh(dense(win))
        gap = float(rng.uniform(0.3, 1.5))
        c = eigs[-1] + gap if rng.random() < 0.5 else eigs[0] - gap
        h = 1e-5
        quotient = (jacobi.angle_plus(win, c + h)[0] - jacobi.angle_plus(win, c - h)[0]) / (2 * h)
        kap = kappa(win, c)
        assert kap.phi == jacobi.angle_plus(win, c)[0]
        assert abs(kap.norm_sq - quotient) <= 1e-6 * max(1.0, kap.norm_sq)

    def test_angle_derivative_at_a_pole_of_r_plus(self):
        # criterion 10's period-2 window at c = 0: J_+ has odd order and a
        # zero diagonal, so its solve is singular and phi = pi/2; kappa is
        # J_+'s eigenvector (1, -a(1) y), y = (J_{>=1})^{-1} e_1 = (2/3)(0, 1,
        # 0, -1/3, ...), |y|^2 = 1/2 and a(1) = 1/2, so |kappa|^2 = phi' = 9/8
        ns = np.arange(-107, 107)
        win = JacobiWindow(np.where(ns % 2 == 0, 1.5, 0.5), np.zeros(ns.size), n_min=-107)
        with pytest.raises(SingularMatrixError):
            resolvent_r(win, 0.0)
        kap = kappa(win, 0.0)
        assert kap.phi == math.pi / 2.0
        assert kap.norm_sq == pytest.approx(9.0 / 8.0, abs=1e-14)

    @pytest.mark.parametrize("outer", [1.0, 1e153])
    def test_pole_next_to_a_small_eigenvalue_of_a_huge_window(self, outer):
        # the ends hold entries near the square root of the largest double;
        # the inner sites are a free chain of 78, with eigenvalues
        # 2 cos(k pi / 79) up to about 1e-154.  A pole 1e-8 from one is
        # refused by the count, before any solve can overflow, also when the
        # bond outside the window puts the norm bound above 2^512, and the
        # refusal prints the true distance, bisected to the pole's last bit
        b = np.zeros(80)
        b[0], b[-1] = -1.3e154, 1.3e154
        a = np.ones(80)
        a[0] = outer
        win = JacobiWindow(a, b, n_min=-40)
        for k in (1, 20, 40):
            c = 2.0 * math.cos(k * math.pi / 79) + 1e-8
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                with pytest.raises(SpectrumProximityError) as err:
                    kappa(win, c)
            dist = float(re.search(r"within (\S+) of the window", str(err.value)).group(1))
            assert dist == pytest.approx(1e-8, rel=1e-2)

    def test_pole_away_from_the_spectrum_of_a_huge_window(self):
        # the same window at c = 2.5, 0.5 above the free chain's spectrum:
        # the solves' norm scale must not square the end entries, and the
        # O(1) inner pivots must pass against their own columns, so phi and
        # |kappa|^2 are the free half-line's atan(-1/2) and 4/15
        b = np.zeros(80)
        b[0], b[-1] = -1.3e154, 1.3e154
        win = JacobiWindow(np.ones(80), b, n_min=-40)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            kap = kappa(win, 2.5)
        assert kap.phi == pytest.approx(math.atan(-0.5), abs=1e-14)
        assert kap.norm_sq == pytest.approx(4.0 / 15.0, abs=1e-14)

    def test_pole_far_out(self):
        # a pole near 1e12, where c -/+ 1e-6 round to c: r_+(c) is about -1/c
        kap = kappa(free_window(-10, 9), 1e12)
        assert kap.phi == pytest.approx(-1e-12, rel=1e-9)

    @pytest.mark.parametrize("seed", [*range(8), "large_column", "pole_of_r_plus"])
    def test_vector_solves_its_defining_equation(self, seed):
        # (J - c) kappa = a(0) sin(phi) e_{-1} + cos(phi) e_0 to roundoff in
        # |J - c| |kappa|, on random windows away from the spectrum; on one
        # whose last site's bump puts an eigenvalue near 5.2 with its vector
        # at the far end, where 2e-6 above it the last resolvent column is
        # about 5e5 in size, against 0.2 for the kappa vector; and at the
        # pole of r_+ of criterion 10's window, where phi = pi/2
        if seed == "large_column":
            b = np.zeros(80)
            b[-1] = 5.0
            win = JacobiWindow(np.ones(80), b, n_min=-40)
            c = float(np.linalg.eigvalsh(dense(win))[-1]) + 2e-6
        elif seed == "pole_of_r_plus":
            ns = np.arange(-107, 107)
            win = JacobiWindow(np.where(ns % 2 == 0, 1.5, 0.5), np.zeros(ns.size), n_min=-107)
            c = 0.0
        else:
            rng = np.random.default_rng(seed)
            win = random_window(rng, -int(rng.integers(30, 60)), int(rng.integers(30, 60)))
            eigs = np.linalg.eigvalsh(dense(win))
            c = float(rng.choice([eigs[0] - 1.0, eigs[-1] + 1.0]) + rng.uniform(-0.5, 0.5))
        kap = kappa(win, c)
        shifted = dense(win) - c * np.eye(win.size)
        rhs = np.zeros(win.size)
        rhs[win.pos(-1)] = win.a_at(0) * math.sin(kap.phi)
        rhs[win.pos(0)] = math.cos(kap.phi)
        residual = np.linalg.norm(shifted @ kap.vec - rhs)
        assert residual <= 1e-15 * np.linalg.norm(shifted) * np.linalg.norm(kap.vec)

    @pytest.mark.parametrize("eps", [1e-11, 1e-12])
    def test_large_r_plus_keeps_its_angle(self, eps):
        # the period-2 window of criterion 10 with b(0) = eps: r_+(0) is
        # about 1/eps, and phi stays arctan r_+, not pi/2; the vector is
        # zero on the sites < 0 whichever the angle
        ns = np.arange(-107, 107)
        b = np.zeros(ns.size)
        b[107] = eps
        win = JacobiWindow(np.where(ns % 2 == 0, 1.5, 0.5), b, n_min=-107)
        r_plus = resolvent_r(win, 0.0)
        assert abs(r_plus) >= 0.5 / eps
        kap = kappa(win, 0.0)
        assert kap.phi == math.atan(r_plus) != math.pi / 2.0
        assert np.max(np.abs(kap.vec[: win.pos(0)])) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_weight_is_below_the_inverse_distance_bound(self, seed, monkeypatch):
        # the end weight kappa holds is that of its own vector x, each entry
        # of which is at most |rhs| / dist in size; a refusal names it
        rng = np.random.default_rng(seed)
        lo = -int(rng.integers(2, 60))
        win = random_window(rng, lo, int(rng.integers(0, 60)))
        eigs = np.linalg.eigvalsh(dense(win))
        c = float(rng.uniform(eigs[0] - 1.0, eigs[-1] + 1.0))
        while np.min(np.abs(eigs - c)) < 1e-3:
            c = float(rng.uniform(eigs[0] - 1.0, eigs[-1] + 1.0))
        dist = float(np.min(np.abs(eigs - c)))
        seen, check_ends = [], jacobi.check_ends

        def record(vec, what, sites=1):
            seen.append(vec.copy())
            check_ends(vec, what, sites)

        monkeypatch.setattr(jacobi, "check_ends", record)
        phi, _ = jacobi.angle_plus(win, c)
        rhs_norm = math.hypot(win.a_at(0) * math.sin(phi), math.cos(phi))
        try:
            kap, refusal = kappa(win, c), None
        except WindowError as exc:
            kap, refusal = None, str(exc)
        (vec,) = seen
        weight = max(abs(vec[0]), abs(vec[-1])) / np.max(np.abs(vec))
        if refusal:
            assert weight > jacobi.END_WEIGHT_TOL
            assert refusal.endswith(f"end weight {weight:.3e} exceeds 2.000e-07")
        else:
            assert np.array_equal(vec, kap.vec) and weight <= jacobi.END_WEIGHT_TOL
        assert weight <= rhs_norm / (dist * np.max(np.abs(vec))) * (1.0 + 1e-12)


class TestKappaPairing:
    @staticmethod
    def dense_lhs(win, other, c):
        return float(kappa(other, c).vec @ ((dense(win) - dense(other)) @ kappa(win, c).vec))

    def test_criterion_window_matches_dense_route(self):
        # criterion 7: the free window with b(7) bumped to 0.3, at c = 3
        win = free_window(-90, 90)
        b = win.b.copy()
        b[win.pos(7)] = 0.3
        other = JacobiWindow(win.a, b, win.n_min)
        lhs, _ = kappa_pairing(win, other, 3.0)
        ref = self.dense_lhs(win, other, 3.0)
        assert abs(lhs - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows_match_dense_route(self, seed):
        # every a(n) and b(n) differs, so the whole band enters
        rng = np.random.default_rng(seed)
        win = random_window(rng, -60, 60)
        a = win.a * (1.0 + rng.uniform(-0.05, 0.05, win.size))
        other = JacobiWindow(a, win.b + rng.uniform(-0.1, 0.1, win.size), win.n_min)
        c = max(win.norm_bound(), other.norm_bound()) + 1.0
        lhs, rhs = kappa_pairing(win, other, c)
        ref = self.dense_lhs(win, other, c)
        assert abs(lhs - ref) <= 1e-14 * abs(ref)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("n_min, n_max", [(-81, 79), (-80, 81)])
    def test_misaligned_windows_rejected(self, n_min, n_max):
        with pytest.raises(WindowError, match="^windows must be aligned for the pairing$"):
            kappa_pairing(free_window(-80, 80), free_window(n_min, n_max), 3.0)

    def test_identical_windows(self):
        win = free_window(-80, 80)
        lhs, rhs = kappa_pairing(win, win, 3.0)
        assert rhs == 0.0
        assert abs(lhs) < 1e-12

    def test_single_site_bump(self):
        win = free_window(-80, 80)
        b = win.b.copy()
        b[win.pos(0)] += 0.1
        other = JacobiWindow(win.a, b, win.n_min)
        lhs, rhs = kappa_pairing(win, other, 3.0)
        assert abs(lhs - rhs) < 1e-8
        assert abs(rhs) > 1e-4

    def test_antisymmetry(self):
        rng = np.random.default_rng(53)
        win = free_window(-100, 100)
        a = win.a.copy()
        b = win.b.copy()
        center = win.pos(0)
        b[center - 2 : center + 3] += rng.uniform(-0.1, 0.1, 5)
        a[center - 2 : center + 3] *= 1.0 + rng.uniform(-0.05, 0.05, 5)
        other = JacobiWindow(a, b, win.n_min)
        lhs1, rhs1 = kappa_pairing(win, other, 3.0)
        lhs2, rhs2 = kappa_pairing(other, win, 3.0)
        assert_allclose(lhs1, -lhs2, atol=1e-8)
        assert_allclose(rhs1, -rhs2, atol=1e-12)
        assert abs(lhs1 - rhs1) < 1e-8


class TestTwoByTwoResolvent:
    def test_free_corner_value(self):
        win = free_window(-300, 300)
        rmat = two_by_two_resolvent(win, 3.0)
        assert_allclose(rmat[1, 1], -1.0 / np.sqrt(5.0), atol=1e-9)
        assert_allclose(rmat[0, 0], rmat[1, 1], atol=1e-9)
        assert_allclose(rmat[0, 1], rmat[1, 0], atol=1e-12)

    def test_identity_on_random_windows(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            win = random_window(rng, -25, 24)
            z = float(np.max(np.abs(np.linalg.eigvalsh(dense(win))))) + 1.0
            rmat = two_by_two_resolvent(win, z)
            r_plus = resolvent_r(win, z)
            r_minus = resolvent_r(win.reflected(), z)
            a0 = win.a_at(0)
            assert (
                abs(-1.0 / rmat[1, 1] - (-1.0 / r_plus + a0**2 * r_minus))
                < 1e-8
            )
            assert (
                abs(-1.0 / rmat[0, 0] - (-1.0 / r_minus + a0**2 * r_plus))
                < 1e-8
            )

    def test_proximity_rejected(self):
        win = free_window(-30, 30)
        with pytest.raises(SpectrumProximityError):
            two_by_two_resolvent(win, 0.0)


class TestDistEta:
    def test_identical(self):
        b = np.array([0.1, 0.2, 0.3])
        assert dist_eta(b, b, 0.5) == 0.0

    def test_single_site_difference(self):
        b = np.zeros(5)
        b_tilde = np.zeros(5)
        b_tilde[0] = -1.0
        assert_allclose(dist_eta(b, b_tilde, 0.5), 1.0)

    def test_geometric_difference(self):
        eta = 0.6
        n = 400
        b = eta ** np.arange(n)
        expected = 1.0 / np.sqrt(1.0 - eta**4)
        assert_allclose(dist_eta(b, np.zeros(n), eta), expected, rtol=1e-12)

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValidationError, match="^dist_eta needs sequences of one length, "
                                                  "got 2 and 1$"):
            dist_eta(np.array([1.0, 1.0]), np.array([1.0]), 0.5)

    def test_eta_range_enforced(self):
        with pytest.raises(ValidationError):
            dist_eta(np.zeros(2), np.zeros(2), 1.0)
