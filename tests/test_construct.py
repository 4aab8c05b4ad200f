import functools
import re

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gmpflow import construct, numkit
from gmpflow.construct import (
    factor_L,
    gmp_to_jacobi_measure,
    gram_D,
    jacobi_to_gmp,
    multiplication_matrix,
    tau_basis,
)
from gmpflow.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericalError,
    PoleEvaluationError,
    SpectrumProximityError,
    ValidationError,
    WindowError,
)
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps
from gmpflow.flow import flow_run
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense, band_rows
from gmpflow.jacobi import (
    LANCZOS_FULL_STEPS,
    DiscreteMeasure,
    JacobiWindow,
    kappa,
    lanczos,
    lanczos_from_measure,
)

from oracles import (block_assembly, cgs2_lanczos, dense, longdouble_jacobi, longdouble_lanczos,
                     per_vector_jacobi_to_gmp, two_by_two_resolvent)
from conftest import (
    half_line_measures,
    make_estar_gapset,
    make_p1_block,
    make_perturbed_window,
    roundtrip_inputs,
    stack_window,
    torus_window,
)

SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def roundtrip_coefficients(g: int, n_blocks: int) -> tuple[DeltaData, GmpWindow, JacobiWindow]:
    """``roundtrip_inputs`` with the coefficient window ``gmp2jacobi`` reads off it."""
    d, w = roundtrip_inputs(g, n_blocks)
    return d, w, gmp_to_jacobi_measure(w)


def make_estar_delta():
    return delta_from_gaps(make_estar_gapset())


def make_widegap_delta():
    """Two-gap set whose map has poles near +-1.3038."""
    return delta_from_gaps(GapSet(-2.0, 2.0, ((-1.7, -0.3), (0.3, 1.7))))


def four_point_measure() -> DiscreteMeasure:
    return DiscreteMeasure(
        np.array([-2.0, -1.5, 1.5, 2.0]), np.array([0.25, 0.25, 0.25, 0.25])
    )


def period2_window(n_min: int = -107, n_max: int = 106) -> JacobiWindow:
    """Alternating 1.5 / 0.5 bonds with a(even) = 1.5, both ends strong."""
    ns = np.arange(n_min, n_max + 1)
    a = np.where(ns % 2 == 0, 1.5, 0.5).astype(float)
    return JacobiWindow(a, np.zeros(ns.size), n_min=n_min)


def periodic_g2_window() -> JacobiWindow:
    """Period-3 coefficients of a solved two-gap torus point, terminated
    so the truncation eigenvalues stay about 0.4 away from the poles."""
    a_per = [1.30491148, 1.30276851, 0.30000043]
    b_per = [-7.71000e-08, -2.21851e-05, 2.22622e-05]
    n_min, n_max = -224, 227
    ns = np.arange(n_min, n_max + 1)
    a = np.array([a_per[n % 3] for n in ns])
    b = np.array([b_per[n % 3] for n in ns])
    return JacobiWindow(a, b, n_min=n_min)


def decaying_perturbed_window(rng=None, n_blocks=222, j_min=-111, base=0.05):
    """P1 with exponentially decaying block perturbations; always valid."""
    blocks = []
    for j in range(j_min, j_min + n_blocks):
        eps = base * 0.6 ** abs(j)
        if rng is None:
            u = np.ones(4)
        else:
            u = rng.uniform(-1.0, 1.0, 4)
        blocks.append(
            GmpBlock(
                (SQRT2 + eps * u[0], 0.5 - 0.4 * eps * u[1]),
                (eps * u[2] / 3.0, -eps * u[3] / 5.0),
            )
        )
    return stack_window(tuple(blocks), (0.0,), j_min=j_min)


def surface_window(g: int, half: int) -> GmpWindow:
    """Perturbed window around the closed-form surface block of a g=1 or
    g=2 gap set, ``p = (sqrt(lambda_k / lambda0)..., 1 / lambda0)``."""
    if g == 1:
        return make_perturbed_window(make_p1_block(), [0.0], half=half)
    d = delta_from_gaps(GapSet(-3.0, 3.0, ((-1.5, -0.7), (0.4, 1.1))))
    center = GmpBlock(
        np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0),
        np.append(np.zeros(g), -d.c0),
    )
    return make_perturbed_window(center, d.cs(), half=half)


def mp_lanczos(mat: np.ndarray, start: np.ndarray, depth: int, dps: int = 50):
    """b(0..depth) and a(1..depth) of the float matrix ``mat`` at
    ``start``, taken as exact, by Lanczos with every vector
    re-orthogonalized twice in ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        A = [[mpmath.mpf(float(x)) for x in row] for row in mat]
        vec = [mpmath.mpf(float(x)) for x in start]
        norm = mpmath.sqrt(mpmath.fdot(vec, vec))
        basis = [[x / norm for x in vec]]
        b, a = [], []
        for k in range(depth + 1):
            image = [mpmath.fdot(row, basis[-1]) for row in A]
            b.append(mpmath.fdot(basis[-1], image))
            if k == depth:
                break
            for _ in range(2):
                for u in basis:
                    coef = mpmath.fdot(u, image)
                    image = [x - coef * y for x, y in zip(image, u)]
            norm = mpmath.sqrt(mpmath.fdot(image, image))
            a.append(norm)
            basis.append([x / norm for x in image])
        return np.array([float(x) for x in b]), np.array([float(x) for x in a])


def half_coefficients(J: JacobiWindow, side: int):
    """b(0..), a(1..) of one half of a two-sided window in the half's own
    order: side +1 reads sites 0, 1, ..., side -1 sites -1, -2, ..."""
    n = J.n_max + 1 if side > 0 else -J.n_min
    site = (lambda k: k) if side > 0 else (lambda k: -1 - k)
    b = np.array([J.b_at(site(k)) for k in range(n)])
    a = np.array([J.a_at(site(k) + (side < 0)) for k in range(1, n)])
    return b, a


class TestGramD:
    def test_four_point_example(self):
        D = gram_D(four_point_measure(), (0.0,))
        npt.assert_allclose(D, [[1.0, 0.0], [0.0, 25.0 / 72.0]], atol=1e-12)

    def test_off_diagonal_is_divided_difference(self):
        rng = np.random.default_rng(5)
        pts = np.sort(rng.uniform(1.2, 3.4, 6))
        wts = rng.uniform(0.2, 1.0, 6)
        m = DiscreteMeasure(pts, wts / np.sum(wts))
        cs = (0.3, -0.4, 0.9)
        D = gram_D(m, cs)
        rev = list(cs)[::-1]

        def resolv(c):
            return float(np.sum(m.weights / (c - m.points)))

        for j in range(3):
            npt.assert_allclose(D[0, j + 1], resolv(rev[j]), atol=1e-12)
            for k in range(3):
                if j == k:
                    continue
                expect = (resolv(rev[j]) - resolv(rev[k])) / (rev[k] - rev[j])
                npt.assert_allclose(D[j + 1, k + 1], expect, atol=1e-12)

    def test_hundred_random_measures_positive_definite(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            pts = np.sort(rng.uniform(1.0, 3.0, n))
            while np.min(np.diff(pts)) < 0.02:
                pts = np.sort(rng.uniform(1.0, 3.0, n))
            wts = rng.uniform(0.1, 1.0, n)
            m = DiscreteMeasure(pts, wts / np.sum(wts))
            D = gram_D(m, (0.0, 0.5))
            L = factor_L(D)
            resid = np.max(np.abs(L.T @ D @ L - np.eye(3)))
            assert resid < 1e-10 * max(1.0, np.max(np.abs(D)))

    def test_pole_on_support_raises(self):
        with pytest.raises(PoleEvaluationError):
            gram_D(four_point_measure(), (1.5,))

    @pytest.mark.parametrize("poles, message", [
        ((), "at least one pole is required"),
        pytest.param((0.1, np.nan), "poles[1] = nan is not a number", id="poles1-nan"),
        pytest.param((np.inf,), "poles[0] = inf is infinite", id="poles2-inf"),
    ])
    def test_poles_checked(self, poles, message):
        with pytest.raises(ValidationError) as info:
            gram_D(four_point_measure(), poles)
        assert str(info.value) == message

    def test_duplicate_poles_raise(self):
        with pytest.raises(ValidationError):
            gram_D(four_point_measure(), (0.1, 0.1))


class TestFactorL:
    def test_four_point_diagonal_example(self):
        L = factor_L(np.array([[1.0, 0.0], [0.0, 25.0 / 72.0]]))
        npt.assert_allclose(L, np.diag([1.0, np.sqrt(72.0 / 25.0)]), atol=1e-12)

    def test_identity(self):
        npt.assert_allclose(factor_L(np.eye(3)), np.eye(3), atol=1e-14)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n))
            D = M @ M.T + n * np.eye(n)
            L = factor_L(D)
            assert np.max(np.abs(np.tril(L, -1))) < 1e-13 * np.max(np.abs(L))
            assert np.all(np.diag(L) > 0.0)
            resid = np.max(np.abs(L.T @ D @ L - np.eye(n)))
            assert resid < 1e-10 * max(1.0, np.max(np.abs(D)))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            factor_L(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_raises(self):
        with pytest.raises(NotSymmetricError):
            factor_L(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(ValidationError):
            factor_L(np.ones((2, 3)))

    def test_gram_factor_is_exactly_triangular(self):
        # a triangular solve of the Cholesky factor and a product with an
        # upper-triangular step: zeros below the diagonal are exact, not
        # small, and the diagonal is 1 / G_ii to first order
        rng = np.random.default_rng(1)
        for _ in range(40):
            g, n = int(rng.integers(1, 5)), int(rng.integers(8, 40))
            pts = np.sort(rng.uniform(-3.0, 3.0, n))
            cs = rng.uniform(-3.5, 3.5, g)
            if np.min(np.abs(pts[:, None] - cs)) < 1e-3 or np.min(np.diff(pts)) < 1e-3:
                continue
            wts = rng.uniform(0.1, 1.0, n)
            D = gram_D(DiscreteMeasure(pts, wts / np.sum(wts)), cs)
            L = factor_L(D)
            assert np.array_equal(L, np.triu(L))
            assert np.all(np.diag(L) > 0.0)
            G = np.linalg.cholesky(D)
            npt.assert_allclose(np.diag(L) * np.diag(G), 1.0, rtol=1e-12)

    def test_one_cholesky_and_no_dense_solve(self, monkeypatch):
        chol, calls = numkit.lower_cholesky_like, []
        monkeypatch.setattr(numkit, "lower_cholesky_like",
                            lambda mat: calls.append(None) or chol(mat))
        monkeypatch.setattr(numkit, "solve", None)
        factor_L(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert len(calls) == 1

    def test_first_order_step(self, monkeypatch):
        # a factor off by 1e-6 in scale: L^T D L - I near -2e-6 I, which
        # the step takes to the order of its square
        chol = numkit.lower_cholesky_like
        D = np.array([[2.0, 0.5], [0.5, 1.0]])
        exact = factor_L(D)
        monkeypatch.setattr(numkit, "lower_cholesky_like", lambda mat: chol(mat) * (1.0 + 1e-6))
        npt.assert_allclose(factor_L(D), exact, rtol=1e-11, atol=0)

    def test_residual_refused(self, monkeypatch):
        # twice the Cholesky factor: E = -3/4 I, the step scales L by 11/8,
        # and L^T D L = (11/16)^2 I, a residual of 0.527
        chol = numkit.lower_cholesky_like
        monkeypatch.setattr(numkit, "lower_cholesky_like", lambda mat: chol(mat) * 2.0)
        with pytest.raises(NumericalError,
                           match=r"^triangular factor residual 5\.273e-01 exceeds 2\.000e-10$"):
            factor_L(np.array([[2.0, 0.5], [0.5, 1.0]]))


class TestTauBasis:
    def test_four_point_depth_two_values(self):
        d = make_estar_delta()
        m = four_point_measure()
        rb = tau_basis(m, d, depth=2)
        assert rb.table.shape == (4, 4)
        assert rb.g == 1
        assert rb.depth == 2
        npt.assert_allclose(rb.table[:, 0], 1.0, atol=1e-12)
        expect = np.sqrt(72.0 / 25.0) / (0.0 - m.points)
        npt.assert_allclose(rb.table[:, 1], expect, atol=1e-10)

    def test_first_function_is_one(self):
        rng = np.random.default_rng(3)
        pts = np.sort(rng.uniform(2.0, 5.0, 7))
        wts = rng.uniform(0.1, 1.0, 7)
        m = DiscreteMeasure(pts, wts / np.sum(wts))
        rb = tau_basis(m, make_estar_delta(), depth=2)
        npt.assert_allclose(rb.table[:, 0], 1.0, atol=1e-12)

    def test_gram_is_identity(self):
        rng = np.random.default_rng(11)
        pts = np.sort(rng.uniform(2.0, 6.0, 9))
        wts = rng.uniform(0.1, 1.0, 9)
        m = DiscreteMeasure(pts, wts / np.sum(wts))
        rb = tau_basis(m, make_estar_delta(), depth=4)
        gram = rb.table.T @ (m.weights[:, None] * rb.table)
        npt.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_depth_exceeding_support_raises(self):
        with pytest.raises(ValidationError):
            tau_basis(four_point_measure(), make_estar_delta(), depth=3)

    @pytest.mark.parametrize("depth", [0, -1, 1.5])
    def test_depth_must_be_a_positive_integer(self, depth):
        with pytest.raises(ValidationError, match="^depth must be a positive integer$"):
            tau_basis(four_point_measure(), make_estar_delta(), depth=depth)

    def test_rank_exhaustion_raises(self):
        pts = np.array([2.0, 2.0 + 1e-13, 3.0, 4.0])
        m = DiscreteMeasure(pts, np.full(4, 0.25))
        with pytest.raises(NumericalError, match=r"^measure rank exhausted at basis function 3: "
                           r"remainder \S+ is below \S+$"):
            tau_basis(m, make_estar_delta(), depth=2)

    def test_dependent_candidate_is_refused_and_leaves_its_row(self):
        rows = np.zeros((3, 4))
        rows[0, 0] = rows[1, 1] = 1.0
        construct._append_orthonormal(rows, 2, np.array([3.0, 0.0, 4.0, 0.0]), "x")
        assert rows[2].tolist() == [0.0, 0.0, 1.0, 0.0]
        before = rows.copy()
        # its remainder 1e-9 is below FLAG_RANK_REL times its norm 5
        with pytest.raises(NumericalError, match=r"^dependent: remainder 1\.000e-09 is below 5\.000e-08$"):
            construct._append_orthonormal(rows, 2, np.array([3.0, 4.0, 0.0, 1e-9]), "dependent")
        assert np.array_equal(rows, before)

    def test_orthonormality_checked(self, monkeypatch):
        # the first continuation function skips its projection, so it keeps
        # its components along the first block
        project = numkit.project_out
        calls = []

        def skip_first(basis, vec):
            calls.append(None)
            return vec.copy() if len(calls) == 1 else project(basis, vec)

        monkeypatch.setattr(numkit, "project_out", skip_first)
        with pytest.raises(NumericalError, match="not orthonormal"):
            tau_basis(four_point_measure(), make_estar_delta(), depth=2)

    def test_deviation_a_few_times_its_limit_refused(self, monkeypatch):
        # the first block scaled by 1 + 2e-10: its squared norms, and so the
        # Gram deviation, 4e-10, four times ORTHO_TOL
        honest = construct.factor_L
        monkeypatch.setattr(construct, "factor_L", lambda D: honest(D) * (1.0 + 2e-10))
        with pytest.raises(NumericalError, match=r"^basis table is not orthonormal: deviation "
                                                 r"4\.0\d\de-10 exceeds 1\.000e-10$"):
            tau_basis(four_point_measure(), make_estar_delta(), depth=2)


class TestMultiplicationMatrix:
    def test_four_point_pattern_and_entries(self):
        m = four_point_measure()
        rb = tau_basis(m, make_estar_delta(), depth=2)
        mm = multiplication_matrix(rb)
        assert mm.shape == (4, 4)
        npt.assert_allclose(mm, mm.T, atol=1e-14)
        direct = rb.table.T @ (m.weights[:, None] * m.points[:, None] * rb.table)
        npt.assert_allclose(mm, direct, atol=1e-12)
        # the only off-pattern positions at this size couple the trailing
        # slot of the far block to the first block
        assert abs(mm[3, 0]) < 1e-10
        assert abs(mm[3, 1]) < 1e-10

    def test_first_block_rank_structure(self):
        # nonzero pole: the diagonal of the first block carries it
        d = delta_from_gaps(GapSet(-1.0, 3.0, ((0.0, 2.0),)))
        rng = np.random.default_rng(29)
        pts = np.array([-0.9, -0.5, 2.3, 2.9]) + rng.uniform(-0.05, 0.05, 4)
        wts = rng.uniform(0.2, 1.0, 4)
        m = DiscreteMeasure(np.sort(pts), wts / np.sum(wts))
        rb = tau_basis(m, d, depth=2)
        mm = multiplication_matrix(rb)
        per = rb.g + 1
        ell = rb.L[0, :]
        low = np.tril(np.outer(rb.m_vec, ell))
        expect = low + np.triu(low.T, 1) + np.diag(
            np.r_[0.0, d.cs()[::-1]]
        )
        npt.assert_allclose(mm[:per, :per], expect, atol=1e-10)

    def test_depth_one_raises(self):
        m = four_point_measure()
        rb = tau_basis(m, make_estar_delta(), depth=1)
        with pytest.raises(ValidationError):
            multiplication_matrix(rb)

    def test_lost_pattern_raises(self, monkeypatch):
        rb = tau_basis(four_point_measure(), make_estar_delta(), depth=2)
        monkeypatch.setattr(construct, "pattern_defect", lambda mat, mask: 0.5)
        with pytest.raises(NumericalError, match=r"^multiplication matrix lost the block "
                           r"pattern: off-pattern entry 5\.000e-01 exceeds 1\.768e-09$"):
            multiplication_matrix(rb)


class TestReflectedWindow:
    def test_coefficients_mirror(self):
        rng = np.random.default_rng(41)
        a = rng.uniform(0.5, 1.5, 9)
        b = rng.uniform(-0.5, 0.5, 9)
        w = JacobiWindow(a, b, n_min=-4)
        r = w.reflected()
        assert r.n_min == -1 - w.n_max
        assert r.n_max == -1 - w.n_min
        for s in range(r.n_min, r.n_max + 1):
            npt.assert_allclose(r.b_at(s), w.b_at(-1 - s), atol=1e-15)
            if s > r.n_min:
                npt.assert_allclose(r.a_at(s), w.a_at(-s), atol=1e-15)

    def test_double_reflection_restores(self):
        w = period2_window(-9, 8)
        rr = w.reflected().reflected()
        assert rr.n_min == w.n_min
        for s in range(w.n_min + 1, w.n_max + 1):
            npt.assert_allclose(rr.a_at(s), w.a_at(s), atol=1e-15)


def kappa_minus(window: JacobiWindow, c: float) -> np.ndarray:
    """Mirror kappa vector at c, supported on sites <= -1, as
    ``jacobi_to_gmp`` takes it: the kappa vector of the reflected window,
    mapped back."""
    return kappa(window.reflected(), c).vec[::-1]


class TestKappaMinus:
    def test_supported_left_of_split(self):
        w = period2_window()
        km = kappa_minus(w, 0.0)
        scale = np.max(np.abs(km))
        assert np.max(np.abs(km[w.pos(0):])) < 1e-12 * scale

    def test_shifted_image_supported_on_seed_pair(self):
        w = period2_window()
        km = kappa_minus(w, 0.0)
        resid = dense(w) @ km
        resid[w.pos(-1)] = 0.0
        resid[w.pos(0)] = 0.0
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(km))

    def test_cross_gram_matches_corner_resolvents(self):
        w = periodic_g2_window()
        cs = make_widegap_delta().cs()
        kaps = [kappa(w, c) for c in cs]
        corner = {c: two_by_two_resolvent(w, c) for c in cs}
        a0 = w.a_at(0)
        for i, ki in enumerate(kaps):
            for j, kj in enumerate(kaps):
                if i == j:
                    continue
                ui = np.array([a0 * np.sin(ki.phi), np.cos(ki.phi)])
                uj = np.array([a0 * np.sin(kj.phi), np.cos(kj.phi)])
                expect = (
                    ui @ corner[cs[i]] @ uj - ui @ corner[cs[j]] @ uj
                ) / (cs[i] - cs[j])
                got = float(ki.vec @ kj.vec)
                npt.assert_allclose(got, expect, atol=1e-8)

    def test_window_short_on_the_left_refused(self):
        w = period2_window(-15, 106)
        assert kappa(w, 0.0).vec.size == w.size
        with pytest.raises(WindowError, match="kappa vector at c = 0.0: end weight"):
            kappa_minus(w, 0.0)

    def test_kappa_gram_positive_definite(self):
        ns = np.arange(-170, 170)
        w = JacobiWindow(np.ones(ns.size), np.full(ns.size, 3.0), n_min=-170)
        vecs = [kappa(w, c).vec for c in (0.0, -0.5)]
        gram = np.array([[u @ v for v in vecs] for u in vecs])
        assert np.all(np.linalg.eigvalsh(gram) > 0.0)


def blockwise_readout(amat: np.ndarray, g: int, n_blocks: int):
    """P and Q of ``jacobi_to_gmp`` by a per-block sign gauge and readout,
    the reference for its array form, from the operator matrix ``amat`` in
    the flag basis; with the number of slots the gauge flipped."""
    amat = amat.copy()
    per = g + 1
    k_lo = -(n_blocks // 2) - 1

    def idx(j, m):
        return (j - k_lo) * per + m

    flips = 0
    for j in range(k_lo + 1, k_lo + n_blocks + 1):
        row = idx(j - 1, g)
        for m in range(per):
            col = idx(j, m)
            if amat[row, col] < 0.0:
                amat[col, :] = -amat[col, :]
                amat[:, col] = -amat[:, col]
                flips += 1
    P, Q = [], []
    for j in range(k_lo + 1, k_lo + n_blocks + 1):
        sl = slice(idx(j, 0), idx(j, g) + 1)
        p = amat[idx(j - 1, g), sl].copy()
        P.append(p)
        Q.append(amat[sl, sl][g, :] / p[g])
    return np.array(P), np.array(Q), flips


def jittered(J: JacobiWindow, rng, size: float) -> JacobiWindow:
    """J with coefficients perturbed by up to ``size * 0.7**|n|``."""
    ns = np.arange(J.n_min, J.n_max + 1)
    decay = size * 0.7 ** np.abs(ns)
    a = J.a * (1.0 + decay * rng.uniform(-1.0, 1.0, ns.size))
    return JacobiWindow(a, J.b + decay * rng.uniform(-1.0, 1.0, ns.size), J.n_min)


class TestJacobiToGmp:
    def test_window_reflected_once(self, monkeypatch):
        reflect, calls = JacobiWindow.reflected, []

        def counted(window):
            calls.append(window)
            return reflect(window)

        monkeypatch.setattr(JacobiWindow, "reflected", counted)
        w = periodic_g2_window()
        assert jacobi_to_gmp(w, make_widegap_delta(), n_blocks=5).g == 2
        assert calls == [w]

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readout_matches_blockwise_gauge_bitwise(self, g, seed, monkeypatch):
        # pattern_defect sees the flag-basis matrix before the gauge
        seen = []
        check = construct.pattern_defect

        def capture(mat, mask):
            seen.append(mat.copy())
            return check(mat, mask)

        monkeypatch.setattr(construct, "pattern_defect", capture)
        rng = np.random.default_rng(seed)
        if g == 1:
            J = gmp_to_jacobi_measure(decaying_perturbed_window(rng))
            d = make_estar_delta()
        else:
            J, d = jittered(periodic_g2_window(), rng, 0.02), make_widegap_delta()
        w = jacobi_to_gmp(J, d, n_blocks=7)
        P, Q, flips = blockwise_readout(seen[0], g, 7)
        assert flips > 0
        for got, want in ((w.P, P), (w.Q, Q)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_gap_free_map_reads_off_the_coefficients(self):
        # g = 0: block j is the site j, p = (a(j),) and p q = (b(j),)
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.5, 1.5, 60), rng.uniform(-1.0, 1.0, 60)
        J = JacobiWindow(a, b, n_min=-30)
        w = jacobi_to_gmp(J, DeltaData(1.0, 0.0, ()), n_blocks=5)
        assert (w.g, w.j_min, w.j_max) == (0, -2, 2)
        sites = range(-2, 3)
        npt.assert_allclose(w.P[:, 0], [J.a_at(n) for n in sites], rtol=1e-12)
        npt.assert_allclose(w.P[:, 0] * w.Q[:, 0], [J.b_at(n) for n in sites],
                            atol=1e-12)

    def test_readout_deviation_names_the_first_bad_block(self, monkeypatch):
        build = construct.build_block_B

        def skewed(blk, c):
            out = build(blk, c)
            out[2, 0, 0] += 1e-3
            out[4, 1, 1] += 5e-3
            return out

        monkeypatch.setattr(construct, "build_block_B", skewed)
        with pytest.raises(NumericalError) as info:
            jacobi_to_gmp(period2_window(), make_estar_delta(), n_blocks=5)
        assert str(info.value) == (
            "block 0 readout deviates from the diagonal part by 1.000e-03 exceeds 1.414e-08"
        )

    def test_period_two_recovers_constant_block(self):
        d = make_estar_delta()
        w = jacobi_to_gmp(period2_window(), d, n_blocks=5)
        assert (w.j_min, w.j_max) == (-2, 2)
        ref = make_p1_block()
        for j in range(w.j_min, w.j_max + 1):
            blk = w.block(j)
            npt.assert_allclose(blk.p, ref.p, atol=1e-12)
            npt.assert_allclose(blk.q, ref.q, atol=1e-12)

    @pytest.mark.parametrize("g, n_blocks", [(1, 241), (2, 961), (4, 961)])
    def test_roundtrip_where_the_kappa_vectors_decay(self, g, n_blocks):
        d, w = roundtrip_inputs(g, n_blocks)
        back = jacobi_to_gmp(gmp_to_jacobi_measure(w), d, n_blocks=5)
        rows = slice(back.j_min - w.j_min, back.j_max - w.j_min + 1)
        npt.assert_allclose(back.P, w.P[rows], rtol=0.0, atol=1e-12)
        npt.assert_allclose(back.Q, w.Q[rows], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("width", [5, 9, 15, 21, 31, 41])
    @pytest.mark.parametrize("g, n_blocks", [(1, 241), (1, 481), (2, 241), (2, 481)])
    def test_every_width_is_right_or_refused(self, g, n_blocks, width):
        # far blocks read the flag vectors' tails, where the cut window is
        # not the whole operator: a width the window cannot carry is refused,
        # never read off wrong
        d, w, J = roundtrip_coefficients(g, n_blocks)
        try:
            back = jacobi_to_gmp(J, d, n_blocks=width)
        except (WindowError, NumericalError):
            return
        rows = slice(back.j_min - w.j_min, back.j_max - w.j_min + 1)
        npt.assert_allclose(back.P, w.P[rows], rtol=0.0, atol=1e-12)
        npt.assert_allclose(back.Q, w.Q[rows], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("width", [5, 9])
    @pytest.mark.parametrize("g, n_blocks", [(1, 241), (2, 241), (4, 961), (8, 961)])
    def test_block_continuation_is_the_per_vector_loop_bitwise(self, g, n_blocks, width):
        # each flag block is one solve per pole over its g + 1 columns, and
        # gives the blocks of the loop that mapped one vector at a time
        d, _, J = roundtrip_coefficients(g, n_blocks)
        if (g, width) == (8, 9):  # block -5 slot 4 reaches the window's ends
            self.assert_refused_alike(J, d, width, "at block -5 slot 4")
            return
        got, ref = jacobi_to_gmp(J, d, n_blocks=width), per_vector_jacobi_to_gmp(J, d, width)
        assert got.j_min == ref.j_min
        assert np.array_equal(got.P, ref.P) and np.array_equal(got.Q, ref.Q)

    @staticmethod
    def assert_refused_alike(J, d, width, at):
        with pytest.raises(WindowError) as ref:
            per_vector_jacobi_to_gmp(J, d, width)
        with pytest.raises(WindowError) as got:
            jacobi_to_gmp(J, d, n_blocks=width)
        assert f"window too short for the flag vector {at}: end weight" in str(ref.value)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    @pytest.mark.parametrize("width", [5, 9])
    def test_block_continuation_refuses_at_the_per_vector_loop_slot(self, width):
        # the 481-block round trip at g = 4 is refused in the continuation
        d, _, J = roundtrip_coefficients(4, 481)
        self.assert_refused_alike(J, d, width, "at block -3 slot 1")

    @pytest.mark.parametrize("sites, width", [(361, 41), (481, 21), (481, 27), (481, 41)])
    def test_torus_window_converts_to_its_block_or_is_refused(self, sites, width):
        d, J, block = torus_window(sites)
        try:
            back = jacobi_to_gmp(J, d, n_blocks=width)
        except (WindowError, NumericalError):
            assert width > 21  # the 481 sites carry width 21 at an end weight of 1.8e-9
            return
        npt.assert_allclose(back.P, np.broadcast_to(block.p, back.P.shape), rtol=0.0, atol=1e-12)
        npt.assert_allclose(back.Q, np.broadcast_to(block.q, back.Q.shape), rtol=0.0, atol=1e-12)

    def test_window_short_of_a_kappa_vector_refused_by_its_weight(self):
        d, w = roundtrip_inputs(8, 241)
        with pytest.raises(WindowError) as info:
            jacobi_to_gmp(gmp_to_jacobi_measure(w), d, n_blocks=5)
        weight = re.fullmatch(r"window too short for the kappa vector at c = \S+: end "
                              r"weight (\S+) exceeds 2\.000e-07", str(info.value))
        assert weight and 2e-7 < float(weight.group(1)) <= 1.0

    def test_spectrum_near_pole_raises(self):
        ns = np.arange(-40, 41)
        free = JacobiWindow(np.ones(ns.size), np.zeros(ns.size), n_min=-40)
        with pytest.raises(SpectrumProximityError):
            jacobi_to_gmp(free, make_estar_delta(), n_blocks=3)

    @pytest.mark.parametrize("g", [1, 2])
    def test_one_spectrum_per_call(self, g, monkeypatch):
        # the spectrum enters only as one value-range count at each pole for
        # each kappa vector and its mirror: no eigenvalue is selected by
        # index and no whole spectrum is computed
        selects = []
        eigvalsh = scipy.linalg.eigvalsh_tridiagonal

        def counting(*args, **kwargs):
            selects.append(kwargs.get("select", "a"))
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counting)
        if g == 1:
            w = jacobi_to_gmp(period2_window(), make_estar_delta(), n_blocks=5)
        else:
            w = jacobi_to_gmp(periodic_g2_window(), make_widegap_delta(), n_blocks=9)
        assert w.g == g
        assert 1 <= len(selects) <= 2 * g
        assert set(selects) == {"v"}

    def test_too_few_blocks_raises(self):
        with pytest.raises(ValidationError):
            jacobi_to_gmp(period2_window(), make_estar_delta(), n_blocks=2)

    def test_lost_pattern_raises(self, monkeypatch):
        monkeypatch.setattr(construct, "pattern_defect", lambda mat, mask: 0.5)
        with pytest.raises(NumericalError, match=r"^operator lost the GMP pattern in the flag "
                           r"basis \(the Jacobi window is likely too narrow\): off-pattern "
                           r"entry 5\.000e-01 exceeds 1\.414e-08$"):
            jacobi_to_gmp(period2_window(), make_estar_delta(), n_blocks=5)

    def test_narrow_window_raises(self):
        with pytest.raises(WindowError):
            jacobi_to_gmp(period2_window(-5, 4), make_estar_delta(), n_blocks=9)

    def test_roundtrip_recovers_perturbed_window(self):
        rng = np.random.default_rng(13)
        w = decaying_perturbed_window(rng)
        J = gmp_to_jacobi_measure(w)
        back = jacobi_to_gmp(J, make_estar_delta(), n_blocks=5)
        for j in range(back.j_min, back.j_max + 1):
            ref = w.block(j)
            got = back.block(j)
            npt.assert_allclose(got.p, ref.p, atol=1e-7)
            npt.assert_allclose(got.q, ref.q, atol=1e-7)


class TestTwoGapRoundtrip:
    def test_periodic_window_survives_both_routes(self):
        d = make_widegap_delta()
        J = periodic_g2_window()
        w = jacobi_to_gmp(J, d, n_blocks=9)
        assert (w.j_min, w.j_max) == (-4, 4)
        first = w.block(w.j_min)
        for j in range(w.j_min, w.j_max + 1):
            blk = w.block(j)
            npt.assert_allclose(blk.p, first.p, atol=1e-6)
            npt.assert_allclose(blk.q, first.q, atol=1e-6)
        npt.assert_allclose(first.p[-1] * d.lambda0, 1.0, atol=1e-5)
        back = gmp_to_jacobi_measure(w)
        for n in range(back.n_min, back.n_max + 1):
            npt.assert_allclose(back.b_at(n), J.b_at(n), atol=1e-8)
            if n > back.n_min:
                npt.assert_allclose(back.a_at(n), J.a_at(n), atol=1e-8)


class TestGmpToJacobiMeasure:
    def test_constant_window_gives_alternating_bonds(self):
        w = decaying_perturbed_window(rng=None, base=0.0)
        J = gmp_to_jacobi_measure(w)
        assert (J.n_min, J.n_max) == (-111, 110)
        assert J.a_at(0) == float(np.linalg.norm(w.block(0).p))
        for n in range(J.n_min + 1, J.n_max + 1):
            npt.assert_allclose(J.a_at(n), 1.5 if n % 2 == 0 else 0.5, atol=1e-12)
        for n in range(J.n_min, J.n_max + 1):
            assert abs(J.b_at(n)) < 1e-12

    @pytest.mark.parametrize("g", [1, 2, 4, 8, 16])
    def test_flow_readout_is_the_deep_oracle(self, g):
        # the paper's route to the plus half: a(n), b(n) read off state n
        # of the flow, as deep as the window lets it run (109 steps)
        _, w = roundtrip_inputs(g, 221)
        J = gmp_to_jacobi_measure(w)
        steps = min(-1 - w.j_min, w.j_max - 1)
        traj = flow_run(w, steps)
        assert (steps, J.n_max) == (109, 110)
        a_gap = max(abs(J.a_at(n) - traj.a_out[n]) for n in range(steps + 1))
        b_gap = max(abs(J.b_at(n) - traj.b_out[n]) for n in range(steps))
        # ten times the worst measured, 3.6e-14 in b at g = 4
        assert max(a_gap, b_gap) <= 3.6e-13

    @pytest.mark.parametrize("scale, bond", [
        (1e-160, 5e-160), (3e-200, 1.5e-199), (1e-300, 5.0000000000000006e-300),
    ])
    def test_tiny_crossing_bond(self, scale, bond):
        # p = scale * (3, 4) squares into subnormals; the bond is its norm
        w = make_perturbed_window(make_p1_block(), [0.0], half=20)
        P = w.P.copy()
        P[-w.j_min] = scale * np.array([3.0, 4.0])
        J = gmp_to_jacobi_measure(GmpWindow(P, w.Q, w.c, w.j_min))
        assert J.a_at(0) == bond
        assert (J.n_min, J.n_max) == (-20, 20)

    def test_window_must_cover_split(self):
        blk = make_p1_block()
        w = stack_window(tuple(blk for _ in range(8)), (0.0,), j_min=0)
        with pytest.raises(WindowError):
            gmp_to_jacobi_measure(w)

    @pytest.mark.parametrize("g, half", [(1, 20), (2, 15)])
    def test_matches_fifty_digit_lanczos_of_each_half(self, g, half):
        w = surface_window(g, half)
        J = gmp_to_jacobi_measure(w)
        A = assemble_dense(w)
        i0 = w.scalar_index(0, 0)
        per = g + 1
        halves = {
            1: (A[i0:, i0:], A[i0:, i0 - 1]),
            # index order reversed so that the start e_(-1,g) comes first
            -1: (A[i0 - 1 :: -1, i0 - 1 :: -1], np.eye(1, i0)[0]),
        }
        for side, (mat, start) in halves.items():
            b_ref, a_ref = mp_lanczos(mat, start, mat.shape[0] // per - 1)
            b, a = half_coefficients(J, side)
            assert b.size == b_ref.size == half + (side > 0)
            assert np.max(np.abs(b - b_ref)) <= 1e-14
            assert np.max(np.abs(a - a_ref)) <= 1e-14

    def test_matches_dense_spectral_measure_route(self):
        w = make_perturbed_window(make_p1_block(), [0.0], half=111)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        assert w.n_blocks == 222
        J = gmp_to_jacobi_measure(w)
        for side, (measure, depth) in zip((1, -1), half_line_measures(w)):
            ref = lanczos_from_measure(measure, depth)
            b, a = half_coefficients(J, side)
            assert b.size == ref.size == 111
            assert np.max(np.abs(b - ref.b)) <= 1e-12
            assert np.max(np.abs(a - ref.a[1:])) <= 1e-12

    @pytest.mark.parametrize("g, n_blocks", [(1, 600), (2, 400)])
    def test_matches_dense_route_beyond_one_basis_block(self, g, n_blocks):
        # halves deeper than the full steps: Simon's estimate decides
        w = surface_window(g, n_blocks // 2)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        half = n_blocks // 2
        assert half > 4 * LANCZOS_FULL_STEPS
        J = gmp_to_jacobi_measure(w)
        for side, (measure, depth) in zip((1, -1), half_line_measures(w)):
            ref = lanczos_from_measure(measure, depth)
            b, a = half_coefficients(J, side)
            assert b.size == ref.size == half
            assert np.max(np.abs(b - ref.b)) <= 1e-12
            assert np.max(np.abs(a - ref.a[1:])) <= 1e-12

    @pytest.mark.parametrize("g, n_blocks", [(1, 600), (2, 400)])
    def test_basis_stays_semi_orthogonal(self, g, n_blocks, monkeypatch):
        # each half's Lanczos vectors, read after the run from the padded
        # basis under the views that project_out receives, and the steps
        # that project: all of the first 32, then a few that Simon's
        # estimate asks for
        w = surface_window(g, n_blocks // 2)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        runs, project = [], numkit.project_out

        def counting(basis, vec):
            if not runs or runs[-1][0] is not basis.base:  # a new half
                runs.append((basis.base, []))
            runs[-1][1].append(basis.shape[0] - 1)
            return project(basis, vec)

        monkeypatch.setattr(numkit, "project_out", counting)
        gmp_to_jacobi_measure(w)
        assert len(runs) == 2
        later = []
        for padded, steps in runs:
            Q = padded[:, g + 1 : -(g + 1)]  # halfwidth g + 1
            assert Q.shape[0] == n_blocks // 2
            assert np.max(np.abs(Q @ Q.T - np.eye(Q.shape[0]))) <= np.sqrt(np.finfo(float).eps)
            assert steps[:LANCZOS_FULL_STEPS] == list(range(LANCZOS_FULL_STEPS))
            later.append(len(steps) - LANCZOS_FULL_STEPS)
        # measured: 20 + 20 at g = 1, 2 + 0 at g = 2
        assert 0 < sum(later) and max(later) < n_blocks // 8

    @pytest.mark.parametrize("g, n_blocks", [(1, 221), (2, 221), (4, 221), (8, 221),
                                             (16, 221), (1, 853)])
    def test_within_1e13_of_the_longdouble_lanczos(self, g, n_blocks):
        _, w = roundtrip_inputs(g, n_blocks)
        J = gmp_to_jacobi_measure(w)
        b, a = longdouble_jacobi(w)
        assert np.max(np.abs(J.b - b)) <= 1e-13
        assert np.max(np.abs(J.a - a)) <= 1e-13

    def test_exhausted_half_stops_at_breakdown(self):
        # block 3 hangs on by p = (0, 1e-300): the plus half splits after
        # blocks 0..2, whose 6 rows the Krylov space of v_plus exhausts
        w = make_perturbed_window(make_p1_block(), [0.0], half=20)
        P = w.P.copy()
        P[3 - w.j_min] = [0.0, 1e-300]
        cut = GmpWindow(P, w.Q, w.c, w.j_min)
        J = gmp_to_jacobi_measure(cut)
        assert (J.n_min, J.n_max) == (-20, 5)
        A = assemble_dense(cut)
        i0 = cut.scalar_index(0, 0)
        b_ref, a_ref = mp_lanczos(A[i0 : i0 + 6, i0 : i0 + 6], A[i0 : i0 + 6, i0 - 1], 5)
        b, a = half_coefficients(J, 1)
        assert np.max(np.abs(b - b_ref)) <= 1e-14
        assert np.max(np.abs(a - a_ref)) <= 1e-14
        full = gmp_to_jacobi_measure(w)
        assert np.array_equal(J.b[:20], full.b[:20])
        assert np.array_equal(J.a[:21], full.a[:21])

    def test_half_exhausted_past_the_full_steps(self):
        # block 20 hangs on by p = (0, 1e-300): the plus half splits after
        # blocks 0..19, whose 40 rows hold a 39-dimensional Krylov space of
        # v_plus (a(39) is 2e-58 at 60 digits); the estimate branch projects
        # at steps 38 and 39, and the run stops at step 39 with 40 sites
        w = make_perturbed_window(make_p1_block(), [0.0], half=60)
        P = w.P.copy()
        P[20 - w.j_min] = [0.0, 1e-300]
        cut = GmpWindow(P, w.Q, w.c, w.j_min)
        J = gmp_to_jacobi_measure(cut)
        assert (J.n_min, J.n_max) == (-60, 39)
        k0, p0 = -cut.j_min, cut.block(0).p
        rows = band_rows(cut.rows(k0, k0 + 20), cut.c)
        start = np.pad(p0 / np.linalg.norm(p0), (0, 38))
        b_ref, a_ref = longdouble_lanczos(rows, start, 39, 2)
        b, a = half_coefficients(J, 1)
        assert np.max(np.abs(b - b_ref)) <= 1e-13
        assert np.max(np.abs(a[:-1] - a_ref[1:-1])) <= 1e-13
        # a(39) reads the rounding left of a zero: 3.4e-13 measured
        assert a[-1] <= 1e-12
        full = gmp_to_jacobi_measure(w)
        assert np.array_equal(J.b[:60], full.b[:60])
        assert np.array_equal(J.a[:61], full.a[:61])

    def test_agrees_with_flow_route(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            w = decaying_perturbed_window(rng, n_blocks=120, j_min=-60)
            J = gmp_to_jacobi_measure(w)
            traj = flow_run(w, 6)
            for n in range(7):
                npt.assert_allclose(J.a_at(n), traj.a_out[n], atol=1e-6)
            for n in range(6):
                npt.assert_allclose(J.b_at(n), traj.b_out[n], atol=1e-6)


class TestBandOperator:
    @pytest.mark.parametrize("g", [0, 1, 2, 8, 16])
    @pytest.mark.parametrize("plus", [True, False])
    def test_every_leading_size_is_the_dense_product(self, g, plus):
        # lanczos on one half's band rows, the minus half reversed, applies
        # them at the leading sizes of its staircase, each vector on its own
        # padded row, so no row of another vector can leak into a product;
        # against the fully projected loop on the block-by-block dense matrix
        _, w = roundtrip_inputs(g, 41)
        per, k0, A = g + 1, -w.j_min, block_assembly(w)
        i0 = w.scalar_index(0, 0)
        if plus:
            rows, mat = band_rows(w.rows(k0), w.c), A[i0:, i0:]
            p0 = w.block(0).p
            start = np.pad(p0 / np.linalg.norm(p0), (0, rows.shape[0] - per))
        else:
            rows, mat = band_rows(w.rows(0, k0), w.c)[::-1, ::-1], A[i0 - 1 :: -1, i0 - 1 :: -1]
            start = np.eye(1, rows.shape[0])[0]
        depth = rows.shape[0] // per - 1
        got = lanczos(rows, start, depth)
        b_ref, a_ref = cgs2_lanczos(lambda v: mat[: v.size, : v.size] @ v, start, depth, per)
        assert got.size == depth + 1
        assert np.max(np.abs(got.b - b_ref)) <= 1e-13
        assert np.max(np.abs(got.a - a_ref)) <= 1e-13
