import contextlib
import re

import numpy as np
import pytest

from conftest import _workloads
from oracles import plain_bisect_root

from gmpflow import finitegap, ks, numkit
from gmpflow.errors import (
    GmpflowError,
    NoSignChangeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericalError,
    SingularMatrixError,
    ValidationError,
)


def free_jacobi(n):
    m = np.zeros((n, n))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0
    m[idx + 1, idx] = 1.0
    return m


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.5, 0.25])
        x = numkit.solve(np.eye(4), rhs)
        np.testing.assert_allclose(x, rhs, atol=1e-14)

    def test_diagonal(self):
        x = numkit.solve(np.diag([2.0, 4.0]), np.array([2.0, 2.0]))
        np.testing.assert_allclose(x, [1.0, 0.5], atol=1e-14)

    def test_random_spd(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=(20, 20))
        mat = r @ r.T + np.eye(20)
        x_true = rng.normal(size=20)
        x = numkit.solve(mat, mat @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_singular_reports_pivot(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as exc:
            numkit.solve(mat, np.array([1.0, 1.0]))
        assert exc.value.pivot_index == 1

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            numkit.solve(np.zeros((3, 3)), np.ones(3))

    def test_scale_of_huge_entries_does_not_overflow(self):
        mat = dense_tridiagonal([1.3e154, 1.0, -1.3e154], np.ones(2))
        with np.errstate(over="raise"), pytest.raises(SingularMatrixError) as exc:
            numkit.solve(mat, np.ones(3))
        assert exc.value.pivot_index == 1 and exc.value.pivot_value == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numkit.solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_wrong_rhs_length(self):
        with pytest.raises(ValueError, match="^right-hand side length 2 does not match matrix order 3$"):
            numkit.solve(np.eye(3), np.ones(2))

    def test_rejects_nonfinite(self):
        mat = np.eye(2)
        mat[0, 1] = np.nan
        with pytest.raises(ValueError):
            numkit.solve(mat, np.ones(2))

    def test_column_missing_its_bound_after_refinement_refused(self, monkeypatch):
        # every back substitution is off by 1e-6: the one refinement pass
        # cannot meet the 1e-10 bound, and the column is refused
        import scipy.linalg

        lu_solve = scipy.linalg.lu_solve
        monkeypatch.setattr(scipy.linalg, "lu_solve", lambda *a, **k: lu_solve(*a, **k) + 1e-6)
        with pytest.raises(NumericalError, match=r"^solve residual 2\.828e-06 exceeds 2\.000e-10$"):
            numkit.solve(2.0 * np.eye(2), np.array([1.0, 1.0]))

    def test_each_column_meets_its_own_bound(self, monkeypatch):
        # the first back substitution misses column 0 by 1e-8 of its size,
        # which the 1e6 times larger column 1 would hide in one norm over
        # both; column 0 alone is refined, and column 1 keeps its bytes
        import scipy.linalg

        lu_solve = scipy.linalg.lu_solve
        calls = []

        def off_once(*args, **kwargs):
            x = lu_solve(*args, **kwargs)
            calls.append(x)
            if len(calls) == 1:
                x[:, 0] += 1e-8
            return x

        monkeypatch.setattr(scipy.linalg, "lu_solve", off_once)
        x = numkit.solve(2.0 * np.eye(2), np.array([[1.0, 1e6], [1.0, 1e6]]))
        assert len(calls) == 2
        np.testing.assert_allclose(x[:, 0], [0.5, 0.5], rtol=1e-15)
        assert np.array_equal(x[:, 1], [5e5, 5e5])

    def test_residual_bound_random(self):
        # 1000 random systems: the documented residual bound holds each time.
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            mat = rng.normal(size=(n, n))
            rhs = rng.normal(size=n)
            try:
                x = numkit.solve(mat, rhs)
            except SingularMatrixError:
                continue
            res = np.linalg.norm(mat @ x - rhs)
            assert res <= 1e-10 * np.linalg.norm(mat) * max(np.linalg.norm(x), 1.0)


def random_tridiagonal(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a random Jacobi matrix."""
    return rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n - 1)


def dense_tridiagonal(diag, off) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def singular_at(n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """T with the exact eigenvalue z: T - z I has diagonal (1, 2, ..., 2, 1)
    and unit off-diagonal, so its LU pivots are 1, ..., 1, 0 exactly."""
    if n == 1:
        return np.array([z]), np.zeros(0)
    shifted = np.full(n, 2.0)
    shifted[[0, -1]] = 1.0
    return shifted + z, np.ones(n - 1)


class TestSolveTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 15, 400])
    @pytest.mark.parametrize("n_rhs", [1, 2])
    def test_matches_dense_solve(self, n, n_rhs):
        rng = np.random.default_rng(1000 * n + n_rhs)
        diag, off = random_tridiagonal(rng, n)
        eigs = np.linalg.eigvalsh(dense_tridiagonal(diag, off))
        rhs = rng.normal(size=(n, n_rhs)) if n_rhs > 1 else rng.normal(size=n)
        # one shift outside the spectrum, one between two eigenvalues
        inside = 0.5 * (eigs[n // 2 - 1] + eigs[n // 2]) if n > 1 else 0.3
        for z in (eigs[-1] + 0.7, inside):
            ref = numkit.solve(dense_tridiagonal(diag, off) - z * np.eye(n), rhs)
            x = numkit.solve_tridiagonal(diag, off, rhs, z)
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 2, 15, 400])
    def test_exact_eigenvalue_reports_dense_pivot(self, n):
        z = 0.5
        diag, off = singular_at(n, z)
        with pytest.raises(SingularMatrixError) as ref:
            numkit.solve(dense_tridiagonal(diag, off) - z * np.eye(n), np.ones(n))
        with pytest.raises(SingularMatrixError) as got:
            numkit.solve_tridiagonal(diag, off, np.ones(n), z)
        assert got.value.pivot_index == ref.value.pivot_index == n - 1
        assert got.value.pivot_value == ref.value.pivot_value == 0.0

    def test_order_two_holds_each_pivot_against_its_column(self):
        # the O(1) pivot next to 1.3e154 passes, as it does at order 3 and above
        x = numkit.solve_tridiagonal([1.3e154, 1.0], [1.0], np.ones(2), 0.0)
        np.testing.assert_allclose(x, [0.0, 1.0], rtol=0, atol=1e-15)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            diag, off = random_tridiagonal(rng, n)
            z = float(rng.uniform(-2.0, 2.0))
            rhs = rng.normal(size=n)
            try:
                x = numkit.solve_tridiagonal(diag, off, rhs, z)
            except SingularMatrixError:
                continue
            mat = dense_tridiagonal(diag, off) - z * np.eye(n)
            res = np.linalg.norm(mat @ x - rhs)
            assert res <= 1e-10 * np.linalg.norm(mat) * max(np.linalg.norm(x), 1.0)

    @pytest.mark.parametrize(
        "diag, off, rhs",
        [
            (np.ones(3), np.ones(3), np.ones(3)),
            (np.ones(3), np.ones(2), np.ones(4)),
            (np.ones(3), np.ones(2), np.ones((2, 3))),
            (np.ones((3, 1)), np.ones(2), np.ones(3)),
            (np.ones(0), np.ones(0), np.ones(0)),
            (np.ones(3), np.array([1.0, np.nan]), np.ones(3)),
            (np.ones(3), np.ones(2), np.array([1.0, np.inf, 0.0])),
        ],
    )
    def test_rejects_bad_input(self, diag, off, rhs):
        with pytest.raises(ValueError):
            numkit.solve_tridiagonal(diag, off, rhs, 0.0)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(5)
        diag, off = random_tridiagonal(rng, 9)
        x = rng.normal(size=(9, 3))
        dense = dense_tridiagonal(diag, off)
        np.testing.assert_allclose(
            numkit.banded_matvec((diag, off), x), dense @ x, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            numkit.banded_matvec((diag, off), x[:, 0]),
            dense @ x[:, 0],
            rtol=0,
            atol=1e-15,
        )

    def test_banded_matvec_reads_leading_rows(self):
        rng = np.random.default_rng(7)
        diag, off = random_tridiagonal(rng, 12)
        dense = dense_tridiagonal(diag, off)
        x = rng.normal(size=12)
        np.testing.assert_allclose(
            numkit.banded_matvec((diag, off), x), dense @ x, rtol=0, atol=1e-14
        )
        for m in (1, 2, 5):
            np.testing.assert_allclose(
                numkit.banded_matvec((diag, off), x[:m]),
                dense[:m, :m] @ x[:m],
                rtol=0,
                atol=1e-14,
            )


def reference_gram_schmidt(rows, vec):
    """Twice-applied per-row (modified) Gram-Schmidt loop, the form the
    projection had before it became one BLAS product a pass."""
    for _ in range(2):
        for row in rows:
            vec = vec - float(row @ vec) * row
    return vec


class TestProjectOut:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(17)
        n, k = 60, 25
        rows = np.linalg.qr(rng.normal(size=(n, k)))[0].T
        vec = rng.normal(size=n)
        got = numkit.project_out(rows, vec)
        ref = reference_gram_schmidt(rows, vec)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(vec))
        assert np.max(np.abs(rows @ got)) <= 1e-14 * np.linalg.norm(vec)

    def test_empty_basis_keeps_vector(self):
        vec = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(numkit.project_out(np.zeros((0, 3)), vec), vec)


class TestSymEigen:
    def test_diagonal(self):
        vals, vecs = numkit.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_swap_matrix(self):
        vals, vecs = numkit.sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vecs), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)

    def test_free_jacobi_200(self):
        n = 200
        vals, _ = numkit.sym_eigen(free_jacobi(n))
        k = np.arange(1, n + 1)
        expected = np.sort(2.0 * np.cos(k * np.pi / (n + 1)))
        np.testing.assert_allclose(vals, expected, atol=1e-9)
        assert np.all(vals > -2.0) and np.all(vals < 2.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            numkit.sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            numkit.sym_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize("routine", [numkit.sym_eigen, numkit.lower_cholesky_like])
    def test_rejects_nan(self, routine):
        # eigh returned [nan nan] and potrf a NaN factor, with no error
        with pytest.raises(NotSymmetricError, match=r"^matrix is not symmetric: "
                           r"max \|M - M\^T\| nan exceeds 1\.000e-12$"):
            routine(np.array([[2.0, np.nan], [np.nan, 2.0]]))

    def test_contracts_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 16))
            mat = rng.normal(size=(n, n))
            mat = (mat + mat.T) / 2.0
            vals, vecs = numkit.sym_eigen(mat)
            scale = max(np.linalg.norm(mat), 1.0)
            assert np.linalg.norm(mat @ vecs - vecs @ np.diag(vals)) <= 1e-9 * scale
            assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-10
            assert np.all(np.diff(vals) >= -1e-14)


def reference_cholesky(mat: np.ndarray) -> np.ndarray:
    """Column-by-column Cholesky in Python, with the same pivot guard."""
    n = mat.shape[0]
    g = np.zeros((n, n))
    guard = 1e-14 * max(1.0, float(np.max(np.abs(mat))))
    for j in range(n):
        d = mat[j, j] - g[j, :j] @ g[j, :j]
        if d <= guard:
            raise NotPositiveDefiniteError(j, float(d))
        g[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            g[i, j] = (mat[i, j] - g[i, :j] @ g[j, :j]) / g[j, j]
    return g


def random_spd(rng, n: int) -> np.ndarray:
    """Symmetric positive definite, with eigenvalues in [1, 1 + ~4]."""
    r = rng.normal(size=(n, n))
    return r @ r.T / n + np.eye(n)


class TestLowerCholeskyLike:
    def test_matches_column_loop(self):
        rng = np.random.default_rng(23)
        for n in range(1, 18):
            for _ in range(5):
                mat = random_spd(rng, n)
                ref = reference_cholesky(mat)
                g = numkit.lower_cholesky_like(mat)
                assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("pivot", [-1.0, 0.0])
    def test_failing_minor_matches_column_loop(self, pivot):
        # shift one diagonal entry so that the pivot of minor k becomes
        # ``pivot`` while every smaller leading minor stays positive
        rng = np.random.default_rng(29)
        for n in range(1, 18):
            spd = random_spd(rng, n)
            low = reference_cholesky(spd)
            for k in range(n):
                mat = spd.copy()
                mat[k, k] -= low[k, k] ** 2 - pivot
                with pytest.raises(NotPositiveDefiniteError) as ref:
                    reference_cholesky(mat)
                with pytest.raises(NotPositiveDefiniteError) as got:
                    numkit.lower_cholesky_like(mat)
                assert got.value.minor_index == ref.value.minor_index == k
                assert abs(got.value.pivot_value - ref.value.pivot_value) < 1e-13

    def test_diagonal(self):
        g = numkit.lower_cholesky_like(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(g, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reports_failing_minor(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            numkit.lower_cholesky_like(mat)
        assert exc.value.minor_index == 1

    def test_negative_corner(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            numkit.lower_cholesky_like(np.diag([-1.0, 1.0]))
        assert exc.value.minor_index == 0

    def test_residual_refused(self, monkeypatch):
        # a factor off by 1e-6 in scale misses the 1e-10 residual bound
        import scipy.linalg.lapack

        dpotrf = scipy.linalg.lapack.dpotrf

        def scaled(mat, **kwargs):
            g, info = dpotrf(mat, **kwargs)
            return g * (1.0 + 1e-6), info

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", scaled)
        message = r"^cholesky residual 1\.970e-05 exceeds 9\.849e-10$"
        with pytest.raises(NumericalError, match=message):
            numkit.lower_cholesky_like(np.diag([4.0, 9.0]))

    def test_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            r = rng.normal(size=(n, n))
            mat = r @ r.T + 0.5 * np.eye(n)
            g = numkit.lower_cholesky_like(mat)
            assert np.allclose(np.triu(g, 1), 0.0)
            assert np.all(np.diag(g) > 0.0)
            assert np.linalg.norm(g @ g.T - mat) <= 1e-10 * np.linalg.norm(mat)


class TestBisectRoot:
    def test_sqrt_two(self):
        x = numkit.bisect_root(lambda t: t * t - 2.0, 1.0, 2.0)
        assert abs(x - np.sqrt(2.0)) < 1e-12

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            numkit.bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_nan_end_value_is_no_sign_change(self):
        # f(lo) * f(hi) <= 0 fails for nan, at either end
        f = lambda t: np.where(np.abs(t) > 0.9, np.nan, t)
        for lo, hi in ((-1.0, 0.5), (-0.5, 1.0)):
            with pytest.raises(NoSignChangeError, match="nan"):
                numkit.bisect_root(f, lo, hi)

    @pytest.mark.parametrize("lo, hi, shown", [
        (1.0, 0.5, "[1.0, 0.5]"), (1.0, 1.0, "[1.0, 1.0]"),
        (np.nan, 1.0, "[nan, 1.0]"), (0.0, np.inf, "[0.0, inf]"),
    ])
    def test_invalid_bracket_is_named(self, lo, hi, shown):
        with pytest.raises(ValidationError, match=f"^invalid bracket {re.escape(shown)}$"):
            numkit.bisect_root(lambda t: t, [-1.0, lo], [1.0, hi])

    def test_root_at_endpoint(self):
        assert numkit.bisect_root(lambda t: t, 0.0, 1.0) == 0.0

    def test_random_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            root = rng.uniform(-5.0, 5.0)
            slope = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            x = numkit.bisect_root(lambda t: slope * (t - root), root - 1.0, root + 2.0)
            assert abs(x - root) <= 1e-12 * max(1.0, abs(root))

    def test_array_brackets_with_exact_roots(self):
        # roots of t^3 - t at -1, 0 and 1: an interior root, a root at lo, a
        # root at hi, and one the first midpoint hits exactly
        f = lambda t: t**3 - t
        lo = np.array([[-1.5, 0.0], [0.7, -0.5]])
        hi = np.array([[-0.5, 0.5], [1.0, 0.5]])
        x = numkit.bisect_root(f, lo, hi)
        assert x.shape == (2, 2)
        assert abs(x[0, 0] + 1.0) <= 1e-13
        assert x[0, 1] == 0.0 and x[1, 0] == 1.0 and x[1, 1] == 0.0
        assert isinstance(numkit.bisect_root(f, -1.5, -0.5), float)

    def test_array_bracket_without_sign_change_is_named(self):
        with pytest.raises(NoSignChangeError, match=r"^f\(2\.0\) = 3\.000e\+00 and f\(3\.0\)"):
            numkit.bisect_root(lambda t: t * t - 1.0, [0.5, 2.0, -3.0], [1.5, 3.0, 0.0])

    def test_each_bracket_stops_at_its_own_width(self):
        # widths from 1e-6 to 1e6 at roots from 1e-3 to 1e5: every bracket
        # ends where it ends alone, within 1e-13 * max(1, |root|)
        roots = np.array([1e-3, 0.7, -40.0, 1e5])
        slopes = np.array([2.0, -0.5, 3.0, -1.0])
        lo = roots - np.array([1e-6, 0.3, 20.0, 4e5])
        hi = roots + np.array([2e-6, 0.9, 70.0, 6e5])
        x = numkit.bisect_root(lambda t: slopes * (t - roots), lo, hi)
        alone = [
            numkit.bisect_root(lambda t, k=k: slopes[k] * (t - roots[k]), lo[k], hi[k])
            for k in range(roots.size)
        ]
        assert np.array_equal(x, alone)
        assert np.all(np.abs(x - roots) <= 1e-13 * np.maximum(1.0, np.abs(roots)))


def traced(bisect, f, lo, hi):
    """The root's bytes, or the refusal, and the bytes of every point ``f``
    was called at."""
    points = []
    try:
        root = np.asarray(bisect(lambda x: points.append(x.copy()) or f(x), lo, hi)).tobytes()
    except GmpflowError as exc:
        root = (type(exc), str(exc))
    return root, [x.tobytes() for x in points]


def assert_as_plain(f, lo, hi):
    got, want = traced(numkit.bisect_root, f, lo, hi), traced(plain_bisect_root, f, lo, hi)
    assert len(got[1]) == len(want[1])
    assert got == want


@pytest.fixture
def caller_brackets(monkeypatch):
    """Every (f, lo, hi) the package hands ``numkit.bisect_root``, collected
    while the test runs its callers; ``done()`` restores the function."""
    seen, bisect = [], numkit.bisect_root
    monkeypatch.setattr(numkit, "bisect_root",
                        lambda f, lo, hi: seen.append((f, lo, hi)) or bisect(f, lo, hi))

    def done():
        monkeypatch.undo()
        return seen
    return done


class TestBisectRootSkipsWidthTests:
    """``bisect_root`` skips its width test on the halvings where no bracket
    can meet it; ``oracles.plain_bisect_root`` tests it at every halving.
    Both give the same roots, bit for bit, from the same points of ``f``."""

    @pytest.mark.parametrize("g", range(1, 17))
    def test_gap_sets(self, g, caller_brackets):
        # the comb map's poles: wide gaps and one 1e-4 gap, scaled by
        # 2^-20, 1 and 2^20, each also shifted by 10
        rng = np.random.default_rng([56, g])
        for narrow in (None, int(rng.integers(g))):
            b0, a0, gaps = _workloads().random_gapset(rng, g, narrow)
            for scale in (2.0**-20, 1.0, 2.0**20):
                for shift in (0.0, 10.0):
                    move = lambda x: scale * x + shift
                    moved = [tuple(map(move, ab)) for ab in gaps]
                    with contextlib.suppress(GmpflowError):
                        finitegap.gap_zeros(finitegap.GapSet(move(b0), move(a0), moved))
        seen = caller_brackets()
        assert len(seen) == 12
        for f, lo, hi in seen:
            assert_as_plain(f, lo, hi)

    @pytest.mark.parametrize("c, lam", [
        ([0.0, 3.0], [1.0, 1.0]), ([-2.0, 0.5, 2.5], [0.3, 1.7, 0.9]),
    ])
    def test_density_identity_brackets(self, c, lam, caller_brackets):
        for y in [s * 10.0**k for k in range(-310, 301, 10) for s in (1.0, -1.0)]:
            with contextlib.suppress(GmpflowError):
                ks.density_identity(c, lam, y)
        seen = caller_brackets()
        assert len(seen) == 92  # 1e-300 ... 1e150, either sign
        for f, lo, hi in seen:
            assert_as_plain(f, lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        pytest.param(-1.0, 3.0, id="second-midpoint-is-a-root"),
        pytest.param([0.0, -1.0, -2.0, -0.75], [1.0, 0.0, 3.0, 0.5], id="hit-at-lo-and-at-hi"),
        pytest.param([0.0, -1.0], [1.0, 0.0], id="every-bracket-hit"),
        pytest.param(np.zeros(0), np.zeros(0), id="no-brackets"),
    ])
    def test_exact_zeros(self, lo, hi):
        # f(x) = x: an exact zero inside the skipped halvings hands its
        # bracket to the tested ones, frozen, as they would have frozen it
        assert_as_plain(lambda x: x, lo, hi)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_width_rule_met_exactly(self, k):
        # a bracket 2^k rule widths wide below |x| = 1: halving k meets the
        # rule exactly, and only the test before halving k + 1 may stop it
        w = 2.0**k * numkit.BISECT_REL_WIDTH
        assert_as_plain(lambda x: x - 0.3 * w, 0.0, w)
        assert_as_plain(lambda x: x - 0.3 * w, [0.0, -2.0], [w, 5.0])

    def test_nan_inside_a_bracket(self):
        # nan values move hi to the midpoint, as in the tested loop
        f = lambda x: np.where((x > 0.45) & (x < 0.8), np.nan, x - 0.7)
        assert_as_plain(f, [0.0, 0.3, -1.0], [1.0, 0.9, 0.85])

    @pytest.mark.parametrize("lo, hi, root, calls", [
        pytest.param(-5e299, 5e299, 1.0, 202, id="1e300-wide-to-the-200-halving-cap"),
        pytest.param(-1e308, 1e308, 1e300, 73, id="width-overflows"),
        pytest.param(9e307, 1.7e308, 1e308, 2, id="midpoint-overflows"),
    ])
    def test_huge_brackets(self, lo, hi, root, calls):
        with np.errstate(over="ignore"):
            assert_as_plain(lambda x: x - root, lo, hi)
            assert len(traced(numkit.bisect_root, lambda x: x - root, lo, hi)[1]) == calls
