import numpy as np
import pytest

from gmpflow import numkit
from gmpflow.errors import (
    NoSignChangeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
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

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numkit.solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_nonfinite(self):
        mat = np.eye(2)
        mat[0, 1] = np.nan
        with pytest.raises(ValueError):
            numkit.solve(mat, np.ones(2))

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

    def test_root_at_endpoint(self):
        assert numkit.bisect_root(lambda t: t, 0.0, 1.0) == 0.0

    def test_random_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            root = rng.uniform(-5.0, 5.0)
            slope = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            x = numkit.bisect_root(lambda t: slope * (t - root), root - 1.0, root + 2.0)
            assert abs(x - root) <= 1e-12 * max(1.0, abs(root))
