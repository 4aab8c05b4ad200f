import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmpflow import numkit
from gmpflow.errors import (
    NumericalError,
    PoleEvaluationError,
    SingularMatrixError,
    ValidationError,
    WindowError,
)
from gmpflow.gmp import (
    JMAT,
    GmpBlock,
    GmpWindow,
    TransferEval,
    assemble_dense,
    bp_factor,
    bp_factor_inf,
    build_block_B,
    factor_chain,
    lambda_k,
    lambda_sharp,
    pattern_defect,
    residue_product,
    resolvent_column,
    transfer_matrix,
    transfer_via_resolvent,
    validate_gmp,
)

from conftest import make_p1_block, make_p1_window


def random_block(rng: np.random.Generator, g: int) -> GmpBlock:
    p = rng.uniform(-1.0, 1.0, size=g + 1)
    p[g] = rng.uniform(0.3, 1.5)
    q = rng.uniform(-1.0, 1.0, size=g + 1)
    return GmpBlock(p, q)


def near_p1_block(rng: np.random.Generator, eps: float = 0.1) -> GmpBlock:
    base = make_p1_block()
    return GmpBlock(
        base.p + rng.uniform(-eps, eps, size=2),
        base.q + rng.uniform(-eps, eps, size=2),
    )


class TestGmpBlock:
    def test_accessors(self, p1_block):
        assert p1_block.g == 1
        assert_allclose(p1_block.pm(0), [np.sqrt(2.0), 0.0])
        assert_allclose(p1_block.pm(1), [0.5, 0.0])

    def test_rejects_nonpositive_last_p(self):
        with pytest.raises(ValidationError):
            GmpBlock(np.array([1.0, -0.5]), np.zeros(2))
        with pytest.raises(ValidationError):
            GmpBlock(np.array([1.0, 0.0]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            GmpBlock(np.array([1.0, 0.5]), np.zeros(3))

    def test_arrays_read_only(self, p1_block):
        with pytest.raises(ValueError):
            p1_block.p[0] = 7.0


class TestGmpWindow:
    def test_indexing(self, p1_window):
        assert p1_window.g == 1
        assert p1_window.j_min == -2 and p1_window.j_max == 2
        assert list(p1_window.interior_js()) == [-1, 0, 1]
        assert p1_window.scalar_index(0, 0) == 4
        assert p1_window.scalar_index(-2, 1) == 1
        with pytest.raises(WindowError):
            p1_window.block(3)

    def test_rejects_mismatched_blocks(self, p1_block):
        other = GmpBlock(np.array([0.1, 0.2, 1.0]), np.zeros(3))
        with pytest.raises(ValidationError):
            GmpWindow((p1_block, other), np.array([0.0]))
        with pytest.raises(ValidationError):
            GmpWindow((p1_block, p1_block), np.array([0.0, 1.0]))

    def test_from_arrays_checks_every_row(self):
        p = np.tile([np.sqrt(2.0), 0.5], (4, 1))
        q = np.zeros((4, 2))
        window = GmpWindow.from_arrays(p, q, (0.0,), j_min=-1)
        assert window.n_blocks == 4 and window.j_max == 2
        assert p.flags.writeable and not window.P.flags.writeable
        assert np.shares_memory(window.block(1).p, window.P)
        bad = p.copy()
        bad[2, 0] = np.inf
        with pytest.raises(ValidationError, match="block entries must be finite"):
            GmpWindow.from_arrays(bad, q, (0.0,))
        bad = p.copy()
        bad[3, -1] = -0.5
        with pytest.raises(ValidationError, match="last p entry must be positive"):
            GmpWindow.from_arrays(bad, q, (0.0,))
        with pytest.raises(ValidationError, match="at least one block"):
            GmpWindow.from_arrays(np.zeros((0, 2)), np.zeros((0, 2)), (0.0,))

    def test_json_round_trip(self, p1_window):
        data = p1_window.to_json()
        assert set(data) == {"g", "C", "j_min", "blocks"}
        back = GmpWindow.from_json(data)
        assert back.j_min == p1_window.j_min
        assert_allclose(back.c, p1_window.c)
        for a, b in zip(back.blocks, p1_window.blocks):
            assert_allclose(a.p, b.p)
            assert_allclose(a.q, b.q)


class TestBuildBlockB:
    def test_p1_block_is_zero(self, p1_block):
        assert_allclose(
            build_block_B(p1_block, np.array([0.0])), np.zeros((2, 2))
        )

    def test_flowed_block(self):
        blk = GmpBlock(
            np.array([0.0, 0.5]), np.array([-2.0 * np.sqrt(2.0), 0.0])
        )
        expected = np.array(
            [[0.0, -np.sqrt(2.0)], [-np.sqrt(2.0), 0.0]]
        )
        assert_allclose(build_block_B(blk, np.array([0.0])), expected)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = int(rng.integers(1, 5))
            blk = random_block(rng, g)
            c = np.sort(rng.uniform(-2, 2, size=g))
            mat = build_block_B(blk, c)
            assert np.array_equal(mat, mat.T)

    def test_structure(self):
        blk = GmpBlock(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        c = np.array([-1.0, 1.0])
        mat = build_block_B(blk, c)
        pq = np.outer(blk.p, blk.q)
        qp = np.outer(blk.q, blk.p)
        assert_allclose(np.triu(mat, 1), np.triu(qp, 1))
        assert_allclose(
            np.tril(mat), np.tril(pq) + np.diag(np.append(c, 0.0))
        )


class TestAssembleDense:
    def test_p1_pattern(self, p1_window):
        mat = assemble_dense(p1_window)
        expected = np.zeros_like(mat)
        for j in range(p1_window.n_blocks - 1):
            expected[2 * j + 1, 2 * j + 2] = np.sqrt(2.0)
            expected[2 * j + 1, 2 * j + 3] = 0.5
            expected[2 * j + 2, 2 * j + 1] = np.sqrt(2.0)
            expected[2 * j + 3, 2 * j + 1] = 0.5
        assert_allclose(mat, expected)

    def test_two_block_case(self):
        win = make_p1_window(n_blocks=2, j_min=0)
        mat = assemble_dense(win)
        assert mat.shape == (4, 4)
        assert_allclose(mat[1, 2], np.sqrt(2.0))
        assert_allclose(mat[1, 3], 0.5)
        assert np.count_nonzero(mat) == 4

    def test_banded_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = int(rng.integers(1, 4))
            blocks = tuple(random_block(rng, g) for _ in range(4))
            c = np.sort(rng.uniform(-2, 2, size=g))
            mat = assemble_dense(GmpWindow(blocks, c))
            assert np.array_equal(mat, mat.T)
            n = mat.shape[0]
            for i in range(n):
                for j in range(n):
                    if abs(i - j) > g + 1:
                        assert mat[i, j] == 0.0


class TestPatternDefect:
    @staticmethod
    def allowed(n, per, coupling):
        mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                bi, si = divmod(i, per)
                bj, sj = divmod(j, per)
                if bi == bj:
                    mask[i, j] = True
                elif bj == bi + 1:
                    mask[i, j] = mask[j, i] = coupling[si, sj]
        return mask

    @pytest.mark.parametrize("side", ["one", "two"])
    def test_planted_entry_found(self, side):
        g, per, n = 2, 3, 12
        coupling = np.zeros((per, per), dtype=bool)
        if side == "one":
            coupling[:, 0] = True
        else:
            coupling[g, :] = True
        mask = self.allowed(n, per, coupling)
        rng = np.random.default_rng(2)
        base = rng.uniform(-1.0, 1.0, (n, n))
        base = (base + base.T) * mask
        assert pattern_defect(base, coupling) == 0.0
        outside = [(i, j) for i in range(n) for j in range(i + 1, n) if not mask[i, j]]
        assert outside
        for i, j in outside:
            planted = base.copy()
            planted[i, j] = planted[j, i] = -0.7
            assert pattern_defect(planted, coupling) == 0.7


class TestFactorChain:
    def test_chain_and_residue_product_assemble_the_functionals(self):
        rng = np.random.default_rng(8)
        g = 3
        blk, nxt = random_block(rng, g), random_block(rng, g)
        c = np.sort(rng.uniform(-2, 2, size=g))
        z = 3.1
        assert np.array_equal(factor_chain(JMAT, z, c, blk, 2, 2), JMAT)
        chain = factor_chain(np.eye(2), z, c, blk, 0, g)
        assert_allclose(
            chain @ bp_factor_inf(z, blk.pm(g)), transfer_matrix(blk, c, z).value
        )
        for k in range(1, g + 1):
            mat = residue_product(nxt, blk, c, k) @ bp_factor_inf(c[k - 1], blk.pm(g))
            assert -np.trace(mat) == lambda_sharp(nxt, blk, c, k)


class TestBpFactor:
    def test_zero_vector_is_identity(self):
        assert_allclose(bp_factor(1.3, 0.2, np.zeros(2)), np.eye(2))

    def test_worked_value(self):
        got = bp_factor(1.0, 0.0, np.array([np.sqrt(2.0), 0.0]))
        assert_allclose(got, [[1.0, -2.0], [0.0, 1.0]], atol=1e-15)

    def test_determinant_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            pm = rng.uniform(-1.5, 1.5, size=2)
            c = rng.uniform(-2.0, 2.0)
            z = c + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
            mat = bp_factor(z, c, pm)
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            assert abs(det - 1.0) <= 1e-13

    def test_pole_rejected(self):
        with pytest.raises(PoleEvaluationError):
            bp_factor(0.5, 0.5, np.array([1.0, 0.0]))


class TestBpFactorInf:
    def test_unit_p_is_symplectic_unit(self):
        assert_allclose(bp_factor_inf(0.0, np.array([1.0, 0.0])), JMAT)

    def test_worked_value(self):
        for z in (0.0, 1.0, -2.5):
            got = bp_factor_inf(z, np.array([0.5, 0.0]))
            assert_allclose(got, [[0.0, -0.5], [2.0, 2.0 * z]])

    def test_determinant_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            pm = np.array([rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)])
            z = rng.uniform(-3.0, 3.0)
            mat = bp_factor_inf(z, pm)
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            assert abs(det - 1.0) <= 1e-13

    def test_zero_p_rejected(self):
        with pytest.raises(ValidationError):
            bp_factor_inf(1.0, np.array([0.0, 1.0]))


class TestTransferMatrix:
    def test_worked_product(self, p1_block):
        ev = transfer_matrix(p1_block, np.array([0.0]), 1.0)
        assert_allclose(ev.value, [[-4.0, -4.5], [2.0, 2.0]], atol=1e-14)
        assert_allclose(ev.trace, -2.0, atol=1e-14)

    def test_trace_matches_comb_map(self, p1_block):
        for z in (1.5, 3.0, -3.0):
            ev = transfer_matrix(p1_block, np.array([0.0]), z)
            assert_allclose(ev.trace, 2.0 * z - 4.0 / z, rtol=1e-13)

    def test_zero_interior_vectors(self):
        blk = GmpBlock(
            np.array([0.0, 0.0, 0.8]), np.array([0.0, 0.0, -0.3])
        )
        c = np.array([-1.0, 1.0])
        ev = transfer_matrix(blk, c, 0.4)
        assert_allclose(ev.value, bp_factor_inf(0.4, blk.pm(2)))

    def test_unit_determinant_enforced(self):
        with pytest.raises(NumericalError):
            TransferEval(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestTransferViaResolvent:
    def test_worked_value(self, p1_block):
        ev = transfer_via_resolvent(p1_block, np.array([0.0]), 1.0)
        assert_allclose(ev.value, [[-4.0, -4.5], [2.0, 2.0]], atol=1e-12)

    def test_agreement_with_product(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            g = int(rng.integers(1, 4))
            blk = random_block(rng, g)
            c = np.sort(rng.uniform(-2.0, 2.0, size=g))
            z = rng.uniform(2.5, 6.0)
            try:
                via = transfer_via_resolvent(blk, c, z)
            except (SingularMatrixError, NumericalError):
                continue
            direct = transfer_matrix(blk, c, z)
            assert_allclose(via.value, direct.value, rtol=1e-9, atol=1e-9)
            count += 1

    def test_singular_shift_rejected(self, p1_block):
        with pytest.raises(SingularMatrixError):
            transfer_via_resolvent(p1_block, np.array([0.0]), 0.0)


class TestLambdaK:
    def test_canonical_value(self, p1_block):
        assert_allclose(lambda_k(p1_block, np.array([0.0]), 1), 4.0, atol=1e-14)

    def test_symbolic_family(self):
        c = np.array([0.0])
        for p0 in (-0.7, 0.3, 1.1):
            for q0 in (-1.2, 0.0, 0.8):
                blk = GmpBlock(
                    np.array([p0, 0.5]), np.array([q0, -2.0 * p0 * q0])
                )
                expected = (
                    2.0 * p0**2 + q0**2 / 2.0 + 2.0 * p0**2 * q0**2
                )
                assert_allclose(lambda_k(blk, c, 1), expected, atol=1e-13)

    def test_zero_interior_vector_reduction(self):
        blk = GmpBlock(np.array([0.9, 0.0, 0.7]), np.array([0.4, 0.0, -0.2]))
        c = np.array([-0.5, 1.0])
        middle = np.outer(blk.pm(0), blk.pm(0)) @ JMAT
        expected = -np.trace(middle @ bp_factor_inf(c[0], blk.pm(2)))
        assert_allclose(lambda_k(blk, c, 1), expected, atol=1e-14)

    def test_residue_extrapolation(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = int(rng.integers(1, 4))
            blk = random_block(rng, g)
            c = np.sort(rng.uniform(-2.0, 2.0, size=g))
            if g > 1 and np.min(np.diff(c)) < 0.5:
                continue
            k = int(rng.integers(1, g + 1))
            h = 1e-3
            vals = []
            for step in (h, h / 2.0, h / 4.0):
                z = c[k - 1] + step
                mat = np.eye(2)
                for m in range(g):
                    mat = mat @ bp_factor(z, c[m], blk.pm(m))
                mat = mat @ bp_factor_inf(z, blk.pm(g))
                vals.append(-(z - c[k - 1]) * np.trace(mat))
            first = [2.0 * vals[1] - vals[0], 2.0 * vals[2] - vals[1]]
            extrapolated = (4.0 * first[1] - first[0]) / 3.0
            assert_allclose(
                extrapolated, lambda_k(blk, c, k), rtol=1e-7, atol=1e-7
            )


class TestLambdaSharp:
    def test_equal_blocks_reduce(self, p1_block):
        c = np.array([0.0])
        assert_allclose(
            lambda_sharp(p1_block, p1_block, c, 1),
            lambda_k(p1_block, c, 1),
            atol=1e-15,
        )

    def test_continuity_under_perturbation(self, p1_block):
        c = np.array([0.0])
        bumped = GmpBlock(p1_block.p + np.array([1e-3, 0.0]), p1_block.q)
        val = lambda_sharp(bumped, p1_block, c, 1)
        assert abs(val - 4.0) < 5e-3

    def test_positive_near_canonical_torus(self):
        rng = np.random.default_rng(17)
        c = np.array([0.0])
        for _ in range(200):
            this = near_p1_block(rng)
            nxt = near_p1_block(rng)
            assert lambda_sharp(nxt, this, c, 1) > 0.0


class TestValidateGmp:
    def test_canonical_window_valid(self, p1_window):
        report = validate_gmp(p1_window)
        assert report["valid"]
        assert report["message"] == "ok"
        assert_allclose(report["min_per_k"][1], 4.0, atol=1e-14)

    def test_degenerate_pair_flagged(self, p1_block):
        startled = GmpBlock(
            np.array([0.0, 0.5]), np.array([1.0, 0.0])
        )
        win = GmpWindow((p1_block, startled), np.array([0.0]), j_min=0)
        report = validate_gmp(win)
        assert not report["valid"]
        assert "k=1" in report["message"]

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_functional_is_invalid(self):
        huge = GmpBlock([1e160, 1.0], [1e160, -0.5])
        report = validate_gmp(GmpWindow([huge] * 9, (0.0,), j_min=-4))
        assert not report["valid"]
        assert np.isnan(report["min_per_k"][1])
        assert report["message"] == "pair functional at k=1 is not finite (block -4)"

    @pytest.mark.parametrize("g", range(1, 9))
    def test_stacked_minima_match_pair_loop(self, g):
        rng = np.random.default_rng(40 + g)
        window = GmpWindow(
            [random_block(rng, g) for _ in range(33)],
            np.sort(rng.uniform(-2.0, 2.0, g)),
            j_min=-16,
        )
        report = validate_gmp(window)
        for k in range(1, g + 1):
            vals = [
                lambda_sharp(window.blocks[i + 1], window.blocks[i], window.c, k)
                for i in range(window.n_blocks - 1)
            ]
            i_min = int(np.argmin(vals))
            assert report["min_per_k"][k] == vals[i_min]
            assert report["argmin_j"][k] == window.j_min + i_min

    def test_insufficient_window(self, p1_block):
        win = GmpWindow((p1_block,), np.array([0.0]))
        report = validate_gmp(win)
        assert not report["valid"]
        assert "insufficient" in report["message"]


class TestResolventColumn:
    def test_canonical_column(self, p1_window):
        col = resolvent_column(p1_window, 1)
        g1 = 2
        lo = p1_window.scalar_index(-1, 0)
        assert_allclose(col[lo], 0.25, atol=1e-12)
        assert_allclose(col[lo + 1], -np.sqrt(2.0) / 2.0, atol=1e-12)
        assert_allclose(col[lo + g1 : lo + 2 * g1], [0.0, 0.0], atol=1e-12)
        assert_allclose(col[lo + 2 * g1], 0.25, atol=1e-12)
        assert_allclose(col[lo + 2 * g1 + 1], 0.0, atol=1e-12)

    def test_support_pattern(self, p1_window):
        col = resolvent_column(p1_window, 1)
        lo = p1_window.scalar_index(-1, 0)
        hi = p1_window.scalar_index(1, 1)
        assert_allclose(col[:lo], 0.0, atol=1e-15)
        assert_allclose(col[hi + 1 :], 0.0, atol=1e-15)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(29)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(40))
        win = GmpWindow(blocks, np.array([0.0]), j_min=-20)
        col = resolvent_column(win, 1)
        dense = assemble_dense(win)
        n = dense.shape[0]
        target = np.zeros(n)
        target[win.scalar_index(0, 0)] = 1.0
        direct = numkit.solve(-dense, target)
        assert np.max(np.abs(col - direct)) < 1e-9

    def test_residual_on_perturbed_window(self):
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = GmpWindow(blocks, np.array([0.0]), j_min=-3)
        col = resolvent_column(win, 1)
        dense = assemble_dense(win)
        n = dense.shape[0]
        target = np.zeros(n)
        target[win.scalar_index(0, 0)] = 1.0
        residual = (0.0 * np.eye(n) - dense) @ col - target
        assert np.max(np.abs(residual)) < 1e-10

    def test_two_gap_column(self):
        rng = np.random.default_rng(23)
        c = np.array([-0.9, 1.1])
        base_p = np.array([0.9, 0.4, 0.8])
        base_q = np.array([0.1, -0.3, 0.2])
        blocks = tuple(
            GmpBlock(
                base_p + rng.uniform(-0.03, 0.03, 3),
                base_q + rng.uniform(-0.03, 0.03, 3),
            )
            for _ in range(6)
        )
        win = GmpWindow(blocks, c, j_min=-3)
        dense = assemble_dense(win)
        n = dense.shape[0]
        for k in (1, 2):
            col = resolvent_column(win, k)
            target = np.zeros(n)
            target[win.scalar_index(0, k - 1)] = 1.0
            residual = (win.c[k - 1] * np.eye(n) - dense) @ col - target
            assert np.max(np.abs(residual)) < 1e-10

    def test_window_must_cover_center(self):
        win = make_p1_window(n_blocks=3, j_min=0)
        with pytest.raises(WindowError):
            resolvent_column(win, 1)
