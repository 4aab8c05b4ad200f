import warnings

import mpmath
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
from gmpflow.finitegap import GapSet, delta_from_gaps
from gmpflow.gmp import (
    JMAT,
    GmpBlock,
    GmpWindow,
    TransferEval,
    assemble_dense,
    bp_factor,
    bp_factor_inf,
    build_block_B,
    lambda_k,
    lambda_sharp,
    pattern_defect,
    resolvent_column,
    transfer_matrix,
    transfer_via_resolvent,
    validate_gmp,
)

from conftest import make_p1_block, make_p1_window, stack_window


def random_block(rng: np.random.Generator, g: int) -> GmpBlock:
    p = rng.uniform(-1.0, 1.0, size=g + 1)
    p[g] = rng.uniform(0.3, 1.5)
    q = rng.uniform(-1.0, 1.0, size=g + 1)
    return GmpBlock(p, q)


def comb_pair(g: int, seed: int):
    """Poles of the comb map of a random genus-g gap set in [-3, 3], drawn
    as perfbench's ``random_gapset`` draws them, and two blocks near its
    surface block ``p = (sqrt(lambda_k / lambda0)..., 1 / lambda0)``,
    ``q = (0..., -c0)``."""
    rng = np.random.default_rng([seed, g])
    seg = rng.uniform(0.5, 1.5, 2 * g + 1)
    edges = -3.0 + np.concatenate([[0.0], np.cumsum(6.0 * seg / seg.sum())])
    d = delta_from_gaps(GapSet(-3.0, 3.0, tuple(zip(edges[1:-1:2], edges[2:-1:2]))))
    p0 = np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0)
    q0 = np.append(np.zeros(g), -d.c0)
    u = rng.uniform(-1.0, 1.0, (2, 2, g + 1))
    nxt, this = (GmpBlock(p0 * (1.0 + 0.05 * du), q0 + 0.05 * dv) for du, dv in u)
    return d.cs(), nxt, this


def per_pole_loop(nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray, k: int) -> float:
    """The pair functional at pole k as one chain of 2x2 products, the
    form the stacked kernel replaced: the reference for it."""
    g, ck = thisblk.g, c[k - 1]
    mat = np.eye(2)
    for m in range(k - 1):
        mat = mat @ bp_factor(ck, c[m], nextblk.pm(m))
    mat = mat @ (np.outer(nextblk.pm(k - 1), thisblk.pm(k - 1)) @ JMAT)
    for m in range(k, g):
        mat = mat @ bp_factor(ck, c[m], thisblk.pm(m))
    return float(-np.trace(mat @ bp_factor_inf(ck, thisblk.pm(g))))


def mp_lambda_sharp(nextblk: GmpBlock, thisblk: GmpBlock, c: np.ndarray, k: int):
    """The same chain in 50-digit arithmetic."""
    with mpmath.workdps(50):
        g, ck = thisblk.g, mpmath.mpf(c[k - 1])
        jmat = mpmath.matrix([[0, -1], [1, 0]])

        def vec(blk, m):
            return mpmath.matrix([mpmath.mpf(x) for x in blk.pm(m)])

        def factor(blk, m):
            v = vec(blk, m)
            return mpmath.eye(2) - v * v.T * jmat / (mpmath.mpf(c[m]) - ck)

        mat = mpmath.eye(2)
        for m in range(k - 1):
            mat = mat * factor(nextblk, m)
        mat = mat * vec(nextblk, k - 1) * vec(thisblk, k - 1).T * jmat
        for m in range(k, g):
            mat = mat * factor(thisblk, m)
        p, q = mpmath.mpf(thisblk.p[g]), mpmath.mpf(thisblk.q[g])
        mat = mat * mpmath.matrix([[0, -p], [1 / p, (ck - p * q) / p]])
        return -(mat[0, 0] + mat[1, 1])


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
        assert p1_window.scalar_index(0, 0) == 4
        assert p1_window.scalar_index(-2, 1) == 1
        with pytest.raises(WindowError):
            p1_window.block(3)

    def test_rejects_mismatched_blocks(self, p1_block):
        # ragged blocks can only come from JSON: see test_cli's malformed shapes
        with pytest.raises(ValidationError, match="pole list has length 2, expected 1"):
            stack_window((p1_block, p1_block), np.array([0.0, 1.0]))
        P = np.tile([0.5, 0.5, 1.0], (15, 1))
        with pytest.raises(ValidationError, match="^poles at 0.0 and 1e-13 coincide$"):
            GmpWindow(P, np.zeros((15, 3)), [0.0, 1e-13], -7)

    def test_every_window_refuses_coincident_poles(self):
        with pytest.raises(ValidationError, match="^poles at 0.0 and 0.0 coincide$"):
            GmpWindow(np.tile([0.5, 0.5, 1.0], (15, 1)), np.zeros((15, 3)), [0.0, 0.0], -7)
        P = np.tile([0.5, 0.5, 0.5, 1.0], (15, 1))
        with pytest.raises(ValidationError, match="^poles at 3.0 and 3.000000000001 coincide$"):
            GmpWindow(P, np.zeros((15, 4)), [3.0, 1.0, 3.0 + 1e-12])
        window = GmpWindow(P, np.zeros((15, 4)), [3.0, 1.0, 3.0 + 1e-11])
        assert window.c.tolist() == [3.0, 1.0, 3.0 + 1e-11]

    def test_from_arrays_checks_every_row(self):
        p = np.tile([np.sqrt(2.0), 0.5], (4, 1))
        q = np.zeros((4, 2))
        window = GmpWindow(p, q, (0.0,), j_min=-1)
        assert window.n_blocks == 4 and window.j_max == 2
        assert p.flags.writeable and not window.P.flags.writeable
        assert np.shares_memory(window.block(1).p, window.P)
        bad = p.copy()
        bad[2, 0] = np.inf
        with pytest.raises(ValidationError, match="block entries must be finite"):
            GmpWindow(bad, q, (0.0,))
        bad = p.copy()
        bad[3, -1] = -0.5
        with pytest.raises(ValidationError, match="last p entry must be positive"):
            GmpWindow(bad, q, (0.0,))
        with pytest.raises(ValidationError, match="at least one block"):
            GmpWindow(np.zeros((0, 2)), np.zeros((0, 2)), (0.0,))
        # a stack of blocks raises the message of its first bad row
        nan_row, low_row = p.copy(), p.copy()
        nan_row[1, 0] = low_row[3, -1] = np.nan
        low_row[1, -1] = nan_row[3, -1] = -0.5
        for P, message in ((nan_row, "^block entries must be finite$"),
                           (low_row, r"^last p entry must be positive, got -0\.5$")):
            for build in (GmpBlock, lambda P, Q: GmpWindow(P, Q, (0.0,))):
                with pytest.raises(ValidationError, match=message):
                    build(P, q)
            with pytest.raises(ValidationError, match=message):
                GmpBlock(P.reshape(2, 2, 2), q.reshape(2, 2, 2))
        stack = GmpBlock(p, q)
        assert stack.g == 1 and stack.p.shape == (4, 2) and not stack.p.flags.writeable

    def test_json_round_trip(self, p1_window):
        data = p1_window.to_json()
        assert set(data) == {"g", "C", "j_min", "blocks"}
        back = GmpWindow.from_json(data)
        assert back.j_min == p1_window.j_min
        assert_allclose(back.c, p1_window.c)
        assert_allclose(back.rows().p, p1_window.rows().p)
        assert_allclose(back.rows().q, p1_window.rows().q)


    @pytest.mark.parametrize("j_min", [-1.5, 2.7, True, float("inf"), "1"])
    def test_json_offset_must_be_integral(self, p1_window, j_min):
        data = dict(p1_window.to_json(), j_min=j_min)
        with pytest.raises(ValidationError) as info:
            GmpWindow.from_json(data)
        assert str(info.value) == (
            f"malformed window data: j_min must be an integer, got {j_min!r}"
        )

    def test_json_offset_may_be_an_integral_float(self, p1_window):
        back = GmpWindow.from_json(dict(p1_window.to_json(), j_min=3.0))
        assert back.j_min == 3 and type(back.j_min) is int


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
            mat = assemble_dense(stack_window(blocks, c))
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

    @pytest.mark.parametrize("first", [0, 3])
    def test_slab_reads_both_sides_of_the_diagonal(self, first):
        # block rows first, first + 1 of a 6-block matrix with lower
        # triangular couplings; each entry is planted alone, unmirrored
        per, n = 3, 18
        coupling = np.tri(per, dtype=bool)
        mask = self.allowed(n, per, coupling)[first * per : (first + 2) * per]
        rng = np.random.default_rng(5)
        base = rng.uniform(-1.0, 1.0, (n, n))
        slab = ((base + base.T) * self.allowed(n, per, coupling))[first * per : (first + 2) * per]
        assert pattern_defect(slab, coupling, first) == 0.0
        sides = set()
        for i, j in zip(*np.nonzero(~mask)):
            planted = slab.copy()
            planted[i, j] = -0.7
            assert pattern_defect(planted, coupling, first) == 0.7
            sides.add(np.sign(j // per - (first + i // per)))
        assert sides == {-1, 1}


class TestStackedChain:
    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_states_are_the_partial_factor_products(self, g):
        rng = np.random.default_rng(8 + g)
        blk, nxt = random_block(rng, g), random_block(rng, g)
        c = np.sort(rng.uniform(-2, 2, size=g))
        states = []
        vals = lambda_sharp(nxt, blk, c, states=states)
        assert len(states) == g
        for k in range(1, g + 1):
            ck = c[k - 1]
            for i, state in enumerate(states):
                # the column with slots g-1-i..k-2 of nxt, the row with
                # slots k..i of blk
                col = nxt.pm(k - 1)
                for m in range(k - 2, g - 2 - i, -1):
                    col = bp_factor(ck, c[m], nxt.pm(m)) @ col
                row = blk.pm(k - 1) @ JMAT
                for m in range(k, i + 1):
                    row = row @ bp_factor(ck, c[m], blk.pm(m))
                assert_allclose(state[:, 0, k - 1, 0], col, rtol=1e-14, atol=1e-14)
                assert_allclose(state[:, 1, k - 1, 0], row, rtol=1e-14, atol=1e-14)
            chain = np.outer(col, row) @ bp_factor_inf(ck, blk.pm(g))
            assert_allclose(-np.trace(chain), vals[k - 1], rtol=1e-14, atol=1e-14)

    def test_coincident_poles_rejected(self):
        rng = np.random.default_rng(3)
        blk = random_block(rng, 3)
        with pytest.raises(PoleEvaluationError, match="at its pole c = 0.5"):
            lambda_k(blk, np.array([-1.0, 0.5, 0.5]))


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
        assert_allclose(np.trace(ev.value), -2.0, atol=1e-14)

    def test_trace_matches_comb_map(self, p1_block):
        for z in (1.5, 3.0, -3.0):
            ev = transfer_matrix(p1_block, np.array([0.0]), z)
            assert_allclose(np.trace(ev.value), 2.0 * z - 4.0 / z, rtol=1e-13)

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
        assert_allclose(lambda_k(p1_block, np.array([0.0]))[..., 0], 4.0, atol=1e-14)

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
                assert_allclose(lambda_k(blk, c)[..., 0], expected, atol=1e-13)

    def test_zero_interior_vector_reduction(self):
        blk = GmpBlock(np.array([0.9, 0.0, 0.7]), np.array([0.4, 0.0, -0.2]))
        c = np.array([-0.5, 1.0])
        middle = np.outer(blk.pm(0), blk.pm(0)) @ JMAT
        expected = -np.trace(middle @ bp_factor_inf(c[0], blk.pm(2)))
        assert_allclose(lambda_k(blk, c)[..., 0], expected, atol=1e-14)

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
                extrapolated, lambda_k(blk, c)[..., k - 1], rtol=1e-7, atol=1e-7
            )


class TestLambdaSharp:
    @pytest.mark.parametrize("g", [1, 2, 4, 8, 12])
    def test_matches_per_pole_loop(self, g):
        for seed in range(3):
            c, nxt, this = comb_pair(g, seed)
            got = lambda_sharp(nxt, this, c)
            assert got.shape == (g,)
            for k in range(1, g + 1):
                ref = per_pole_loop(nxt, this, c, k)
                assert abs(got[k - 1] - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("g", [1, 2, 4, 8, 12, 16])
    def test_matches_mpmath_chain(self, g):
        c, nxt, this = comb_pair(g, 11)
        got = lambda_sharp(nxt, this, c)
        for k in range(1, g + 1):
            ref = mp_lambda_sharp(nxt, this, c, k)
            assert abs(got[k - 1] - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_stack_matches_single_pairs_bitwise(self):
        rng = np.random.default_rng(5)
        g = 4
        window = stack_window(
            [random_block(rng, g) for _ in range(9)], np.sort(rng.uniform(-2, 2, g))
        )
        stacked = lambda_sharp(window.rows(1), window.rows(0, -1), window.c)
        single = [
            lambda_sharp(window.block(j + 1), window.block(j), window.c)
            for j in range(window.n_blocks - 1)
        ]
        assert stacked.shape == (8, g)
        assert np.array_equal(stacked, single)

    def test_equal_blocks_reduce(self, p1_block):
        c = np.array([0.0])
        assert_allclose(
            lambda_sharp(p1_block, p1_block, c)[..., 0],
            lambda_k(p1_block, c)[..., 0],
            atol=1e-15,
        )

    def test_continuity_under_perturbation(self, p1_block):
        c = np.array([0.0])
        bumped = GmpBlock(p1_block.p + np.array([1e-3, 0.0]), p1_block.q)
        val = lambda_sharp(bumped, p1_block, c)[..., 0]
        assert abs(val - 4.0) < 5e-3

    def test_positive_near_canonical_torus(self):
        rng = np.random.default_rng(17)
        c = np.array([0.0])
        for _ in range(200):
            this = near_p1_block(rng)
            nxt = near_p1_block(rng)
            assert lambda_sharp(nxt, this, c)[..., 0] > 0.0


class TestValidateGmp:
    def test_canonical_window_valid(self, p1_window):
        report = validate_gmp(p1_window)
        assert report["valid"]
        assert report["message"] == "ok"
        assert_allclose(report["min_per_k"][0], 4.0, atol=1e-14)

    def test_degenerate_pair_flagged(self, p1_block):
        startled = GmpBlock(
            np.array([0.0, 0.5]), np.array([1.0, 0.0])
        )
        win = stack_window((p1_block, startled), np.array([0.0]), j_min=0)
        report = validate_gmp(win)
        assert not report["valid"]
        assert "k=1" in report["message"]

    def test_non_finite_functional_is_invalid(self):
        huge = GmpBlock([1e160, 1.0], [1e160, -0.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = validate_gmp(stack_window([huge] * 9, (0.0,), j_min=-4))
        assert [str(w.message) for w in caught] == []
        assert not report["valid"]
        assert np.isnan(report["min_per_k"][0])
        assert report["message"] == "pair functional at k=1 is not finite (block -4)"

    @pytest.mark.parametrize("slot, value", [(0, 1e308), (1, 1e-308)])
    def test_infinite_functional_is_invalid(self, slot, value):
        w = make_p1_window(21, -10)
        P = w.P.copy()
        P[0, slot] = value
        report = validate_gmp(GmpWindow(P, w.Q, w.c, w.j_min))
        assert report["min_per_k"].tolist() == [np.inf]
        assert not report["valid"]
        assert report["message"] == "pair functional at k=1 is not finite (block -10)"

    @pytest.mark.parametrize("g", range(1, 9))
    def test_stacked_minima_match_pair_loop(self, g):
        rng = np.random.default_rng(40 + g)
        window = stack_window(
            [random_block(rng, g) for _ in range(33)],
            np.sort(rng.uniform(-2.0, 2.0, g)),
            j_min=-16,
        )
        report = validate_gmp(window)
        for k in range(1, g + 1):
            vals = [
                lambda_sharp(window.block(j + 1), window.block(j), window.c)[..., k - 1]
                for j in range(window.j_min, window.j_max)
            ]
            i_min = int(np.argmin(vals))
            assert report["min_per_k"][k - 1] == vals[i_min]
            assert report["argmin_j"][k - 1] == window.j_min + i_min

    def test_insufficient_window(self, p1_block):
        win = stack_window((p1_block,), np.array([0.0]))
        report = validate_gmp(win)
        assert not report["valid"]
        assert "insufficient" in report["message"]


class TestResolventColumn:
    def test_canonical_column(self, p1_window):
        col = resolvent_column(p1_window, 1, 0)
        g1 = 2
        lo = p1_window.scalar_index(-1, 0)
        assert_allclose(col[lo], 0.25, atol=1e-12)
        assert_allclose(col[lo + 1], -np.sqrt(2.0) / 2.0, atol=1e-12)
        assert_allclose(col[lo + g1 : lo + 2 * g1], [0.0, 0.0], atol=1e-12)
        assert_allclose(col[lo + 2 * g1], 0.25, atol=1e-12)
        assert_allclose(col[lo + 2 * g1 + 1], 0.0, atol=1e-12)

    def test_support_pattern(self, p1_window):
        col = resolvent_column(p1_window, 1, 0)
        lo = p1_window.scalar_index(-1, 0)
        hi = p1_window.scalar_index(1, 1)
        assert_allclose(col[:lo], 0.0, atol=1e-15)
        assert_allclose(col[hi + 1 :], 0.0, atol=1e-15)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(29)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(40))
        win = stack_window(blocks, np.array([0.0]), j_min=-20)
        dense = assemble_dense(win)
        n = dense.shape[0]
        for j in (0, 1, -19, 18):
            target = np.zeros(n)
            target[win.scalar_index(j, 0)] = 1.0
            direct = numkit.solve(-dense, target)
            assert np.max(np.abs(resolvent_column(win, 1, j) - direct)) < 1e-9, j

    def test_residual_on_perturbed_window(self):
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = stack_window(blocks, np.array([0.0]), j_min=-3)
        col = resolvent_column(win, 1, 0)
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
        win = stack_window(blocks, c, j_min=-3)
        dense = assemble_dense(win)
        n = dense.shape[0]
        for k in (1, 2):
            col = resolvent_column(win, k, 0)
            target = np.zeros(n)
            target[win.scalar_index(0, k - 1)] = 1.0
            residual = (win.c[k - 1] * np.eye(n) - dense) @ col - target
            assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("j_min, n_blocks", [(-1, 3), (-2, 5), (-4, 9)])
    def test_two_gap_column_matches_dense_solve(self, j_min, n_blocks):
        rng = np.random.default_rng(31)
        c = np.array([-0.9, 1.1])
        blocks = [
            GmpBlock(
                np.array([0.9, 0.4, 0.8]) + rng.uniform(-0.03, 0.03, 3),
                np.array([0.1, -0.3, 0.2]) + rng.uniform(-0.03, 0.03, 3),
            )
            for _ in range(n_blocks)
        ]
        win = stack_window(blocks, c, j_min=j_min)
        dense = assemble_dense(win)
        for j in range(win.j_min + 1, win.j_max):
            for k in (1, 2):
                target = np.zeros(dense.shape[0])
                target[win.scalar_index(j, k - 1)] = 1.0
                direct = numkit.solve(c[k - 1] * np.eye(dense.shape[0]) - dense, target)
                assert np.max(np.abs(resolvent_column(win, k, j) - direct)) < 1e-9, (j, k)

    def test_wrong_middle_block_fails_the_residual_check(self, monkeypatch):
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = stack_window(blocks, np.array([0.0]), j_min=-3)
        lstsq = np.linalg.lstsq

        def skewed(*args, **kwargs):
            sol, *rest = lstsq(*args, **kwargs)
            return (sol + 1e-6, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", skewed)
        message = r"^closed-form column residual 1\.9\d\de-06 too large$"
        with pytest.raises(NumericalError, match=message):
            resolvent_column(win, 1, 0)

    def test_window_must_cover_center(self):
        win = make_p1_window(n_blocks=3, j_min=0)
        for j in (0, 2):
            with pytest.raises(WindowError, match=f"blocks {j - 1}..{j + 1}"):
                resolvent_column(win, 1, j)
        assert resolvent_column(win, 1, 1).shape == (6,)
