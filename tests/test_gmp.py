import json
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmpflow import numkit
from gmpflow.errors import (
    NumericalError,
    SQUARE_MAX,
    PoleEvaluationError,
    SingularMatrixError,
    ValidationError,
    WindowError,
)
from gmpflow.finitegap import GapSet, delta_from_gaps
from gmpflow.flow import flow_run
from gmpflow.gmp import (
    JMAT,
    VALIDITY_FLOOR,
    GmpBlock,
    GmpWindow,
    assemble_dense,
    band_rows,
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

from conftest import make_p1_block, make_p1_window, roundtrip_inputs, stack_window
from oracles import block_assembly, tril_triu_block_B, whole_plan_lambda_sharp


def random_block(rng: np.random.Generator, g: int) -> GmpBlock:
    p = rng.uniform(-1.0, 1.0, size=g + 1)
    p[g] = rng.uniform(0.3, 1.5)
    q = rng.uniform(-1.0, 1.0, size=g + 1)
    return GmpBlock(p, q)


def stack_rows(blocks, shape=(-1,)) -> GmpBlock:
    """One GmpBlock stack of the blocks' rows, its leading axes ``shape``."""
    g = blocks[0].g
    return GmpBlock(
        np.reshape([b.p for b in blocks], shape + (g + 1,)),
        np.reshape([b.q for b in blocks], shape + (g + 1,)),
    )


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


def comb_window(g: int, seed: int, n_blocks: int, j_min: int) -> GmpWindow:
    """Window of ``n_blocks`` blocks, each within 5% of the second block
    ``comb_pair(g, seed)`` draws, on the poles of its comb map."""
    c, _, this = comb_pair(g, seed)
    u = np.random.default_rng([seed, g, n_blocks]).uniform(-1.0, 1.0, (2, n_blocks, g + 1))
    return GmpWindow(this.p * (1.0 + 0.05 * u[0]), this.q + 0.05 * u[1], c, j_min)


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


def window_columns(pairs) -> list:
    """``resolvent_column`` on the blocks j-2..j+2 of each (window, j) pair
    of a stack, each column laid on its window's rows (zero off blocks
    j-1..j+1), or None where it has no closed form."""
    P, Q = (np.array([getattr(w, key)[j - w.j_min - 2 : j - w.j_min + 3] for w, j in pairs])
            for key in "PQ")
    ok, cols = resolvent_column(P, Q, pairs[0][0].c)
    out = [None] * len(pairs)
    for m, col in zip(ok, cols):
        w, j = pairs[m]
        out[m] = np.zeros(w.P.size)
        out[m][w.scalar_index(j - 1, 0) :][: col.size] = col.ravel()
    return out


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
        for slot in (-1, 2):
            with pytest.raises(WindowError, match=f"^slot {slot} outside 0..1$"):
                p1_window.scalar_index(0, slot)

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

    def test_pole_whose_square_overflows_is_named(self):
        P = np.tile([0.5, 0.5, 1.0], (5, 1))
        big = float(np.nextafter(SQUARE_MAX, np.inf))
        with pytest.raises(ValidationError) as info:
            GmpWindow(P, np.zeros((5, 3)), [0.0, -big])
        assert str(info.value) == f"C[1] = {-big:.6g} is too large: its square overflows"
        assert GmpWindow(P, np.zeros((5, 3)), [0.0, -SQUARE_MAX]).c[1] == -SQUARE_MAX

    def test_block_entry_whose_square_overflows_is_named(self):
        # the first in file order: block by block, p before q
        big = float(np.nextafter(SQUARE_MAX, np.inf))
        P, Q = np.tile([0.5, 0.5, 1.0], (5, 1)), np.zeros((5, 3))
        P[3, 0], Q[2, 1] = big, -big
        with pytest.raises(ValidationError) as info:
            GmpWindow(P, Q, [0.0, 1.0], -2)
        assert str(info.value) == f"blocks[2].q[1] = {-big:.6g} is too large: its square overflows"
        Q[2, 1] = -SQUARE_MAX
        with pytest.raises(ValidationError) as info:
            GmpWindow(P, Q, [0.0, 1.0], -2)
        assert str(info.value) == f"blocks[3].p[0] = {big:.6g} is too large: its square overflows"
        P[3, 0] = SQUARE_MAX
        assert GmpWindow(P, Q, [0.0, 1.0], -2).Q[2, 1] == -SQUARE_MAX
        # the entry rule comes first, then p_g > 0
        P[1, 2] = 0.0
        Q[2, 1] = -big
        with pytest.raises(ValidationError, match=r"^blocks\[2\]\.q\[1\] = -1\.34078e\+154 is too"):
            GmpWindow(P, Q, [0.0, 1.0], -2)
        Q[2, 1] = -SQUARE_MAX
        with pytest.raises(ValidationError, match="^last p entry must be positive, got 0.0$"):
            GmpWindow(P, Q, [0.0, 1.0], -2)

    def test_from_arrays_checks_every_row(self):
        p = np.tile([np.sqrt(2.0), 0.5], (4, 1))
        q = np.zeros((4, 2))
        window = GmpWindow(p, q, (0.0,), j_min=-1)
        assert window.n_blocks == 4 and window.j_max == 2
        assert p.flags.writeable and not window.P.flags.writeable
        assert np.shares_memory(window.block(1).p, window.P)
        bad = p.copy()
        bad[2, 0] = np.inf
        with pytest.raises(ValidationError, match=r"^blocks\[2\]\.p\[0\] = inf is infinite$"):
            GmpWindow(bad, q, (0.0,))
        bad = p.copy()
        bad[3, -1] = -0.5
        with pytest.raises(ValidationError, match="last p entry must be positive"):
            GmpWindow(bad, q, (0.0,))
        with pytest.raises(ValidationError, match="at least one block"):
            GmpWindow(np.zeros((0, 2)), np.zeros((0, 2)), (0.0,))
        # a non-finite entry of any row is refused before a row with p_g <= 0;
        # of those, the first row's is named
        nan_row, low_row = p.copy(), p.copy()
        nan_row[1, 0] = low_row[3, -1] = np.nan
        low_row[1, -1] = nan_row[3, -1] = -0.5
        low_row[2, -1] = -0.25
        builds = (lambda P, Q: GmpWindow(P, Q, (0.0,)), GmpBlock,
                  lambda P, Q: GmpBlock(P.reshape(2, 2, 2), Q.reshape(2, 2, 2)))
        for P, paths in ((nan_row, ("blocks[1].p[0]", "p[1][0]", "p[0][1][0]")),
                         (low_row, ("blocks[3].p[1]", "p[3][1]", "p[1][1][1]"))):
            for build, path in zip(builds, paths):
                with pytest.raises(ValidationError) as info:
                    build(P, q)
                assert str(info.value) == f"{path} = nan is not a number"
        low_row[3, -1] = 0.5
        for build in builds:
            with pytest.raises(ValidationError, match=r"^last p entry must be positive, got -0\.5$"):
                build(low_row, q)
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


    def test_json_genus_key_is_optional(self, p1_window):
        data = p1_window.to_json()
        del data["g"]
        assert GmpWindow.from_json(data).g == 1
        assert GmpWindow.from_json(dict(data, g=1.0)).g == 1

    @pytest.mark.parametrize("g", [0, 2, -1, 3.0])
    def test_json_genus_key_must_be_the_blocks_genus(self, p1_window, g):
        with pytest.raises(ValidationError) as info:
            GmpWindow.from_json(dict(p1_window.to_json(), g=g))
        assert str(info.value) == f"window key g is {int(g)} but its blocks have genus 1"

    @pytest.mark.parametrize("g", [True, 1.5, None, "1", [1]])
    def test_json_genus_key_must_be_integral(self, p1_window, g):
        with pytest.raises(ValidationError) as info:
            GmpWindow.from_json(dict(p1_window.to_json(), g=g))
        assert str(info.value) == f"g = {json.dumps(g)} is not an integer"

    @pytest.mark.parametrize("g", [0, 1, 2, 4])
    def test_json_rows_are_read_as_one_array_bitwise(self, g):
        # the one-array route reads the same bits as one block at a time
        rng = np.random.default_rng(g)
        P, Q = rng.standard_normal((2, 9, g + 1))
        P[:, -1] = np.abs(P[:, -1]) + 0.1
        data = json.loads(json.dumps(GmpWindow(P, Q, np.arange(g) * 0.5, -4).to_json()))
        back = GmpWindow.from_json(data)
        assert np.array_equal(back.P, P) and np.array_equal(back.Q, Q)
        for key, arr in (("p", back.P), ("q", back.Q)):
            assert np.array_equal(arr, [np.array(b[key], dtype=float) for b in data["blocks"]])

    @pytest.mark.parametrize("j_min", [-1.5, 2.7, True, float("inf"), "1"])
    def test_json_offset_must_be_integral(self, p1_window, j_min):
        data = dict(p1_window.to_json(), j_min=j_min)
        with pytest.raises(ValidationError) as info:
            GmpWindow.from_json(data)
        assert str(info.value) == f"j_min = {json.dumps(j_min)} is not an integer"

    def test_json_offset_may_be_an_integral_float(self, p1_window):
        back = GmpWindow.from_json(dict(p1_window.to_json(), j_min=3.0))
        assert back.j_min == 3 and type(back.j_min) is int

    @pytest.mark.parametrize("j_min", [2**53, -(2**53), float(2**53), -float(2**53)])
    def test_json_offset_may_reach_two_to_the_53(self, p1_window, j_min):
        back = GmpWindow.from_json(dict(p1_window.to_json(), j_min=j_min))
        assert back.j_min == j_min and type(back.j_min) is int

    @pytest.mark.parametrize(
        "j_min",
        [2**53 + 2, -(2**53) - 2, 2**53 + 1, float(2**53 + 2), 1e308, pytest.param(10**400, id="10**400")],
    )
    def test_json_offset_beyond_two_to_the_53_rejected(self, p1_window, j_min):
        # past 2**53 a JSON number no longer names one integer; a long one
        # is named by its first digits and its length
        with pytest.raises(ValidationError) as info:
            GmpWindow.from_json(dict(p1_window.to_json(), j_min=j_min))
        spelled = "100000000000... (401 characters)" if j_min == 10**400 else json.dumps(j_min)
        assert str(info.value) == f"j_min = {spelled} is not an integer of magnitude at most 2**53"


class TestBuildBlockB:
    def test_p1_block_is_zero(self, p1_block):
        assert_allclose(
            build_block_B(p1_block, np.array([0.0])), np.zeros((2, 2))
        )

    @pytest.mark.parametrize("c", [[], [0.0, 1.0]])
    def test_pole_count_must_match(self, p1_block, c):
        with pytest.raises(ValidationError, match=f"^pole list length {len(c)}, expected 1$"):
            build_block_B(p1_block, np.array(c))

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


def dense_band(mat: np.ndarray, h: int) -> np.ndarray:
    """Row i holds the entries i - h..i + h of ``mat``, zero outside it."""
    n = mat.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(mat, ((0, 0), (h, h))), 2 * h + 1, 1)
    return windows[np.arange(n), np.arange(n)]


def bitwise_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestBandRows:
    @staticmethod
    def signed_zero_window(g: int, n_blocks: int = 41) -> GmpWindow:
        """A round-trip window whose p_0..p_{g-1} of every third block and
        q of every fourth are -0.0."""
        _, w = roundtrip_inputs(g, 41)
        P, Q = w.P[:n_blocks].copy(), w.Q[:n_blocks].copy()
        P[::3, :g], Q[1::4] = -0.0, -0.0
        return GmpWindow(P, Q, w.c, w.j_min)

    @pytest.mark.parametrize("g", [0, 1, 2, 4, 8])
    def test_window_and_both_halves_are_the_block_assembly(self, g):
        w = self.signed_zero_window(g)
        ref, h = block_assembly(w), g + 1
        assert np.signbit(ref[ref == 0.0]).any() == (g > 0)  # couplings p_0..p_{g-1}
        assert bitwise_equal(assemble_dense(w), ref)
        assert bitwise_equal(band_rows(w.rows(), w.c), dense_band(ref, h))
        # the halves of gmp_to_jacobi_measure, the minus one in reversed order
        k0, i0 = -w.j_min, w.scalar_index(0, 0)
        assert bitwise_equal(band_rows(w.rows(k0), w.c), dense_band(ref[i0:, i0:], h))
        minus = band_rows(w.rows(0, k0), w.c)[::-1, ::-1]
        assert bitwise_equal(minus, dense_band(ref[i0 - 1 :: -1, i0 - 1 :: -1], h))

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    @pytest.mark.parametrize("g", [0, 1, 4])
    def test_short_windows(self, g, n_blocks):
        w = self.signed_zero_window(g, n_blocks)
        assert bitwise_equal(assemble_dense(w), block_assembly(w))
        assert bitwise_equal(band_rows(w.rows(), w.c), dense_band(block_assembly(w), g + 1))


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

    @staticmethod
    def slab_mask(k, nb, coupling, first):
        """Allowed entries of block rows first..first+k-1 over nb block
        columns, entry by entry, built with ``repeat`` and ``tile``."""
        per = coupling.shape[0]
        step = (np.arange(nb) - np.arange(first, first + k)[:, None]).repeat(per, 0).repeat(per, 1)
        return (
            (step == 0)
            | ((step == 1) & np.tile(coupling, (k, nb)))
            | ((step == -1) & np.tile(coupling.T, (k, nb)))
        )

    @pytest.mark.parametrize("per", [1, 2, 3, 5])
    def test_block_view_matches_the_mask_form_bitwise(self, per):
        # the mask form is the oracle; entries span six decades, so the
        # largest falls inside the pattern as often as outside it, and the
        # slab may start anywhere and run past the last block column
        rng = np.random.default_rng(70 + per)
        for trial in range(60):
            nb = int(rng.integers(1, 10))
            k, first = int(rng.integers(1, nb + 2)), int(rng.integers(0, nb + 1))
            coupling = rng.random((per, per)) < 0.5
            shape = (k * per, nb * per)
            slab = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
            mask = self.slab_mask(k, nb, coupling, first)
            if trial % 4 == 0:  # a slab that holds its pattern exactly
                slab = np.where(mask, slab, 0.0)
            before = slab.copy()
            oracle = float(np.max(np.abs(slab), where=~mask, initial=0.0))
            assert pattern_defect(slab, coupling, first) == oracle
            assert np.array_equal(slab, before)

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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and entries, NaN where NaN, and equal signs of zero."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestFrozenKernels:
    """``lambda_sharp``, ``validate_gmp`` and ``build_block_B`` give the bits
    of the frozen forms they replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("rows", [1, 18, 50, 481])
    @pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 12, 16])
    def test_lambda_sharp_and_its_states(self, g, rows):
        w = comb_window(g, 3, rows + 1, 0)
        nxt, this = (w.block(1), w.block(0)) if rows == 1 else (w.rows(1), w.rows(0, -1))
        got_states, want_states = [], []
        got = lambda_sharp(nxt, this, w.c, states=got_states)
        assert got.shape == this.p.shape[:-1] + (g,)
        assert same_bits(got, whole_plan_lambda_sharp(nxt, this, w.c, states=want_states))
        # read after the last step: a state updated in place would show here
        assert len(got_states) == len(want_states) == g
        for got_state, want_state in zip(got_states, want_states):
            assert same_bits(got_state, want_state)
        for i, state in enumerate(got_states):
            assert not any(np.shares_memory(state, later) for later in got_states[i + 1 :])

    @pytest.mark.parametrize("g", [1, 2, 5, 16])
    def test_lambda_sharp_on_two_leading_axes(self, g):
        w = comb_window(g, 4, 19, 0)
        nxt, this = (
            GmpBlock(P.reshape(3, 6, g + 1), Q.reshape(3, 6, g + 1))
            for P, Q in ((w.P[1:], w.Q[1:]), (w.P[:-1], w.Q[:-1]))
        )
        got_states, want_states = [], []
        got = lambda_sharp(nxt, this, w.c, states=got_states)
        assert got.shape == (3, 6, g)
        assert same_bits(got, whole_plan_lambda_sharp(nxt, this, w.c, states=want_states))
        assert all(same_bits(a, b) for a, b in zip(got_states, want_states, strict=True))

    @pytest.mark.parametrize("g", [1, 2, 5, 12])
    def test_validate_gmp_values_and_minima(self, g):
        w = comb_window(g, 5, 482, -241)
        want = whole_plan_lambda_sharp(w.rows(1), w.rows(0, -1), w.c)
        vals = validate_gmp(w)
        assert same_bits(vals, want)
        # flow_run's validity minima are the column minima of these values
        assert same_bits(flow_run(w, 1).validity_min[0], want.min(0))

    @pytest.mark.parametrize("case", ["nan", "inf"])
    def test_validate_gmp_on_non_finite_functionals(self, case):
        if case == "nan":  # as in TestValidateGmp::test_non_finite_functional_is_invalid
            huge = GmpBlock([1.3e154, 1.3e154], [1.3e154, 1.3e154])
            w = stack_window([huge] * 9, (0.0,), j_min=-4)
        else:  # as in TestValidateGmp::test_infinite_functional_is_invalid
            w = make_p1_window(21, -10)
            P = w.P.copy()
            P[0, 1] = 1e-308
            w = GmpWindow(P, w.Q, w.c, w.j_min)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = whole_plan_lambda_sharp(w.rows(1), w.rows(0, -1), w.c)
        # the first value in C order that is not finite is named, with its bits
        (first, *_) = np.flatnonzero(~np.isfinite(want))
        verdict = "is not finite" if want.flat[first] == np.inf else "is below 1.000e-08"
        message = (f"pair functional at k={first % w.g + 1} (block {w.j_min + first // w.g}) "
                   f"{want.flat[first]:.3e}")
        with pytest.raises(ValidationError) as got:
            validate_gmp(w)
        assert str(got.value) == f"{message} {verdict}"
        assert str(want.flat[first]) == case

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_build_block_B_keeps_the_signs_of_zero(self, g):
        rng = np.random.default_rng([9, g])
        p = rng.uniform(-1.0, -0.1, (12, g + 1))
        p[:, g] = rng.uniform(0.3, 1.5, 12)
        q = rng.uniform(-1.0, 1.0, (12, g + 1))
        q[::2] = 0.0  # with p < 0, p q^T and q p^T hold -0.0
        blk = GmpBlock(p, q)
        signed = np.linspace(0.0, 1.0, g)
        signed[0] = -0.0  # a pole -0.0 on a -0.0 diagonal entry
        for c in (np.sort(rng.uniform(-2.0, 2.0, g)), signed):
            got = build_block_B(blk, c)
            assert same_bits(got, tril_triu_block_B(blk, c))
            assert ((got == 0.0) & ~np.signbit(got)).any()
        assert np.signbit(p[:, :, None] * q[:, None, :])[::2, :g].all()


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
        assert_allclose(ev, [[-4.0, -4.5], [2.0, 2.0]], atol=1e-14)
        assert_allclose(np.trace(ev), -2.0, atol=1e-14)

    def test_trace_matches_comb_map(self, p1_block):
        for z in (1.5, 3.0, -3.0):
            ev = transfer_matrix(p1_block, np.array([0.0]), z)
            assert_allclose(np.trace(ev), 2.0 * z - 4.0 / z, rtol=1e-13)

    def test_zero_interior_vectors(self):
        blk = GmpBlock(
            np.array([0.0, 0.0, 0.8]), np.array([0.0, 0.0, -0.3])
        )
        c = np.array([-1.0, 1.0])
        ev = transfer_matrix(blk, c, 0.4)
        assert_allclose(ev, bp_factor_inf(0.4, blk.pm(2)))


class TestTransferViaResolvent:
    def test_worked_value(self, p1_block):
        ev = transfer_via_resolvent(p1_block, np.array([0.0]), 1.0)
        assert_allclose(ev, [[-4.0, -4.5], [2.0, 2.0]], atol=1e-12)

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
            assert_allclose(via, direct, rtol=1e-9, atol=1e-9)
            count += 1

    def test_singular_shift_rejected(self, p1_block):
        with pytest.raises(SingularMatrixError):
            transfer_via_resolvent(p1_block, np.array([0.0]), 0.0)

    def test_degenerate_corner_rejected(self, p1_block, monkeypatch):
        # a solve whose delta_g column is orthogonal to p leaves r_pd = 0
        monkeypatch.setattr(numkit, "solve", lambda mat, rhs: np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NumericalError, match=r"^degenerate corner resolvent entry: "
                           r"\|r_pd\| 0\.000e\+00 is below 1\.914e-14$"):
            transfer_via_resolvent(p1_block, np.array([0.0]), 1.0)


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
    def test_blocks_of_two_genera_rejected(self):
        c, nxt, this = comb_pair(2, 0)
        one = GmpBlock(this.p[1:], this.q[1:])
        for pair in ((nxt, one), (one, nxt)):
            with pytest.raises(ValidationError, match="^blocks must share one gap count$"):
                lambda_sharp(*pair, c)

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

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_two_leading_axes_match_the_flat_stack_bitwise(self, g):
        rng = np.random.default_rng([7, g])
        c = np.sort(rng.uniform(-2, 2, g))
        nxt, this = ([random_block(rng, g) for _ in range(6)] for _ in range(2))
        flat = lambda_sharp(stack_rows(nxt), stack_rows(this), c)
        stacked = lambda_sharp(stack_rows(nxt, (3, 2)), stack_rows(this, (3, 2)), c)
        assert stacked.shape == (3, 2, g)
        assert np.array_equal(stacked.reshape(6, g), flat)

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
        vals = validate_gmp(p1_window)
        assert vals.shape == (p1_window.n_blocks - 1, 1)
        assert_allclose(vals.min(0)[0], 4.0, atol=1e-14)

    def test_degenerate_pair_flagged(self, p1_block):
        startled = GmpBlock(
            np.array([0.0, 0.5]), np.array([1.0, 0.0])
        )
        win = stack_window((p1_block, startled), np.array([0.0]), j_min=0)
        message = r"^pair functional at k=1 \(block 0\) 0\.000e\+00 is below 1\.000e-08$"
        with pytest.raises(ValidationError, match=message):
            validate_gmp(win)

    def test_non_finite_functional_is_invalid(self):
        huge = GmpBlock([1.3e154, 1.3e154], [1.3e154, 1.3e154])
        message = r"^pair functional at k=1 \(block -4\) nan is below 1\.000e-08$"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match=message):
                validate_gmp(stack_window([huge] * 9, (0.0,), j_min=-4))
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("slot, value", [(1, 1e-308)])
    def test_infinite_functional_is_invalid(self, slot, value):
        w = make_p1_window(21, -10)
        P = w.P.copy()
        P[0, slot] = value
        with pytest.raises(ValidationError, match=r"^pair functional at k=1 \(block -10\) inf is not finite$"):
            validate_gmp(GmpWindow(P, w.Q, w.c, w.j_min))

    @pytest.mark.parametrize("g", range(1, 9))
    def test_stacked_minima_match_pair_loop(self, g):
        rng = np.random.default_rng(40 + g)
        window = stack_window(
            [random_block(rng, g) for _ in range(33)],
            np.sort(rng.uniform(-2.0, 2.0, g)),
            j_min=-16,
        )
        got = validate_gmp(window, -np.inf)  # a floor every finite value clears
        for k in range(1, g + 1):
            vals = [
                lambda_sharp(window.block(j + 1), window.block(j), window.c)[..., k - 1]
                for j in range(window.j_min, window.j_max)
            ]
            i_min = int(np.argmin(vals))
            assert got[:, k - 1].tolist() == vals
            assert got[:, k - 1].min() == vals[i_min]
            assert int(np.argmin(got[:, k - 1])) == i_min
        # at the default floor the first value in C order not above it is named
        (first, *_) = np.flatnonzero(got <= VALIDITY_FLOOR)
        message = (f"pair functional at k={first % g + 1} (block {window.j_min + first // g}) "
                   f"{got.flat[first]:.3e} is below 1.000e-08")
        with pytest.raises(ValidationError) as info:
            validate_gmp(window)
        assert str(info.value) == message

    def test_insufficient_window(self, p1_block):
        win = stack_window((p1_block,), np.array([0.0]))
        with pytest.raises(WindowError, match="^the class check needs at least two blocks$"):
            validate_gmp(win)


class TestResolventColumn:
    def test_canonical_column(self, p1_window):
        col = window_columns([(p1_window, 0)])[0]
        g1 = 2
        lo = p1_window.scalar_index(-1, 0)
        assert_allclose(col[lo], 0.25, atol=1e-12)
        assert_allclose(col[lo + 1], -np.sqrt(2.0) / 2.0, atol=1e-12)
        assert_allclose(col[lo + g1 : lo + 2 * g1], [0.0, 0.0], atol=1e-12)
        assert_allclose(col[lo + 2 * g1], 0.25, atol=1e-12)
        assert_allclose(col[lo + 2 * g1 + 1], 0.0, atol=1e-12)

    def test_support_pattern(self, p1_window):
        # the column lives on blocks j-1..j+1, and only they come back
        ok, cols = resolvent_column(p1_window.P[None], p1_window.Q[None], p1_window.c)
        assert ok.tolist() == [0]
        assert cols.shape == (1, 3, p1_window.g + 1)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(29)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(40))
        win = stack_window(blocks, np.array([0.0]), j_min=-20)
        dense = assemble_dense(win)
        n = dense.shape[0]
        for j in (0, 1, -18, 17):
            target = np.zeros(n)
            target[win.scalar_index(j, 0)] = 1.0
            direct = numkit.solve(-dense, target)
            assert np.max(np.abs(window_columns([(win, j)])[0] - direct)) < 1e-9, j

    def test_residual_on_perturbed_window(self):
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = stack_window(blocks, np.array([0.0]), j_min=-3)
        col = window_columns([(win, 0)])[0]
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
        col = window_columns([(win, 0)])[0]
        target = np.zeros(n)
        target[win.scalar_index(0, 0)] = 1.0
        residual = (win.c[0] * np.eye(n) - dense) @ col - target
        assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("j_min, n_blocks", [(-2, 5), (-4, 9)])
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
        for j in range(win.j_min + 2, win.j_max - 1):
            target = np.zeros(dense.shape[0])
            target[win.scalar_index(j, 0)] = 1.0
            direct = numkit.solve(c[0] * np.eye(dense.shape[0]) - dense, target)
            assert np.max(np.abs(window_columns([(win, j)])[0] - direct)) < 1e-9, j

    def test_wrong_middle_block_fails_the_residual_check(self, monkeypatch):
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = stack_window(blocks, np.array([0.0]), j_min=-3)
        pinv = np.linalg.pinv

        class Skewed:
            """A pseudo-inverse whose solutions are off by 1e-6 in every entry."""

            def __init__(self, *args, **kwargs):
                self.inverse = pinv(*args, **kwargs)

            def __matmul__(self, rhs):
                return self.inverse @ rhs + 1e-6

        monkeypatch.setattr(np.linalg, "pinv", Skewed)
        message = r"^closed-form column residual 1\.9\d\de-06 exceeds 1\.000e-08$"
        with pytest.raises(NumericalError, match=message):
            window_columns([(win, 0)])

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_mixed_stack_matches_dense_solves(self, g):
        # windows of three sizes and offsets, their edge pairs (the first and
        # last j with blocks j-2..j+2 inside) included,
        # stacked in an order that interleaves the windows
        windows = [comb_window(g, 11, n, j_min) for n, j_min in ((5, -1), (9, -4), (12, 2))]
        pairs = sorted(
            ((w, j) for w in windows for j in {w.j_min + 2, (w.j_min + w.j_max) // 2, w.j_max - 2}),
            key=lambda pair: pair[1],
        )
        assert len({id(w) for w, _ in pairs[:4]}) > 1
        cols = window_columns(pairs)
        assert len(cols) == len(pairs) == 7
        for (w, j), col in zip(pairs, cols):
            dense = assemble_dense(w)
            target = np.zeros(dense.shape[0])
            target[w.scalar_index(j, 0)] = 1.0
            direct = numkit.solve(w.c[0] * np.eye(dense.shape[0]) - dense, target)
            assert col.shape == direct.shape
            assert np.max(np.abs(col - direct)) < 1e-9, (w.n_blocks, j)

    @pytest.mark.parametrize("skewed_at", [0, 2, 3])
    def test_residual_check_runs_per_pair(self, monkeypatch, skewed_at):
        # one skewed middle block in a stack of four pairs raises with the
        # residual of its own pair, the one the single-pair test above pins
        rng = np.random.default_rng(19)
        blocks = tuple(near_p1_block(rng, eps=0.05) for _ in range(6))
        win = stack_window(blocks, np.array([0.0]), j_min=-3)
        other = make_p1_window(n_blocks=9, j_min=-4)
        pairs = [(other, -2), (other, 0), (other, 2), (other, 1)]
        pairs[skewed_at] = (win, 0)
        window_columns(pairs)  # the honest stack passes
        pinv = np.linalg.pinv

        class Skewed:
            """A stacked pseudo-inverse whose solution for one pair is off by
            1e-6 in every entry."""

            def __init__(self, *args, **kwargs):
                self.inverse = pinv(*args, **kwargs)

            def __matmul__(self, rhs):
                out = self.inverse @ rhs
                out[skewed_at] += 1e-6
                return out

        monkeypatch.setattr(np.linalg, "pinv", Skewed)
        message = r"^closed-form column residual 1\.9\d\de-06 exceeds 1\.000e-08$"
        with pytest.raises(NumericalError, match=message):
            window_columns(pairs)

    def test_undefined_pair_skips_only_itself(self):
        # block 1 with p_0 = q_0 = 0 makes the pair functionals of
        # (block 1, block 0) and (block 2, block 1) vanish, so the columns
        # at blocks 0, 1 and 2 have no closed form; the rest of the stack
        # gets the columns it gets without them
        rng = np.random.default_rng(19)
        blocks = [near_p1_block(rng, eps=0.05) for _ in range(11)]
        blocks[6] = GmpBlock([0.0, 0.5], [0.0, 0.0])
        win = stack_window(blocks, np.array([0.0]), j_min=-5)
        other = make_p1_window(n_blocks=9, j_min=-4)
        pairs = [(win, -3), (win, 0), (other, 0), (win, 1), (win, 2), (win, 3)]
        cols = window_columns(pairs)
        assert [col is None for col in cols] == [False, True, False, True, True, False]
        defined = [pair for pair, col in zip(pairs, cols) if col is not None]
        for got, want in zip((col for col in cols if col is not None), window_columns(defined)):
            assert np.array_equal(got, want)
        assert window_columns([(win, 0)]) == [None]
