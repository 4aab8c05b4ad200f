import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmpflow import flow
from gmpflow.construct import gmp_to_jacobi_measure, jacobi_to_gmp
from gmpflow.errors import SQUARE_MAX, NumericalError, ValidationError, WindowError, check
from gmpflow.flow import (
    READOUT_REL_TOL,
    FlowTrajectory,
    extract_jacobi,
    flow_identity_residual,
    flow_run,
    flow_states,
    jacobi_flow_step,
    rotation_o,
    tail_norms,
    u_block,
)
from gmpflow.gmp import GmpBlock, GmpWindow, build_block_B, lambda_k
from gmpflow.jacobi import DiscreteMeasure, JacobiWindow, lanczos_from_measure

from conftest import make_p1_block, make_p1_window, roundtrip_inputs, stack_window
from oracles import dense_flow_identity_residual, tril_triu_block_B

SQRT2 = np.sqrt(2.0)


def random_block(rng, g):
    p = rng.uniform(-1.2, 1.2, g + 1)
    p[-1] = rng.uniform(0.3, 1.5)
    q = rng.uniform(-1.0, 1.0, g + 1)
    return GmpBlock(p, q)


def random_window(rng, g, n_blocks, j_min, c=None):
    if c is None:
        c = np.sort(rng.uniform(-2.0, 2.0, g))
    blocks = tuple(random_block(rng, g) for _ in range(n_blocks))
    return stack_window(blocks, c, j_min)


def perturbed_p1_window(n_blocks=23, j_min=-11, eps=0.01):
    blk = GmpBlock([SQRT2 + eps, 0.5], [0.0, 0.0])
    return stack_window(tuple([blk] * n_blocks), (0.0,), j_min)


def reference_u_block(p):
    """Product of embedded plane rotations, built one (g+1)-square factor
    at a time for a single block."""
    g = p.size - 1
    tails = np.sqrt(np.cumsum(p[::-1] ** 2)[::-1])
    u = np.eye(g + 1)
    for k in range(1, g + 1):
        phi = np.arctan2(p[k - 1], tails[k])
        s, co = float(np.sin(phi)), float(np.cos(phi))
        factor = np.eye(g + 1)
        factor[k - 1 : k + 1, k - 1 : k + 1] = [[s, co], [co, -s]]
        u = factor @ u
    return u


def reference_flow_step(window):
    """The flow step as a loop over blocks; returns the new (P, Q)."""
    g = window.g
    rows_p, rows_q = [], []
    for j in range(window.j_min + 1, window.j_max):
        blk, nxt = window.block(j), window.block(j + 1)
        tails = np.sqrt(np.cumsum(blk.p[::-1] ** 2)[::-1])
        norm_this = float(tails[0])
        norm_next = float(np.linalg.norm(nxt.p))
        bmat = tril_triu_block_B(blk, window.c)
        v = reference_u_block(blk.p).T @ (bmat @ (blk.p / norm_this))
        p_new = np.empty(g + 1)
        p_new[:g] = v[1:]
        p_new[g] = norm_next * blk.p[g] / norm_this
        q_new = np.empty(g + 1)
        q_new[:g] = -norm_this * blk.p[:g] / (tails[:g] * tails[1:])
        bnext = tril_triu_block_B(nxt, window.c)
        b_in = float(nxt.p @ bnext @ nxt.p) / norm_next**2
        q_new[g] = norm_this / (blk.p[g] * norm_next) * b_in
        rows_p.append(p_new)
        rows_q.append(q_new)
    return np.array(rows_p), np.array(rows_q)


def reference_extract_jacobi(states):
    """The readout as a loop over states, each read and checked alone."""
    a_vals = [float(np.linalg.norm(st.block(0).p)) for st in states]
    b_vals = []
    for n in range(len(states) - 1):
        cur = states[n]
        blk0 = cur.block(0)
        bmat = build_block_B(blk0, cur.c)
        b_mean = float(blk0.p @ bmat @ blk0.p) / a_vals[n] ** 2
        trail = states[n + 1].block(-1)
        b_trail = float(trail.q[-1] * trail.p[-1])
        scale = max(1.0, abs(b_mean), abs(b_trail))
        check(f"readout mismatch at step {n}: trailing {b_trail:.6e} vs quadratic mean "
              f"{b_mean:.6e}, difference", abs(b_mean - b_trail), READOUT_REL_TOL * scale)
        b_vals.append(b_trail)
    return np.array(a_vals), np.array(b_vals)


def readout_rows(states):
    """The arguments of ``extract_jacobi`` for a list of states: rows of
    blocks -1 and 0 of each, stacked (state, block, slot), and the poles."""
    rows = [slice(-1 - st.j_min, 1 - st.j_min) for st in states]
    P = np.stack([st.P[i] for st, i in zip(states, rows)])
    Q = np.stack([st.Q[i] for st, i in zip(states, rows)])
    return P, Q, states[0].c


def random_run(rng, g, n_blocks, n_steps):
    states = [random_window(rng, g, n_blocks, -(n_blocks // 2))]
    for _ in range(n_steps):
        states.append(jacobi_flow_step(states[-1]))
    return states


@st.composite
def small_windows(draw):
    """Windows of 3..9 blocks, g = 1..4, with entries of order one and the
    trailing p entry kept away from zero."""
    g = draw(st.integers(1, 4))
    n_blocks = draw(st.integers(3, 9))
    p = draw(arrays(float, (n_blocks, g + 1), elements=st.floats(-1.2, 1.2)))
    p[:, -1] = draw(arrays(float, n_blocks, elements=st.floats(0.3, 1.5)))
    q = draw(arrays(float, (n_blocks, g + 1), elements=st.floats(-1.0, 1.0)))
    # distinct poles, as every window requires
    c = draw(
        arrays(float, g, elements=st.floats(-2.0, 2.0), unique=True).filter(
            lambda c: np.min(np.diff(np.sort(c)), initial=np.inf) > 1e-3
        )
    )
    return GmpWindow(p, q, c, -(n_blocks // 2))


def assert_blocks_equal_mod_sign(blk, other, atol=1e-10):
    npt.assert_allclose(np.abs(blk.p), np.abs(other.p), atol=atol)
    npt.assert_allclose(np.abs(blk.q), np.abs(other.q), atol=atol)


class TestRotationO:
    def test_zero_angle_swaps(self):
        npt.assert_allclose(rotation_o(0.0), [[0.0, 1.0], [1.0, 0.0]])

    def test_right_angle(self):
        npt.assert_allclose(
            rotation_o(np.pi / 2), [[1.0, 0.0], [0.0, -1.0]], atol=1e-15
        )

    def test_involution_and_determinant(self):
        rng = np.random.default_rng(31)
        for phi in rng.uniform(-np.pi, np.pi, 25):
            mat = rotation_o(phi)
            npt.assert_allclose(mat @ mat, np.eye(2), atol=1e-15)
            npt.assert_allclose(np.linalg.det(mat), -1.0, atol=1e-15)
            npt.assert_allclose(mat, mat.T)


class TestTailNorms:
    def test_values(self):
        npt.assert_allclose(
            tail_norms(np.array([3.0, 0.0, 4.0])), [5.0, 4.0, 4.0]
        )


class TestUBlock:
    def test_canonical_example(self):
        u = u_block(np.array([SQRT2, 0.5]))
        expected = np.array(
            [[0.942809, 0.333333], [0.333333, -0.942809]]
        )
        npt.assert_allclose(u, expected, atol=1e-6)
        npt.assert_allclose(u[:, 0], np.array([SQRT2, 0.5]) / 1.5)

    def test_zero_leading_entry_swaps(self):
        npt.assert_allclose(
            u_block(np.array([0.0, 0.5])), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_basis_vector_gives_cycle(self):
        g = 3
        u = u_block(np.eye(g + 1)[g])
        npt.assert_allclose(u[:, 0], np.eye(g + 1)[g], atol=1e-15)
        for k in range(1, g + 1):
            npt.assert_allclose(u[:, k], np.eye(g + 1)[k - 1], atol=1e-15)

    def test_first_column_and_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = int(rng.integers(1, 5))
            p = rng.uniform(-2.0, 2.0, g + 1)
            p[-1] = rng.uniform(0.2, 2.0)
            u = u_block(p)
            npt.assert_allclose(u[:, 0], p / np.linalg.norm(p), atol=1e-14)
            npt.assert_allclose(u.T @ u, np.eye(g + 1), atol=1e-13)

    def test_columns_match_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = int(rng.integers(1, 5))
            p = rng.uniform(-2.0, 2.0, g + 1)
            p[-1] = rng.uniform(0.2, 2.0)
            u = u_block(p)
            tails = tail_norms(p)
            for k in range(1, g + 1):
                col = np.zeros(g + 1)
                col[k - 1] = tails[k] ** 2
                col[k:] = -p[k - 1] * p[k:]
                col /= tails[k - 1] * tails[k]
                npt.assert_allclose(u[:, k], col, atol=1e-12)


class TestJacobiFlowStep:
    def test_first_step_values(self):
        stepped = jacobi_flow_step(make_p1_window(9, -4))
        assert stepped.j_min == -3
        assert stepped.j_max == 3
        for j in range(stepped.j_min, stepped.j_max + 1):
            blk = stepped.block(j)
            npt.assert_allclose(blk.p, [0.0, 0.5], atol=1e-14)
            npt.assert_allclose(blk.q, [-2.0 * SQRT2, 0.0], atol=1e-14)
        bmat = build_block_B(stepped.block(0), stepped.c)
        npt.assert_allclose(
            bmat, [[0.0, -SQRT2], [-SQRT2, 0.0]], atol=1e-14
        )

    def test_second_step_returns_mod_sign(self):
        stepped = jacobi_flow_step(jacobi_flow_step(make_p1_window(9, -4)))
        for j in range(stepped.j_min, stepped.j_max + 1):
            assert_blocks_equal_mod_sign(stepped.block(j), make_p1_block(), atol=1e-12)

    def test_residue_functional_conserved(self):
        window = make_p1_window(11, -5)
        for _ in range(3):
            npt.assert_allclose(
                lambda_k(window.block(0), window.c)[..., 0], 4.0, atol=1e-10
            )
            window = jacobi_flow_step(window)
        npt.assert_allclose(
            lambda_k(window.block(0), window.c)[..., 0], 4.0, atol=1e-10
        )

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = int(rng.integers(1, 4))
            window = random_window(rng, g, 7, int(rng.integers(-4, 1)))
            stepped = jacobi_flow_step(window)
            assert flow_identity_residual(window, stepped) < 1e-9

    def test_narrow_window_rejected(self):
        window = make_p1_window(2, 0)
        with pytest.raises(WindowError):
            jacobi_flow_step(window)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_identity_needs_the_stepped_window_inside(self, shift):
        window = perturbed_p1_window()
        stepped = jacobi_flow_step(window)
        moved = GmpWindow(stepped.P, stepped.Q, stepped.c, stepped.j_min + 2 * shift)
        with pytest.raises(WindowError, match="^stepped window does not sit inside the old one$"):
            flow_identity_residual(window, moved)

    @pytest.mark.parametrize("case", ["genus", "short at the end", "short at the start"])
    def test_identity_needs_the_step_of_the_window(self, case):
        window = perturbed_p1_window()
        stepped = jacobi_flow_step(window)
        other = {
            "genus": lambda: jacobi_flow_step(random_window(np.random.default_rng(2), 2, 23, -11)),
            "short at the end": lambda: GmpWindow(stepped.P[:-1], stepped.Q[:-1], stepped.c,
                                                  stepped.j_min),
            "short at the start": lambda: GmpWindow(stepped.P[1:], stepped.Q[1:], stepped.c,
                                                    stepped.j_min + 1),
        }[case]()
        with pytest.raises(WindowError, match="^stepped window does not sit inside the old one$"):
            flow_identity_residual(window, other)


class TestSteppedState:
    """A stepped state is built on its window's checked pole list, by the
    constructor's other rules: its rows are refused as the constructor
    refuses them, and its rotations are those of the step."""

    @pytest.mark.parametrize("key", ["P", "Q"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.01 * SQUARE_MAX])
    @pytest.mark.parametrize("at", [(0, 0), (3, 1), (20, 2)])
    def test_planted_entry_is_refused_as_the_constructor_refuses_it(self, key, value, at):
        d, w = roundtrip_inputs(2, 25)
        stepped = jacobi_flow_step(w)
        rows = {"P": stepped.P.copy(), "Q": stepped.Q.copy()}
        rows[key][at] = value
        with pytest.raises(ValidationError) as public:
            GmpWindow(rows["P"], rows["Q"], w.c, stepped.j_min)
        with pytest.raises(ValidationError) as private:
            w._with_rows(rows["P"], rows["Q"], stepped.j_min)
        assert type(private.value) is type(public.value)
        assert str(private.value) == str(public.value)
        assert str(public.value).startswith(f"blocks[{at[0]}].{key.lower()}[{at[1]}] = ")

    def test_nonpositive_last_p_entry_is_refused(self):
        _, w = roundtrip_inputs(1, 9)
        P = w.P.copy()
        P[4, -1] = 0.0
        with pytest.raises(ValidationError, match="^last p entry must be positive, got 0.0$"):
            w._with_rows(P, w.Q, w.j_min)

    @pytest.mark.parametrize("j_min", [2**53, 2**53 - 1])
    def test_stepped_j_min_past_2_53_is_refused(self, j_min):
        w = make_p1_window(5, j_min)
        if j_min < 2**53:
            assert jacobi_flow_step(w).j_min == 2**53
            return
        with pytest.raises(ValidationError) as public:
            GmpWindow(w.P[1:-1], w.Q[1:-1], w.c, j_min + 1)
        with pytest.raises(ValidationError) as stepped:
            jacobi_flow_step(w)
        assert type(stepped.value) is type(public.value)
        assert str(stepped.value) == str(public.value)
        assert str(public.value) == ("j_min = 9007199254740993 is not an integer of "
                                     "magnitude at most 2**53")

    def test_state_shares_the_checked_pole_list(self):
        _, w = roundtrip_inputs(2, 11)
        stepped = jacobi_flow_step(w)
        assert stepped.c is w.c and not stepped.c.flags.writeable
        assert not (stepped.P.flags.writeable or stepped.Q.flags.writeable)

    @pytest.mark.parametrize("g", [0, 1, 2, 8])
    def test_rotations_are_u_block_of_the_inner_rows(self, g):
        w = random_window(np.random.default_rng(g), g, 15, -7)
        rotations = []
        stepped = jacobi_flow_step(w, rotations)
        (u,) = rotations
        assert np.array_equal(u, u_block(w.P[1:-1]))
        alone = jacobi_flow_step(w)
        assert np.array_equal(stepped.P, alone.P) and np.array_equal(stepped.Q, alone.Q)

    def test_flow_states_fill_the_rotations_as_they_step(self):
        w = make_p1_window(15, -7)
        rotations = []
        stream = flow_states(w, 4, rotations=rotations)
        for n, (st, _) in enumerate(stream):
            assert len(rotations) == n
            if rotations:
                assert rotations[-1].shape == (st.n_blocks, 2, 2)


class TestStackedStep:
    """The stacked step and rotation products against loops over
    blocks with the same arithmetic: results must agree bit for bit."""

    @pytest.mark.parametrize("n_blocks", [5, 33, 120])
    @pytest.mark.parametrize("g", range(1, 9))
    def test_flow_step_matches_block_loop(self, g, n_blocks):
        rng = np.random.default_rng(1000 * g + n_blocks)
        window = random_window(rng, g, n_blocks, -(n_blocks // 2))
        expected_u = np.array([reference_u_block(p) for p in window.P])
        assert np.array_equal(u_block(window.P), expected_u)
        for _ in range(min(3, (n_blocks - 1) // 2)):
            stepped = jacobi_flow_step(window)
            p_ref, q_ref = reference_flow_step(window)
            assert np.array_equal(stepped.P, p_ref)
            assert np.array_equal(stepped.Q, q_ref)
            window = stepped

    @pytest.mark.parametrize("g", [12, 16])
    def test_u_block_matches_rotation_product_at_high_genus(self, g):
        rng = np.random.default_rng(1000 * g)
        window = random_window(rng, g, 120, -60)
        expected_u = np.array([reference_u_block(p) for p in window.P])
        assert np.array_equal(u_block(window.P), expected_u)

    def test_squares_are_python_float_powers(self):
        # the step's squares: np.float_power gives the bits of x ** 2 on a Python float
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 2.0, 200_000) * 10.0 ** np.arange(-40, 40).repeat(2_500)
        assert np.array_equal(np.float_power(x, 2.0), [v**2 for v in x.tolist()])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_windows())
    def test_flow_identity_on_random_windows(self, window):
        assert flow_identity_residual(window, jacobi_flow_step(window)) <= 1e-12


class TestBandedIdentity:
    """``flow_identity_residual`` on band blocks against the dense
    conjugation of ``oracles.dense_flow_identity_residual``."""

    @pytest.mark.parametrize("n_blocks", [41, 121])
    @pytest.mark.parametrize("g", range(1, 9))
    def test_matches_dense_oracle(self, g, n_blocks):
        window = random_window(np.random.default_rng([g, n_blocks]), g, n_blocks, -(n_blocks // 2))
        stepped = jacobi_flow_step(window)
        banded = flow_identity_residual(window, stepped)
        assert banded <= 1e-13
        assert abs(banded - dense_flow_identity_residual(window, stepped)) <= 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_windows())
    def test_matches_dense_oracle_on_random_windows(self, window):
        stepped = jacobi_flow_step(window)
        assert abs(flow_identity_residual(window, stepped)
                   - dense_flow_identity_residual(window, stepped)) <= 1e-15

    @pytest.mark.parametrize("i", [0, 9, -1])
    def test_planted_entry_is_the_residual(self, i):
        # q_g of a block enters its matrix only at (g, g), as p_g * q_g
        window = random_window(np.random.default_rng(21), 3, 21, -10)
        stepped = jacobi_flow_step(window)
        Q = stepped.Q.copy()
        Q[i, -1] += 1e-6
        planted = GmpWindow(stepped.P, Q, stepped.c, stepped.j_min)
        moved = 1e-6 * stepped.P[i, -1]
        assert abs(flow_identity_residual(window, planted) - moved) <= 1e-15
        assert abs(dense_flow_identity_residual(window, planted) - moved) <= 1e-15

    def test_reaches_961_blocks_at_genus_16(self):
        _, window = roundtrip_inputs(16, 961)
        assert flow_identity_residual(window, jacobi_flow_step(window)) <= 1e-14


class TestExtractJacobi:
    def test_alternating_readout(self):
        states = [make_p1_window(23, -11)]
        for _ in range(10):
            states.append(jacobi_flow_step(states[-1]))
        a_vals, b_vals = extract_jacobi(*readout_rows(states))
        npt.assert_allclose(a_vals[0::2], 1.5, atol=1e-10)
        npt.assert_allclose(a_vals[1::2], 0.5, atol=1e-10)
        npt.assert_allclose(b_vals, 0.0, atol=1e-10)

    def test_period_two_recurrence_has_expected_band_edges(self):
        states = [make_p1_window(23, -11)]
        for _ in range(10):
            states.append(jacobi_flow_step(states[-1]))
        a_vals, _ = extract_jacobi(*readout_rows(states))
        ssum = a_vals[0] ** 2 + a_vals[1] ** 2
        prod = a_vals[0] * a_vals[1]
        npt.assert_allclose(ssum, 2.5, atol=1e-10)
        npt.assert_allclose(prod, 0.75, atol=1e-10)
        # the polynomial (x^2 - ssum)/prod takes values +-2 at +-1, +-2
        for x, val in [(2.0, 2.0), (-2.0, 2.0), (1.0, -2.0), (-1.0, -2.0)]:
            npt.assert_allclose((x * x - ssum) / prod, val, atol=1e-9)

    def test_mismatched_states_rejected(self):
        clean = make_p1_window(7, -3)
        fake_block = GmpBlock([SQRT2, 0.5], [0.0, 1.0])
        tainted = stack_window(tuple([fake_block] * 7), (0.0,), -3)
        with pytest.raises(NumericalError):
            extract_jacobi(*readout_rows([clean, tainted]))

    @pytest.mark.parametrize("g", range(1, 9))
    def test_matches_state_loop_bitwise(self, g):
        rng = np.random.default_rng(500 + g)
        for n_blocks, n_steps in ((3, 0), (9, 3), (41, 12)):
            states = random_run(rng, g, n_blocks, n_steps)
            a_vals, b_vals = extract_jacobi(*readout_rows(states))
            a_ref, b_ref = reference_extract_jacobi(states)
            assert a_vals.shape == a_ref.shape and b_vals.shape == b_ref.shape
            assert np.array_equal(a_vals, a_ref) and np.array_equal(b_vals, b_ref)

    def test_first_mismatching_step_is_reported(self):
        states = random_run(np.random.default_rng(7), 2, 21, 6)
        for n in (3, 5):  # blocks -1 of states 3 and 5 break steps 2 and 4
            st = states[n]
            Q = st.Q.copy()
            Q[-1 - st.j_min, -1] += 0.1
            states[n] = GmpWindow(st.P, Q, st.c, st.j_min)
        with pytest.raises(NumericalError) as want:
            reference_extract_jacobi(states)
        with pytest.raises(NumericalError, match="^readout mismatch at step 2: ") as got:
            extract_jacobi(*readout_rows(states))
        assert str(got.value) == str(want.value)

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError, match="^need at least one state$"):
            extract_jacobi(np.empty((0, 2, 2)), np.empty((0, 2, 2)), np.zeros(1))


class TestFlowRun:
    def test_trajectory_shape_and_width(self):
        w = make_p1_window(23, -11)
        traj = flow_run(w, 10)
        assert isinstance(traj, FlowTrajectory)
        assert traj.a_out.shape == (11,)
        assert traj.b_out.shape == (10,)
        states = [st for st, _ in flow_states(w, 10)]
        assert len(states) - 1 == 10
        for n, state in enumerate(states):
            assert state.n_blocks == 23 - 2 * n
            assert state.j_min == -11 + n
            assert state.j_max == 11 - n

    def test_run_holds_no_state(self):
        # a run keeps a few rows per state: its peak must not grow with the
        # states it has passed (at 241 blocks, g = 2, keeping every state
        # peaks at about six times the 4-step run)
        _, w = roundtrip_inputs(2, 241)
        flow_run(w, 4)  # fills the chain plan cache outside the traced runs
        peaks = {}
        for n_steps in (100, 4):
            tracemalloc.start()
            try:
                flow_run(w, n_steps)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100] <= 1.25 * peaks[4]

    def test_states_are_stepped_on_demand(self, monkeypatch):
        steps = []
        step = flow.jacobi_flow_step
        monkeypatch.setattr(flow, "jacobi_flow_step",
                            lambda w, rotations=None: steps.append(w) or step(w, rotations))
        half = 11
        stream = flow_states(make_p1_window(2 * half + 1, -half), 6)
        for n in range(4):
            state, vals = next(stream)
            assert len(steps) == n
            assert state.n_blocks == 2 * (half - n) + 1 and state.j_min == -half + n
            assert vals.shape == (state.n_blocks - 1, 1) and (vals > 1e-8).all()
        assert len(list(stream)) == 3 and len(steps) == 6

    def test_period_two_orbit(self):
        w = make_p1_window(23, -11)
        traj = flow_run(w, 10)
        states = [st for st, _ in flow_states(w, 10)]
        for n in range(9):
            assert_blocks_equal_mod_sign(states[n].block(0), states[n + 2].block(0))
        npt.assert_allclose(traj.a_out[0::2], 1.5, atol=1e-10)
        npt.assert_allclose(traj.a_out[1::2], 0.5, atol=1e-10)
        npt.assert_allclose(traj.b_out, 0.0, atol=1e-10)
        npt.assert_allclose(traj.lambdas[:, 0], 4.0, atol=1e-10)

    def test_perturbed_run_stays_finite(self):
        traj = flow_run(perturbed_p1_window(), 5)
        assert np.all(np.isfinite(traj.a_out))
        assert np.all(np.isfinite(traj.b_out))
        assert np.all(np.isfinite(traj.lambdas[:, 0]))
        assert np.all(traj.validity_min[:, 0] > 0.0)

    def test_narrow_window_rejected(self):
        with pytest.raises(WindowError):
            flow_run(make_p1_window(9, -4), 5)

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_at_least_one_step(self, n_steps):
        with pytest.raises(ValidationError, match="^n_steps must be at least 1$"):
            flow_run(make_p1_window(9, -4), n_steps)

    @pytest.mark.parametrize("j_min, n_blocks", [(2, 9), (-20, 3), (0, 21), (-5, 5)])
    def test_window_without_core_blocks_rejected(self, j_min, n_blocks):
        window = make_p1_window(n_blocks, j_min)
        message = rf"^window \[{j_min}, {window.j_max}\] lacks the readout's blocks -1\.\.1$"
        with pytest.raises(WindowError, match=message):
            flow_run(window, 1)

    def test_invalid_state_aborts(self):
        degenerate = GmpBlock([0.0, 0.5], [1.0, 0.0])
        blocks = [make_p1_block()] * 5 + [degenerate] + [make_p1_block()] * 5
        window = stack_window(tuple(blocks), (0.0,), -5)
        with pytest.raises(ValidationError, match="left the class"):
            flow_run(window, 1)

    @pytest.mark.parametrize("slot, value", [(1, 1e-308)])
    def test_infinite_pair_functional_aborts(self, slot, value):
        w = make_p1_window(21, -10)
        P = w.P.copy()
        P[0, slot] = value
        message = r"^state 0 left the class: pair functional at k=1 \(block -10\) inf is not finite$"
        with pytest.raises(ValidationError, match=message):
            flow_run(GmpWindow(P, w.Q, w.c, w.j_min), 2)

class TestGenusZero:
    """Genus 0, the Killip-Simon case: one-entry blocks, no poles, and a
    flow that is the plain shift of a Jacobi matrix."""

    @staticmethod
    def window(seed):
        rng = np.random.default_rng(seed)
        P, Q = rng.uniform(0.5, 1.5, (41, 1)), rng.uniform(-0.5, 0.5, (41, 1))
        return GmpWindow(P, Q, (), -20)

    def test_u_block_is_the_identity(self):
        assert np.array_equal(u_block(np.array([[0.7], [2.0]])), np.ones((2, 1, 1)))
        assert np.array_equal(u_block(np.array([3.0])), np.ones((1, 1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_readout_is_the_coefficient_window(self, seed):
        from gmpflow.construct import gmp_to_jacobi_measure

        w = self.window(seed)
        traj = flow_run(w, 8)
        J = gmp_to_jacobi_measure(w)
        npt.assert_allclose(traj.a_out, [J.a_at(n) for n in range(9)], rtol=0, atol=1e-15)
        npt.assert_allclose(traj.b_out, [J.b_at(n) for n in range(8)], rtol=0, atol=1e-15)
        assert traj.lambdas.shape == traj.validity_min.shape == (9, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_flow_identity(self, seed):
        w = self.window(seed)
        assert flow_identity_residual(w, jacobi_flow_step(w)) <= 1e-15


def _measure_from_dense(mat, index):
    eigvals, eigvecs = np.linalg.eigh(mat)
    weights = eigvecs[index] ** 2
    keep = weights > 1e-13
    weights = weights[keep] / np.sum(weights[keep])
    return DiscreteMeasure(eigvals[keep], weights)


class TestFlowJacobiDiagram:
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_readout_matches_recurrence_of_half_window(self, eps):
        from gmpflow.gmp import assemble_dense

        window = (
            make_p1_window(23, -11) if eps == 0.0 else perturbed_p1_window()
        )
        traj = flow_run(window, 6)
        start = window.scalar_index(-1, window.g)
        half = assemble_dense(window)[start:, start:]
        measure = _measure_from_dense(half, 0)
        depth = 8
        recovered = lanczos_from_measure(measure, depth)
        trail = window.block(-1)
        npt.assert_allclose(
            recovered.b[0], trail.q[-1] * trail.p[-1], atol=1e-6
        )
        for n in range(7):
            npt.assert_allclose(
                recovered.a[n + 1], traj.a_out[n], atol=1e-6
            )
        for n in range(6):
            npt.assert_allclose(
                recovered.b[n + 1], traj.b_out[n], atol=1e-6
            )


class TestBlockShiftIdentity:
    @pytest.mark.parametrize("g, n_blocks", [(1, 241), (2, 241), (4, 961)])
    def test_steps_are_the_shifted_conversion_up_to_slot_signs(self, g, n_blocks):
        # the paper's flow maps A(J) to A(SJS*): step A(J) n times and
        # convert J shifted by n sites.  The two agree block for block up
        # to the sign of whole slots, which varies with the step (at g = 4,
        # slots {0, 1, 2}, {2}, {0, 2} and {0, 1, 3} after steps 1..4): the
        # conversion gauges p >= 0, the step keeps its rotations' signs
        d, w = roundtrip_inputs(g, n_blocks)
        J = gmp_to_jacobi_measure(w)
        stepped = jacobi_to_gmp(J, d, 13)
        for n in range(1, 5):
            stepped = jacobi_flow_step(stepped)
            shifted = jacobi_to_gmp(JacobiWindow(J.a, J.b, J.n_min - n), d, 13 - 2 * n)
            lo, hi = max(stepped.j_min, shifted.j_min), min(stepped.j_max, shifted.j_max)
            mine, theirs = (A.rows(lo - A.j_min, hi + 1 - A.j_min) for A in (stepped, shifted))
            (P, Q), (Ps, Qs) = (mine.p, mine.q), (theirs.p, theirs.q)
            for got, want in ((np.abs(P), np.abs(Ps)), (np.abs(Q), np.abs(Qs)), (P * Q, Ps * Qs)):
                npt.assert_allclose(got, want, rtol=0, atol=1e-13)
            p_flip, q_flip = np.sign(P) != np.sign(Ps), np.sign(Q) != np.sign(Qs)
            both = (np.abs(P) > 1e-12) & (np.abs(Q) > 1e-12)
            assert np.array_equal(p_flip[both], q_flip[both]), n
            assert not p_flip[:, g].any() and not q_flip[np.abs(Q[:, g]) > 1e-12, g].any(), n
