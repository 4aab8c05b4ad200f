import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmpflow.errors import NumericalError, ValidationError, WindowError
from gmpflow.flow import (
    FlowTrajectory,
    extract_jacobi,
    flow_identity_residual,
    flow_run,
    jacobi_flow_step,
    ods_step,
    omega_identity_residual,
    omega_step,
    rotation_o,
    tail_norms,
    u_block,
)
from gmpflow.gmp import GmpBlock, GmpWindow, build_block_B, lambda_k
from gmpflow.jacobi import DiscreteMeasure, lanczos_from_measure

from conftest import make_p1_block, make_p1_window

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
    return GmpWindow(blocks, c, j_min)


def perturbed_p1_window(n_blocks=23, j_min=-11, eps=0.01):
    blk = GmpBlock([SQRT2 + eps, 0.5], [0.0, 0.0])
    return GmpWindow(tuple([blk] * n_blocks), (0.0,), j_min)


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


def reference_block_B(p, q, c):
    pq = np.outer(p, q)
    mat = np.tril(pq) + np.triu(pq.T, 1)
    mat[np.diag_indices_from(mat)] += np.append(c, 0.0)
    return mat


def reference_flow_step(window):
    """The flow step as a loop over blocks; returns the new (P, Q)."""
    g = window.g
    rows_p, rows_q = [], []
    for j in range(window.j_min + 1, window.j_max):
        blk, nxt = window.block(j), window.block(j + 1)
        tails = np.sqrt(np.cumsum(blk.p[::-1] ** 2)[::-1])
        norm_this = float(tails[0])
        norm_next = float(np.linalg.norm(nxt.p))
        bmat = reference_block_B(blk.p, blk.q, window.c)
        v = reference_u_block(blk.p).T @ (bmat @ (blk.p / norm_this))
        p_new = np.empty(g + 1)
        p_new[:g] = v[1:]
        p_new[g] = norm_next * blk.p[g] / norm_this
        q_new = np.empty(g + 1)
        q_new[:g] = -norm_this * blk.p[:g] / (tails[:g] * tails[1:])
        bnext = reference_block_B(nxt.p, nxt.q, window.c)
        b_in = float(nxt.p @ bnext @ nxt.p) / norm_next**2
        q_new[g] = norm_this / (blk.p[g] * norm_next) * b_in
        rows_p.append(p_new)
        rows_q.append(q_new)
    return np.array(rows_p), np.array(rows_q)


def reference_omega_step(window):
    """The substep as a loop over blocks; returns the new (P, Q)."""
    g = window.g
    cg = float(window.c[g - 1])
    rows_p, rows_q = [], []
    for j in range(window.j_min + 1, window.j_max + 1):
        prev, cur = window.block(j - 1), window.block(j)
        x_prev = float(np.hypot(prev.p[-2], prev.p[-1]))
        x_cur = float(np.hypot(cur.p[-2], cur.p[-1]))
        sp, cp = float(prev.p[-2] / x_prev), float(prev.p[-1] / x_prev)
        sc, cc = float(cur.p[-2] / x_cur), float(cur.p[-1] / x_cur)
        m00 = prev.q[g - 1] * prev.p[g - 1] + cg
        m01 = prev.q[g - 1] * prev.p[g]
        m11 = prev.q[g] * prev.p[g]
        p_new = np.empty(g + 1)
        p_new[0] = sp * cp * (m00 - m11) + (cp * cp - sp * sp) * m01
        p_new[1:g] = cp * cur.p[: g - 1]
        p_new[g] = cp * x_cur
        n00 = cur.q[g - 1] * cur.p[g - 1] + cg
        n01 = cur.q[g - 1] * cur.p[g]
        n11 = cur.q[g] * cur.p[g]
        q_new = np.empty(g + 1)
        q_new[0] = -sp / cp
        q_new[1:g] = cur.q[: g - 1] / cp
        q_new[g] = (sc * sc * n00 + 2.0 * sc * cc * n01 + cc * cc * n11) / p_new[g]
        rows_p.append(p_new)
        rows_q.append(q_new)
    return np.array(rows_p), np.array(rows_q)


@st.composite
def small_windows(draw):
    """Windows of 3..9 blocks, g = 1..4, with entries of order one and the
    trailing p entry kept away from zero."""
    g = draw(st.integers(1, 4))
    n_blocks = draw(st.integers(3, 9))
    p = draw(arrays(float, (n_blocks, g + 1), elements=st.floats(-1.2, 1.2)))
    p[:, -1] = draw(arrays(float, n_blocks, elements=st.floats(0.3, 1.5)))
    q = draw(arrays(float, (n_blocks, g + 1), elements=st.floats(-1.0, 1.0)))
    c = draw(arrays(float, g, elements=st.floats(-2.0, 2.0)))
    return GmpWindow.from_arrays(p, q, c, -(n_blocks // 2))


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

    def test_vanishing_tail_rejected(self):
        with pytest.raises(ValidationError):
            u_block(np.array([1.0, 2.0, 0.0]))


class TestOmegaStep:
    def test_canonical_substep(self):
        stepped = omega_step(make_p1_window(7, -3))
        for blk in stepped.blocks:
            npt.assert_allclose(blk.p, [0.0, 0.5], atol=1e-14)
            npt.assert_allclose(blk.q, [-2.0 * SQRT2, 0.0], atol=1e-14)
        assert stepped.j_min == -2
        assert stepped.j_max == 3
        npt.assert_allclose(stepped.c, [0.0])

    def test_pole_order_rolls(self):
        rng = np.random.default_rng(11)
        window = random_window(rng, 3, 6, 0, c=np.array([-1.5, 0.2, 2.0]))
        stepped = omega_step(window)
        npt.assert_allclose(stepped.c, [2.0, -1.5, 0.2])

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = int(rng.integers(1, 4))
            window = random_window(rng, g, 7, int(rng.integers(-4, 1)))
            stepped = omega_step(window)
            assert omega_identity_residual(window, stepped) < 1e-10

    def test_single_block_rejected(self):
        window = GmpWindow((make_p1_block(),), (0.0,), 0)
        with pytest.raises(WindowError):
            omega_step(window)


class TestJacobiFlowStep:
    def test_first_step_values(self):
        stepped = jacobi_flow_step(make_p1_window(9, -4))
        assert stepped.j_min == -3
        assert stepped.j_max == 3
        for blk in stepped.blocks:
            npt.assert_allclose(blk.p, [0.0, 0.5], atol=1e-14)
            npt.assert_allclose(blk.q, [-2.0 * SQRT2, 0.0], atol=1e-14)
        bmat = build_block_B(stepped.block(0), stepped.c)
        npt.assert_allclose(
            bmat, [[0.0, -SQRT2], [-SQRT2, 0.0]], atol=1e-14
        )

    def test_second_step_returns_mod_sign(self):
        stepped = jacobi_flow_step(jacobi_flow_step(make_p1_window(9, -4)))
        for blk in stepped.blocks:
            assert_blocks_equal_mod_sign(blk, make_p1_block(), atol=1e-12)

    def test_residue_functional_conserved(self):
        window = make_p1_window(11, -5)
        for _ in range(3):
            npt.assert_allclose(
                lambda_k(window.block(0), window.c, 1), 4.0, atol=1e-10
            )
            window = jacobi_flow_step(window)
        npt.assert_allclose(
            lambda_k(window.block(0), window.c, 1), 4.0, atol=1e-10
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


class TestStackedStep:
    """The stacked step, substep and rotation products against loops over
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

    @pytest.mark.parametrize("g", range(1, 5))
    def test_omega_step_matches_block_loop(self, g):
        rng = np.random.default_rng(77 + g)
        window = random_window(rng, g, 33, -16)
        stepped = omega_step(window)
        p_ref, q_ref = reference_omega_step(window)
        assert np.array_equal(stepped.P, p_ref)
        assert np.array_equal(stepped.Q, q_ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_windows())
    def test_flow_identity_on_random_windows(self, window):
        assert flow_identity_residual(window, jacobi_flow_step(window)) <= 1e-12


class TestOdsStep:
    def test_canonical_bordered_matrix(self):
        block = make_p1_block()
        bordered = np.zeros((3, 3))
        bordered[1, 2] = bordered[2, 1] = 1.5
        gmat = np.eye(3)
        gmat[:2, :2] = u_block(block.p)
        conjugated = gmat.T @ bordered @ gmat
        npt.assert_allclose(
            conjugated,
            [[0.0, 0.0, 0.5], [0.0, 0.0, -SQRT2], [0.5, -SQRT2, 0.0]],
            atol=1e-14,
        )
        new_block, b_out = ods_step(block, (0.0,), 1.5, 0.0)
        assert b_out == pytest.approx(0.0, abs=1e-14)
        npt.assert_allclose(new_block.p, [0.0, 0.5], atol=1e-14)
        npt.assert_allclose(new_block.q, [-2.0 * SQRT2, 0.0], atol=1e-14)

    def test_diagonal_free_state_keeps_zero_output(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = int(rng.integers(1, 4))
            p = rng.uniform(-1.0, 1.0, g + 1)
            p[-1] = rng.uniform(0.3, 1.0)
            block = GmpBlock(p, np.zeros(g + 1))
            _, b_out = ods_step(block, np.zeros(g), float(rng.uniform(0.5, 2.0)), 0.0)
            assert b_out == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_flow_step_block(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g = int(rng.integers(1, 4))
            window = random_window(rng, g, 5, -2)
            nxt = window.block(1)
            a_in = float(np.linalg.norm(nxt.p))
            b_in = float(
                nxt.p @ build_block_B(nxt, window.c) @ nxt.p
            ) / a_in**2
            new_block, b_out = ods_step(window.block(0), window.c, a_in, b_in)
            stepped = jacobi_flow_step(window)
            npt.assert_allclose(new_block.p, stepped.block(0).p, atol=1e-12)
            npt.assert_allclose(new_block.q, stepped.block(0).q, atol=1e-12)
            trail = stepped.block(-1)
            npt.assert_allclose(
                b_out, trail.q[-1] * trail.p[-1], atol=1e-12
            )

    def test_nonpositive_input_rejected(self):
        with pytest.raises(ValidationError):
            ods_step(make_p1_block(), (0.0,), 0.0, 0.0)


class TestExtractJacobi:
    def test_alternating_readout(self):
        states = [make_p1_window(23, -11)]
        for _ in range(10):
            states.append(jacobi_flow_step(states[-1]))
        a_vals, b_vals = extract_jacobi(states)
        npt.assert_allclose(a_vals[0::2], 1.5, atol=1e-10)
        npt.assert_allclose(a_vals[1::2], 0.5, atol=1e-10)
        npt.assert_allclose(b_vals, 0.0, atol=1e-10)

    def test_period_two_recurrence_has_expected_band_edges(self):
        states = [make_p1_window(23, -11)]
        for _ in range(10):
            states.append(jacobi_flow_step(states[-1]))
        a_vals, _ = extract_jacobi(states)
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
        tainted = GmpWindow(tuple([fake_block] * 7), (0.0,), -3)
        with pytest.raises(NumericalError):
            extract_jacobi([clean, tainted])


class TestFlowRun:
    def test_trajectory_shape_and_width(self):
        traj = flow_run(make_p1_window(23, -11), 10)
        assert isinstance(traj, FlowTrajectory)
        assert traj.n_steps == 10
        assert len(traj.states) == 11
        assert traj.a_out.shape == (11,)
        assert traj.b_out.shape == (10,)
        for n, state in enumerate(traj.states):
            assert state.n_blocks == 23 - 2 * n
            assert state.j_min == -11 + n
            assert state.j_max == 11 - n

    def test_period_two_orbit(self):
        traj = flow_run(make_p1_window(23, -11), 10)
        for n in range(9):
            assert_blocks_equal_mod_sign(
                traj.states[n].block(0), traj.states[n + 2].block(0)
            )
        npt.assert_allclose(traj.a_out[0::2], 1.5, atol=1e-10)
        npt.assert_allclose(traj.a_out[1::2], 0.5, atol=1e-10)
        npt.assert_allclose(traj.b_out, 0.0, atol=1e-10)
        for diag in traj.diagnostics:
            npt.assert_allclose(diag["lambda"][1], 4.0, atol=1e-10)

    def test_perturbed_run_stays_finite(self):
        traj = flow_run(perturbed_p1_window(), 5)
        assert np.all(np.isfinite(traj.a_out))
        assert np.all(np.isfinite(traj.b_out))
        for diag in traj.diagnostics:
            assert np.isfinite(diag["lambda"][1])
            assert diag["validity_min"][1] > 0.0

    def test_narrow_window_rejected(self):
        with pytest.raises(WindowError):
            flow_run(make_p1_window(9, -4), 5)

    def test_invalid_state_aborts(self):
        degenerate = GmpBlock([0.0, 0.5], [1.0, 0.0])
        blocks = [make_p1_block()] * 5 + [degenerate] + [make_p1_block()] * 5
        window = GmpWindow(tuple(blocks), (0.0,), -5)
        with pytest.raises(ValidationError, match="left the class"):
            flow_run(window, 1)

    def test_substep_commutes_with_flow(self):
        cases = []
        cases.append(perturbed_p1_window(15, -7))
        rng = np.random.default_rng(23)
        cases.append(random_window(rng, 2, 13, -6))
        for window in cases:
            path_a = omega_step(window)
            path_b = window
            for _ in range(3):
                path_a = jacobi_flow_step(path_a)
                path_b = jacobi_flow_step(path_b)
            path_b = omega_step(path_b)
            assert path_a.j_min == path_b.j_min
            assert path_a.j_max == path_b.j_max
            npt.assert_allclose(path_a.c, path_b.c)
            for x, y in zip(path_a.blocks, path_b.blocks):
                npt.assert_allclose(x.p, y.p, atol=1e-9)
                npt.assert_allclose(x.q, y.q, atol=1e-9)


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
