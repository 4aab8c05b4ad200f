"""Mapped-operator entropy: blocks, identities, diagnostics, densities."""

import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    make_estar_gapset,
    make_p1_window,
    make_perturbed_window,
    reference_blocks,
    roundtrip_inputs,
    solved_comb_map,
    stack_window,
    sum_rule_window,
    wrapped_dense,
)
from oracles import block_diagonal, per_state_drops, sum_rule_spectral_side, u_block_map_run
from oracles_mp import local_delta_column

from gmpflow import ks, numkit
from gmpflow.errors import (
    NumericalError,
    SpectrumProximityError,
    ValidationError,
    WindowError,
)
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps
from gmpflow.flow import flow_states, jacobi_flow_step, u_block
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense
from gmpflow.isospectral import solve_is_point
from gmpflow.ks import (
    DeltaBlocks,
    KsDiagnostics,
    KsFunctionalReport,
    delta_J_H,
    delta_of_gmp,
    density_identity,
    functional_report,
    h_term,
    ks_diagnostics,
    telescoping_check,
)


def estar_delta() -> DeltaData:
    return delta_from_gaps(make_estar_gapset())


def decaying_window(eps: float = 0.03, n_blocks: int = 21, rate: float = 0.5):
    """Near-periodic window whose perturbation decays away from block 0."""
    half = n_blocks // 2
    blocks = [
        GmpBlock(
            [np.sqrt(2.0) + eps * rate ** abs(j), 0.5],
            [eps / 3.0 * 0.7 ** abs(j), 0.0],
        )
        for j in range(-half, n_blocks - half)
    ]
    return stack_window(blocks, (0.0,), j_min=-half)


def bumped_window(n_blocks: int = 27):
    """Exactly periodic window except for one modified central block."""
    half = n_blocks // 2
    p1 = GmpBlock([np.sqrt(2.0), 0.5], [0.0, 0.0])
    blocks = [p1] * n_blocks
    blocks[half] = GmpBlock([np.sqrt(2.0) + 0.08, 0.5], [0.05, 0.0])
    return stack_window(blocks, (0.0,), j_min=-half)


def mapped_run(w: GmpWindow, d: DeltaData, n: int, margin: int = 3):
    """Mapped states of the n-step flow run of ``w``."""
    states = [w]
    for _ in range(n):
        states.append(jacobi_flow_step(states[-1]))
    return delta_of_gmp(states, d, margin)


def step_rotations(w: GmpWindow) -> np.ndarray:
    """The rotations of the flow step of ``w``."""
    rotations = []
    jacobi_flow_step(w, rotations)
    return rotations[0]


def telescope(w: GmpWindow, d: DeltaData, n: int, margin: int = 3) -> dict:
    """Telescoping report of the n-step run of ``w`` against its shift."""
    return telescoping_check(mapped_run(w, d, n, margin))


def reference_column_share(db: DeltaBlocks, j: int, m: int) -> float:
    """Entropy share of slot m of block row j, one scalar column at a time."""
    v_in, w_here = db.v_blocks[j - db.j_lo], db.w_blocks[j - db.j_lo]
    v_out = db.v_blocks[j + 1 - db.j_lo]
    norm_sq = float(
        np.sum(v_in[:, m] ** 2) + np.sum(w_here[:, m] ** 2) + np.sum(v_out[m, :] ** 2)
    )
    return 0.5 * norm_sq - 1.0 - float(np.log(v_in[m, m] * v_out[m, m]))


def origin_term(db: DeltaBlocks) -> float:
    """Entropy term of block row 0, from a single block triple."""
    return h_term(db.v(0), db.w_blocks[-db.j_lo], db.v(1))


def reference_telescoping(w: GmpWindow, d: DeltaData, n: int) -> dict:
    """The n-step comparison computed on its own: two fresh flow runs of
    n steps, a fresh comb map of each of their states, and one scalar
    column and one block triple at a time."""
    dbs = mapped_run(w, d, n)
    dbs_shifted = mapped_run(relabelled(w), d, n)
    left = sum(reference_column_share(dbs[m], -1, w.g) for m in range(1, n + 1))
    right = sum(reference_column_share(dbs_shifted[m], -1, w.g) for m in range(1, n + 1))
    lhs = left + origin_term(dbs[n])
    rhs = origin_term(dbs[0]) + right
    det_lhs = float(np.linalg.det(dbs[0].v(0)))
    det_rhs = float(np.linalg.det(dbs[n].v(0)))
    for m in range(1, n + 1):
        det_lhs *= float(dbs[m].v(0)[w.g, w.g])
        det_rhs *= float(dbs[m].v(-1)[w.g, w.g])
    return {
        "residual": abs(lhs - rhs),
        "det_lhs": det_lhs,
        "det_rhs": det_rhs,
        "det_residual": abs(det_lhs - det_rhs) / max(1.0, abs(det_lhs), abs(det_rhs)),
    }


def eigen_comb_map(mat: np.ndarray, d: DeltaData) -> np.ndarray:
    """The comb map of a symmetric matrix through one eigendecomposition,
    in the operation order of ``delta_of_gmp``."""
    vals, vecs = numkit.sym_eigen(mat)
    weights = np.zeros(vals.size)
    for ck, lk in d.poles:
        weights += lk / (ck - vals)
    mapped = d.lambda0 * mat + d.c0 * np.eye(vals.size)
    mapped += (vecs * weights) @ vecs.T
    return 0.5 * (mapped + mapped.T)


def stacked_centres(P: np.ndarray, states) -> list[tuple[int, int]]:
    """(state, j) of each pair of a ``resolvent_column`` stack, found by its
    rows: the blocks j-2..j+2 of that state."""
    return [next((m, j) for m, st in enumerate(states) for j in range(st.j_min + 2, st.j_max - 1)
                 if np.array_equal(st.P[j - st.j_min - 2 : j - st.j_min + 3], rows)) for rows in P]


def tagged_p1_window(n_blocks: int, j_min: int) -> GmpWindow:
    """``make_p1_window`` with p scaled by 1 + 1e-3 per block, so that no two
    runs of its blocks are equal."""
    w = make_p1_window(n_blocks, j_min)
    return GmpWindow(w.P * (1.0 + 1e-3 * np.arange(n_blocks))[:, None], w.Q, w.c, j_min)


def raw_blocks(db: DeltaBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Coupling and diagonal blocks of ``db`` with its signs undone: the
    blocks in the sign gauge of the window they were mapped from."""
    prev = np.vstack([np.ones_like(db.signs[:1]), db.signs[:-1]])
    return (prev[:, :, None] * db.signs[:, None, :] * db.v_blocks,
            db.signs[:-1, :, None] * db.signs[:-1, None, :] * db.w_blocks)


def relabelled(w: GmpWindow) -> GmpWindow:
    """The same blocks one label lower: block j becomes block j - 1."""
    return GmpWindow(w.P, w.Q, w.c, w.j_min - 1)


def twogap_delta() -> DeltaData:
    return delta_from_gaps(GapSet(-2.0, 2.0, ((-1.2, -0.4), (0.5, 1.1))))


def twogap_surface_block(d: DeltaData) -> GmpBlock:
    seed = GmpBlock([0.4, 0.4, 1.0 / d.lambda0], [0.0, 0.0, 0.0])
    return solve_is_point(d, seed).block


def perturbed_case(genus: int) -> tuple[DeltaData, GmpWindow]:
    """A comb map and a perturbed window of that genus (27 blocks for
    g=1, 41 for g=2)."""
    if genus == 1:
        return estar_delta(), decaying_window(0.05, 27)
    d = twogap_delta()
    return d, make_perturbed_window(twogap_surface_block(d), d.cs())


class TestDeltaOfGmp:
    def test_periodic_window_maps_to_two_shift(self):
        w = make_p1_window(n_blocks=21, j_min=-10)
        db = delta_of_gmp([w], estar_delta(), margin=3)[0]
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(db.v(j), np.eye(2), atol=1e-8)
        npt.assert_allclose(db.w_blocks, 0.0, atol=1e-8)

    def test_two_gap_periodic_window_maps_to_two_shift(self):
        d = twogap_delta()
        blk = twogap_surface_block(d)
        w = stack_window([blk] * 15, d.cs(), j_min=-7)
        db = delta_of_gmp([w], d, margin=3)[0]
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(db.v(j), np.eye(3), atol=1e-8)
        npt.assert_allclose(db.w_blocks, 0.0, atol=1e-8)

    def test_trusted_range_bookkeeping(self):
        w = decaying_window()
        db = delta_of_gmp([w], estar_delta(), margin=4)[0]
        assert db.j_lo == w.j_min + 4
        assert db.j_hi == w.j_max - 4
        assert len(db.v_blocks) == db.j_hi - db.j_lo + 2
        assert len(db.w_blocks) == db.j_hi - db.j_lo + 1

    def test_matches_independent_dense_evaluation(self):
        # one dense solve per pole on the wrapped matrix, at g = 1 and 2
        for d, w in ((estar_delta(), decaying_window()), perturbed_case(2)):
            db = delta_of_gmp([w], d, margin=3)[0]
            v_blocks, w_blocks = reference_blocks(solved_comb_map(wrapped_dense(w), d), w, 3)
            npt.assert_allclose(db.v_blocks, v_blocks, rtol=0, atol=1e-12)
            npt.assert_allclose(db.w_blocks, w_blocks, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_matches_50_digit_local_columns(self, genus):
        # block columns j_lo..j_lo + 2 from the local stacked systems at 50
        # digits, normalised by the sign chain that starts at j_lo; the
        # bound is ten times the worst error measured, 5.2e-15
        if genus == 1:
            d, w = estar_delta(), decaying_window(0.05, 9)
        else:
            d = twogap_delta()
            w = make_perturbed_window(twogap_surface_block(d), d.cs(), half=4)
        db = delta_of_gmp([w], d, margin=3)[0]
        eps = np.ones(genus + 1)
        for j in range(db.j_lo, db.j_lo + 3):
            upper, diag, lower = local_delta_column(w, d, j)
            eps_next = eps * np.sign(np.diag(upper))
            npt.assert_allclose(np.outer(eps, eps_next) * upper, db.v(j), rtol=0, atol=6e-14)
            eps = eps_next
            npt.assert_allclose(
                np.outer(eps, eps) * diag, db.w_blocks[j - db.j_lo], rtol=0, atol=6e-14
            )
            eps_lower = eps * np.sign(np.diag(lower))
            npt.assert_allclose(
                np.outer(eps, eps_lower) * lower.T, db.v(j + 1), rtol=0, atol=6e-14
            )

    @pytest.mark.parametrize("where", ["row 0, distance 3", "row j_hi, distance 2"])
    def test_planted_off_band_entry_raises(self, monkeypatch, where):
        # the entry is added to the window matrix and taken out again
        # before the eigendecomposition, so the mapped operator gains
        # lambda0 = 2 times it and nothing else
        w, d = decaying_window(), estar_delta()
        j_hi = w.j_max - 3
        row, col = (0, 3) if where.startswith("row 0") else (j_hi, j_hi + 2)
        plant = np.zeros((w.n_blocks * 2,) * 2)
        i, k = w.scalar_index(row, 1), w.scalar_index(col, 0)
        plant[i, k] = plant[k, i] = 0.5
        honest_dense, honest_eigen = ks.assemble_dense, numkit.sym_eigen
        delta_of_gmp([w], d, margin=3)  # the window itself passes
        monkeypatch.setattr(ks, "assemble_dense", lambda win: honest_dense(win) + plant)
        monkeypatch.setattr(numkit, "sym_eigen", lambda mat: honest_eigen(mat - plant))
        with pytest.raises(NumericalError, match=r"band structure: defect 1\.000e\+00"):
            delta_of_gmp([w], d, margin=3)

    def test_coupling_blocks_lower_triangular(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        for j in range(db.j_lo, db.j_hi + 2):
            assert np.max(np.abs(np.triu(db.v(j), 1))) < 1e-9

    def test_coupling_diagonals_positive(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        for j in range(db.j_lo, db.j_hi + 2):
            assert np.all(np.diag(db.v(j)) > 0)

    def test_pair_sign_flip_is_invisible(self):
        # flipping (p_0, q_0) of one block conjugates the operator by a
        # diagonal sign matrix; the normalised blocks must not move
        w = decaying_window()
        db = delta_of_gmp([w], estar_delta(), margin=3)[0]
        blocks = [w.block(j) for j in range(w.j_min, w.j_max + 1)]
        k = 12
        blk = blocks[k]
        blocks[k] = GmpBlock([-blk.p[0], blk.p[1]], [-blk.q[0], blk.q[1]])
        flipped = stack_window(blocks, w.c, w.j_min)
        assert np.max(np.abs(assemble_dense(flipped) - assemble_dense(w))) > 0.1
        dbf = delta_of_gmp([flipped], estar_delta(), margin=3)[0]
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(dbf.v(j), db.v(j), atol=1e-10)
        npt.assert_allclose(dbf.w_blocks, db.w_blocks, atol=1e-10)

    def test_pole_mismatch_rejected(self):
        w = decaying_window()
        off = DeltaData(2.0, 0.0, ((0.4, 4.0),))
        with pytest.raises(ValidationError, match="poles differ"):
            delta_of_gmp([w], off, margin=3)

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="genus"):
            delta_of_gmp([decaying_window()], twogap_delta(), margin=3)

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError, match="^a run has at least one window$"):
            delta_of_gmp([], estar_delta(), margin=3)

    def test_mixed_pole_lists_rejected(self):
        w = decaying_window()
        moved = GmpWindow(w.P, w.Q, (0.5,), w.j_min)
        with pytest.raises(ValidationError, match="^windows of a run must share one pole list$"):
            delta_of_gmp([w, moved], estar_delta(), margin=3)

    def test_margin_floor(self):
        with pytest.raises(ValidationError, match="margin"):
            delta_of_gmp([decaying_window()], estar_delta(), margin=2)

    def test_margin_can_exhaust_window(self):
        w = make_p1_window(n_blocks=9, j_min=-4)
        with pytest.raises(WindowError, match="trusted"):
            delta_of_gmp([w], estar_delta(), margin=5)

    def test_shift_on_spectrum_rejected(self):
        # zero leading p decouples the gap slots, so the pole position
        # becomes an exact eigenvalue of the wrapped operator
        d = DeltaData(2.0, 0.0, ((0.3, 4.0),))
        bad = GmpBlock([0.0, 0.5], [0.0, 0.0])
        w = stack_window([bad] * 15, (0.3,), j_min=-7)
        with pytest.raises(SpectrumProximityError, match="shift"):
            delta_of_gmp([w], d, margin=3)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_stacked_blocks_match_blockwise_slices_bitwise(self, genus):
        d, w = perturbed_case(genus)
        db = delta_of_gmp([w], d, margin=3)[0]
        v_blocks, w_blocks = reference_blocks(eigen_comb_map(wrapped_dense(w), d), w, 3)
        assert db.v_blocks.shape == (len(v_blocks), genus + 1, genus + 1)
        assert db.w_blocks.shape == (len(w_blocks), genus + 1, genus + 1)
        assert np.array_equal(db.v_blocks, v_blocks)
        assert np.array_equal(db.w_blocks, w_blocks)

    @pytest.mark.parametrize("block", [0, 1])
    def test_closed_form_column_is_checked_at_blocks_0_and_1(self, monkeypatch, block):
        d, w = perturbed_case(2)
        honest = ks.resolvent_column
        seen = []

        def perturbed(P, Q, c):
            ok, cols = honest(P, Q, c)
            centres = [j for _, j in stacked_centres(P, [w])]
            seen.extend(centres)
            for m, col in zip(ok, cols):
                if centres[m] == block:
                    col[1, 0] += 1e-6  # slot 0 of block j
            return ok, cols

        monkeypatch.setattr(ks, "resolvent_column", perturbed)
        with pytest.raises(NumericalError, match=r"closed form by 1\.000e-06"):
            delta_of_gmp([w], d, margin=3)
        assert seen == [0, 1]

    def test_closed_form_checks_need_their_blocks_trusted(self, monkeypatch):
        # blocks -1..1 (for block 0) and 0..2 (for block 1) must be trusted;
        # one call maps a run and checks all its (state, j) pairs at once
        honest = ks.resolvent_column
        calls = []

        def spy(P, Q, c):
            calls.append(P)
            return honest(P, Q, c)

        d = estar_delta()
        monkeypatch.setattr(ks, "resolvent_column", spy)
        cases = {(9, -4): [0], (9, -3): [1], (9, -5): [], (10, -4): [0, 1]}
        for (n_blocks, j_min), expected in cases.items():
            calls.clear()
            w = tagged_p1_window(n_blocks, j_min)
            delta_of_gmp([w], d, margin=3)
            centres = [j for P in calls for _, j in stacked_centres(P, [w])]
            assert (len(calls), centres) == (min(len(expected), 1), expected), (n_blocks, j_min)
        # state m of this run has trusted rows -3+m..3-m
        states = [st for st, _ in flow_states(tagged_p1_window(13, -6), 3)]
        calls.clear()
        delta_of_gmp(states, d, margin=3)
        (P,) = calls
        assert stacked_centres(P, states) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]

    def test_undefined_closed_form_skips_only_its_own_check(self, monkeypatch):
        # a pair without a closed form (None) is skipped, and the pair after
        # it is still checked
        d, w = perturbed_case(2)
        honest = ks.resolvent_column

        def first_undefined(P, Q, c, skew=0.0):
            ok, cols = honest(P, Q, c)
            assert ok.tolist() == [0, 1]
            cols[1, 1, 0] += skew  # slot 0 of block j of the second pair
            return ok[1:], cols[1:]

        monkeypatch.setattr(ks, "resolvent_column", first_undefined)
        delta_of_gmp([w], d, margin=3)
        monkeypatch.setattr(ks, "resolvent_column",
                            lambda P, Q, c: first_undefined(P, Q, c, 1e-6))
        with pytest.raises(NumericalError, match=r"closed form by 1\.000e-06"):
            delta_of_gmp([w], d, margin=3)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_run_matches_one_state_at_a_time_bitwise(self, genus):
        d, w = perturbed_case(genus)
        states = [st for st, _ in flow_states(w, 8)]
        run = delta_of_gmp(states, d, margin=3)
        assert len(run) == len(states) == 9
        for st, db in zip(states, run):
            alone = delta_of_gmp([st], d, margin=3)[0]
            assert db.j_lo == alone.j_lo
            assert np.array_equal(db.v_blocks, alone.v_blocks)
            assert np.array_equal(db.w_blocks, alone.w_blocks)

    def test_pole_order_of_map_is_irrelevant(self):
        # the closed-form column check must use the window's first pole,
        # not the map's, when the map lists its poles in another order
        d = twogap_delta()
        w = make_perturbed_window(twogap_surface_block(d), d.cs())
        reversed_map = DeltaData(d.lambda0, d.c0, d.poles[::-1])
        db = delta_of_gmp([w], d, margin=3)[0]
        db_rev = delta_of_gmp([w], reversed_map, margin=3)[0]
        assert (db_rev.j_lo, db_rev.j_hi) == (db.j_lo, db.j_hi)
        pairs = zip(
            (*db_rev.v_blocks, *db_rev.w_blocks), (*db.v_blocks, *db.w_blocks)
        )
        for got, want in pairs:
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def run_case(genus: int, n_blocks: int = 41) -> tuple[DeltaData, GmpWindow]:
    """A comb map and a window of that genus: the round-trip inputs, or a
    random window under the gap-free map at genus 0."""
    if genus == 0:
        rng = np.random.default_rng(0)
        P, Q = rng.uniform(0.5, 1.5, (n_blocks, 1)), rng.uniform(-0.5, 0.5, (n_blocks, 1))
        return DeltaData(1.0, 0.0, ()), GmpWindow(P, Q, (), -(n_blocks // 2))
    return roundtrip_inputs(genus, n_blocks)


class TestSumRule:
    def test_ledger_is_the_spectral_side_at_genus_0(self):
        # Killip-Simon: half the entropy summed over every row is the
        # spectral side of the P2 sum rule of the window's Jacobi matrix
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # quad's IntegrationWarning included
            for _ in range(4):
                w = sum_rule_window(rng)
                rep = functional_report([delta_of_gmp([w], DeltaData(1.0, 0.0, ()), 3)[0]])
                mat = assemble_dense(w)
                spectral = sum_rule_spectral_side(np.diag(mat, 1), np.diag(mat))
                assert abs(rep.row_terms[0].sum() / 2 - spectral) <= 1e-12


class TestMapRun:
    @pytest.mark.parametrize(
        "genus, n_blocks, steps",
        [(g, 41, steps) for g in (0, 1, 2, 4) for steps in (1, 8)] + [(2, 241, 8)],
    )
    def test_matches_each_state_alone(self, genus, n_blocks, steps):
        d, w = run_case(genus, n_blocks)
        states, run = ks.map_run(w, d, steps, 3)
        assert len(run) == steps + 1
        for st, db in zip(states, run):
            alone = delta_of_gmp([st], d, 3)[0]
            assert (db.j_lo, db.j_hi) == (alone.j_lo, alone.j_hi)
            npt.assert_allclose(db.v_blocks, alone.v_blocks, rtol=0, atol=1e-13)
            npt.assert_allclose(db.w_blocks, alone.w_blocks, rtol=0, atol=1e-13)

    def test_ends_are_the_eigen_route_bitwise(self):
        d, w = run_case(2)
        states, run = ks.map_run(w, d, 8, 3)
        for db, alone in zip((run[0], run[-1]), delta_of_gmp([states[0], states[-1]], d, 3)):
            assert np.array_equal(db.v_blocks, alone.v_blocks)
            assert np.array_equal(db.w_blocks, alone.w_blocks)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_carry_matches_dense_conjugation(self, genus):
        # the flow step's dense route (oracles.dense_flow_identity_residual):
        # conjugate the mapped matrix by the block diagonal of u_block
        # rotations, shift by one slot, and slice the blocks over the
        # stepped trusted range
        d, w = run_case(genus)
        db = delta_of_gmp([w], d, 3)[0]
        new_v, new_w, _ = ks.carry_blocks(w, step_rotations(w), db)
        o_full = block_diagonal(u_block(w.P))
        conj = o_full.T @ eigen_comb_map(wrapped_dense(w), d) @ o_full
        per = genus + 1
        shifted = conj[per + 1 :, per + 1 :]  # its first block is block w.j_min + 1

        def block(row, col):
            r, c = (row - w.j_min - 1) * per, (col - w.j_min - 1) * per
            return shifted[r : r + per, c : c + per]

        for i, j in enumerate(range(db.j_lo + 1, db.j_hi + 1)):
            npt.assert_allclose(new_v[i], block(j - 1, j), rtol=0, atol=1e-14)
            if j < db.j_hi:
                npt.assert_allclose(new_w[i], block(j, j), rtol=0, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(genus=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_signs_fold_into_the_rotations_bitwise(self, genus, seed, data):
        # blocks of a drawn window under drawn signs: the carry conjugates
        # them by rotations whose rows carry the signs, which gives, bit
        # for bit, the carry of the blocks with the signs undone first
        # (unit signs: the rotations as they are)
        d, w = run_case(genus, 15)
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 15, genus + 1))
        w = GmpWindow(w.P * (1.0 + 0.01 * u[0]), w.Q + 0.01 * u[1], w.c, w.j_min)
        db = delta_of_gmp([w], d, 3)[0]
        raw_v, raw_w = raw_blocks(db)
        signs = data.draw(arrays(float, db.signs.shape, elements=st.sampled_from([-1.0, 1.0])))
        prev = np.vstack([np.ones_like(signs[:1]), signs[:-1]])
        signed = DeltaBlocks(db.j_lo, prev[:, :, None] * signs[:, None, :] * raw_v,
                             signs[:-1, :, None] * signs[:-1, None, :] * raw_w, signs)
        unsigned = DeltaBlocks(db.j_lo, raw_v, raw_w, np.ones_like(signs))
        u = step_rotations(w)
        for got, want in zip(ks.carry_blocks(w, u, signed), ks.carry_blocks(w, u, unsigned)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("where, entry", [("slot 0 of a coupling", (0, 2)),
                                              ("upper triangle", (1, 2))])
    def test_planted_out_of_pattern_entry_raises(self, monkeypatch, where, entry):
        # the entry is planted where the conjugation lands it: at row slot r
        # and column slot s of the fifth conjugated coupling; slot 0 leaves
        # the band under the shift, and slots (1, 2) become the upper
        # triangle entry (0, 1) of a new coupling
        d, w = run_case(2)
        honest = ks.carry_blocks

        def carry(window, rot, db, state=""):
            if state == "state 5: ":
                # the rotations the carry conjugates by (the step's, from
                # row 1 on): the signs of db in their rows
                signs = np.vstack([np.ones_like(db.signs[:1]), db.signs])
                u = rot[db.j_lo - 2 - window.j_min :][:6] * signs[:6, :, None]
                unit = np.zeros((3, 3))
                unit[entry] = 0.5
                v = db.v_blocks.copy()
                v[4] += u[4] @ unit @ u[5].T  # blocks j_lo + 3 and j_lo + 4
                db = DeltaBlocks(db.j_lo, v, db.w_blocks, db.signs)
            return honest(window, rot, db, state)

        ks.map_run(w, d, 8, 3)  # the run itself passes
        monkeypatch.setattr(ks, "carry_blocks", carry)
        with pytest.raises(NumericalError, match=r"^state 5: carried operator lost its band "
                                                 r"structure: defect 5\.000e-01 exceeds "
                                                 r"\d\.\d{3}e-0\d$"):
            ks.map_run(w, d, 8, 3)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_planted_drift_raises(self, monkeypatch, factor):
        # a diagonal entry keeps its sign under normalisation, so the drift
        # is the planted one; half the bound passes and twice it raises
        d, w = run_case(2)
        honest = ks.carry_blocks
        drift = []

        def carry(window, u, db, state=""):
            new_v, new_w, scale = honest(window, u, db, state)
            if state == "state 8: ":
                drift.append(factor * ks.CARRY_DRIFT_REL * scale)
                new_w[1, 0, 0] += drift[0]
            return new_v, new_w, scale

        monkeypatch.setattr(ks, "carry_blocks", carry)
        if factor < 1:
            ks.map_run(w, d, 8, 3)
            return
        with pytest.raises(NumericalError, match=r"^state 8: carried blocks deviate from the "
                                                 r"eigen route by \d\.\d{3}e-\d\d exceeds "
                                                 r"\d\.\d{3}e-\d\d$") as err:
            ks.map_run(w, d, 8, 3)
        value, bound = str(err.value).split()[-3::2]
        assert float(value) == pytest.approx(drift[0], rel=1e-2)
        assert float(bound) == pytest.approx(drift[0] / factor, rel=1e-3)

    def test_vanishing_carried_diagonal_names_its_state(self, monkeypatch):
        d, w = run_case(1)
        honest = ks.normalized_blocks

        def zeroed(j_lo, raw_v, raw_w, scale, state=""):
            if state == "state 3: ":
                raw_v = raw_v.copy()
                raw_v[2, 1, 1] = 0.0
            return honest(j_lo, raw_v, raw_w, scale, state)

        monkeypatch.setattr(ks, "normalized_blocks", zeroed)
        with pytest.raises(NumericalError, match=r"^state 3: vanishing coupling block "
                           r"diagonal entry 0\.000e\+00 is below \d\.\d{3}e-12$"):
            ks.map_run(w, d, 8, 3)

    @pytest.mark.parametrize("genus", [1, 2, 4, 8])
    def test_run_and_drops_are_the_u_block_route_bitwise(self, genus):
        # the oracle builds the rotations of every carried state itself and
        # takes the drops one state at a time
        d, w = run_case(genus)
        states, run = ks.map_run(w, d, 8, 3)
        want = u_block_map_run(states, d, 3)
        assert len(run) == len(want) == 9
        for got, ref in zip(run, want):
            assert got.j_lo == ref.j_lo
            for name in ("v_blocks", "w_blocks", "signs"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        rep, drops = functional_report(run), per_state_drops(want)
        assert np.array_equal(rep.step_drops, drops[:, 0])
        assert np.array_equal(rep.shifted_drops, drops[:, 1])

    def test_empty_run_rejected(self):
        d, w = run_case(1)
        with pytest.raises(ValidationError, match="^n_steps must be at least 1$"):
            ks.map_run(w, d, 0, 3)


class TestDeltaBlocksType:
    def test_signs_undone_are_the_mapped_matrix_bitwise(self):
        d, w = perturbed_case(2)
        db = delta_of_gmp([w], d, margin=3)[0]
        mapped = eigen_comb_map(wrapped_dense(w), d)
        per, (raw_v, raw_w) = 3, raw_blocks(db)
        for i, j in enumerate(range(db.j_lo, db.j_hi + 2)):
            r = w.scalar_index(j, 0)
            assert np.array_equal(raw_v[i], mapped[r - per : r, r : r + per])
            if j <= db.j_hi:
                assert np.array_equal(raw_w[i], mapped[r : r + per, r : r + per])

    def test_accessors_reject_outside_range(self):
        db = delta_of_gmp([make_p1_window(n_blocks=15, j_min=-7)], estar_delta(), 3)[0]
        with pytest.raises(WindowError):
            db.v(db.j_lo - 1)
        with pytest.raises(WindowError):
            db.column_shares(db.j_lo, db.j_hi + 1)
        assert db.v(db.j_hi + 1).shape == (2, 2)

    def test_block_count_must_match_range(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        for n_couplings in (2, 4):
            with pytest.raises(ValidationError, match="count"):
                DeltaBlocks(j_lo=0, v_blocks=(eye,) * n_couplings, w_blocks=(zero, zero),
                            signs=np.ones((n_couplings, 2)))
        db = DeltaBlocks(j_lo=-1, v_blocks=(eye,) * 3, w_blocks=(zero, zero), signs=np.ones((3, 2)))
        assert (db.g, db.j_lo, db.j_hi) == (1, -1, 0)

    def test_blocks_are_frozen(self):
        db = delta_of_gmp([make_p1_window(n_blocks=15, j_min=-7)], estar_delta(), 3)[0]
        with pytest.raises(ValueError):
            db.v(0)[0, 0] = 5.0


class TestHTerm:
    def test_two_shift_pattern_is_exact_zero(self):
        assert h_term(np.eye(2), np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_reference_value(self):
        value = h_term(2.0 * np.eye(2), np.zeros((2, 2)), np.eye(2))
        npt.assert_allclose(value, 3.0 - np.log(4.0), rtol=1e-13)

    def test_nonnegative_on_positive_determinant_samples(self):
        rng = np.random.default_rng(404)
        worst = np.inf
        for _ in range(10_000):
            v0 = np.tril(0.6 * rng.standard_normal((2, 2)), -1) + np.diag(
                np.exp(0.5 * rng.standard_normal(2))
            )
            v1 = np.tril(0.6 * rng.standard_normal((2, 2)), -1) + np.diag(
                np.exp(0.5 * rng.standard_normal(2))
            )
            raw = 0.5 * rng.standard_normal((2, 2))
            worst = min(worst, h_term(v0, raw + raw.T, v1))
        assert worst >= -1e-10

    def test_positive_determinant_required(self):
        flipped = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError, match="determinant"):
            h_term(flipped, np.zeros((2, 2)), np.eye(2))

    def test_symmetric_diagonal_block_required(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            h_term(np.eye(2), skew, np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            h_term(np.eye(2), np.zeros((3, 3)), np.eye(2))

    @pytest.mark.parametrize("genus", [1, 2])
    def test_stack_matches_scalar_calls_bitwise(self, genus):
        # the ledger's one stacked call over every state gives each row the
        # bits of its own call
        d, w = perturbed_case(genus)
        run = mapped_run(w, d, 2)
        report = functional_report(run)
        for db, stacked in zip(run, report.row_terms, strict=True):
            scalar = [h_term(*t) for t in zip(db.v_blocks[:-1], db.w_blocks, db.v_blocks[1:])]
            assert stacked.shape == (db.j_hi - db.j_lo + 1,)
            assert np.array_equal(stacked, scalar)

    def test_random_stacks_match_scalar_calls_bitwise(self):
        rng = np.random.default_rng(405)
        for dim in (2, 3, 5):
            v = np.tril(rng.standard_normal((30, dim, dim)), -1) + np.exp(
                rng.standard_normal((30, 1, dim))
            ) * np.eye(dim)
            raw = rng.standard_normal((29, dim, dim))
            w = raw + np.swapaxes(raw, 1, 2)
            stacked = h_term(v[:-1], w, v[1:])
            assert np.array_equal(stacked, [h_term(*t) for t in zip(v[:-1], w, v[1:])])

    def test_stack_rejects_any_bad_triple(self):
        v = np.stack([np.eye(2)] * 3)
        v[1, 1, 1] = -1.0
        with pytest.raises(ValidationError, match="determinant"):
            h_term(v[:-1], np.zeros((2, 2, 2)), v[1:])


def ledger(db: DeltaBlocks) -> KsFunctionalReport:
    """Entropy ledger of a single mapped state."""
    return functional_report([db])


class TestHPlusPartial:
    """Partial sums of the ledger's row terms, in row order."""

    def test_periodic_window_sums_to_zero(self):
        db = delta_of_gmp([make_p1_window(n_blocks=21, j_min=-10)], estar_delta(), 3)[0]
        assert abs(np.sum(ledger(db).terms(0, 0, 3))) < 1e-8

    def test_single_block_matches_term(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        npt.assert_allclose(ledger(db).terms(0, 0, 0), [origin_term(db)], rtol=1e-13)

    def test_monotone_under_extension(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        shorter, longer = np.cumsum(ledger(db).terms(0, 0, 4))[3:]
        assert longer >= shorter - 1e-10

    def test_range_outside_trusted_rejected(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        with pytest.raises(WindowError, match="trusted"):
            ledger(db).terms(0, db.j_lo - 1, 0)

    def test_empty_range_is_zero(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        assert np.sum(ledger(db).terms(0, 2, 1)) == 0.0

    def test_sums_scalar_terms_left_to_right_bitwise(self):
        d, w = perturbed_case(2)
        db = delta_of_gmp([w], d, margin=3)[0]
        report = ledger(db)
        for first, last in ((0, 13), (db.j_lo, db.j_hi)):
            total = 0.0
            for j in range(first, last + 1):
                i = j - db.j_lo
                total += h_term(db.v_blocks[i], db.w_blocks[i], db.v_blocks[i + 1])
            assert np.cumsum(report.terms(0, first, last))[-1] == total, (first, last)


class TestColumnTerm:
    """The per-column entropy shares of ``DeltaBlocks.column_shares``."""

    def test_block_row_decomposes_into_columns(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        total = np.sum(db.column_shares(0, 0))
        npt.assert_allclose(total, ledger(db).terms(0, 0, 0)[0], rtol=1e-12)

    def test_periodic_column_vanishes(self):
        db = delta_of_gmp([make_p1_window(n_blocks=21, j_min=-10)], estar_delta(), 3)[0]
        assert abs(db.column_shares(-1, -1)[0, -1]) < 1e-10

    def test_columns_nonnegative(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        assert np.min(db.column_shares(db.j_lo, db.j_hi)) >= -1e-10

    def test_outside_trusted_range_rejected(self):
        db = delta_of_gmp([decaying_window()], estar_delta(), margin=3)[0]
        with pytest.raises(WindowError, match="trusted"):
            db.column_shares(db.j_hi + 1, db.j_hi + 1)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_matches_scalar_columns_bitwise(self, genus):
        d, w = perturbed_case(genus)
        db = delta_of_gmp([w], d, margin=3)[0]
        shares = db.column_shares(db.j_lo, db.j_hi)
        for j in range(db.j_lo, db.j_hi + 1):
            for m in range(genus + 1):
                assert shares[j - db.j_lo, m] == reference_column_share(db, j, m), (j, m)

    def test_random_stacks_match_scalar_columns_bitwise(self):
        # from 8 slots on, numpy sums a 1-d vector pairwise, not in order
        rng = np.random.default_rng(406)
        for dim in (3, 8, 9, 13):
            v = np.tril(rng.standard_normal((12, dim, dim)), -1) + np.exp(
                rng.standard_normal((12, 1, dim))
            ) * np.eye(dim)
            db = DeltaBlocks(j_lo=-5, v_blocks=v, w_blocks=rng.standard_normal((11, dim, dim)),
                             signs=np.ones((12, dim)))
            shares = db.column_shares(-5, 5)
            for j in range(-5, 6):
                scalar = [reference_column_share(db, j, m) for m in range(dim)]
                assert np.array_equal(shares[j + 5], scalar), (dim, j)


def one_step_sides(w: GmpWindow, d: DeltaData, j_top: int) -> tuple[float, float]:
    """Rows 0..j_top of the mapped window, against the drop plus the same
    rows after one step less the share of the last column they cover."""
    run = mapped_run(w, d, 1)
    report = functional_report(run)
    last_column = run[1].column_shares(j_top, j_top)[0, -1]
    rhs = delta_J_H(w, d) + np.sum(report.terms(1, 0, j_top)) - last_column
    return np.sum(report.terms(0, 0, j_top)), rhs


class TestDeltaJH:
    def test_periodic_window_has_zero_drop(self):
        assert abs(delta_J_H(make_p1_window(21, j_min=-10), estar_delta())) < 1e-9

    def test_drop_is_nonnegative(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            half = 9
            blocks = [
                GmpBlock(
                    [
                        np.sqrt(2.0)
                        + 0.05 * rng.standard_normal() * 0.6 ** abs(j),
                        0.5,
                    ],
                    [0.04 * rng.standard_normal() * 0.6 ** abs(j), 0.0],
                )
                for j in range(-half, half + 1)
            ]
            w = stack_window(blocks, (0.0,), j_min=-half)
            assert delta_J_H(w, estar_delta()) >= -1e-10

    def test_one_step_drop_identity(self):
        # partial sum over blocks 0..J of the mapped window equals the
        # drop term plus the stepped partial sum, corrected by the
        # entropy share of the last scalar column of the stepped range
        w = bumped_window()
        d = estar_delta()
        j_top = 4
        lhs, rhs = one_step_sides(w, d, j_top)
        assert abs(lhs - rhs) < 1e-8
        assert lhs > 1e-3

    def test_two_gap_one_step_drop_identity(self):
        d = twogap_delta()
        blk = twogap_surface_block(d)
        rng = np.random.default_rng(7)
        blocks = []
        for j in range(-10, 11):
            dp = 0.02 * rng.standard_normal(3) * 0.6 ** abs(j)
            dq = 0.02 * rng.standard_normal(3) * 0.6 ** abs(j)
            blocks.append(GmpBlock(blk.p + dp, blk.q + dq))
        w = stack_window(blocks, d.cs(), j_min=-10)
        j_top = 2
        lhs, rhs = one_step_sides(w, d, j_top)
        assert abs(lhs - rhs) < 1e-8

    def test_window_too_narrow(self):
        with pytest.raises(WindowError):
            delta_J_H(make_p1_window(7, j_min=-3), estar_delta())


class TestTelescoping:
    def test_flow_run_matches_single_shift(self):
        report = telescope(decaying_window(0.05, 27), estar_delta(), 5)
        ledger = report["report"]
        assert report["residual"] < 1e-9
        assert report["det_residual"] < 1e-10
        assert len(ledger.step_drops) == 5
        assert len(ledger.shifted_drops) == 5
        assert ledger.h_origin[0] > 0

    def test_constant_window_is_shift_invariant(self):
        pert = GmpBlock([np.sqrt(2.0) + 0.05, 0.5], [0.02, 0.0])
        w = stack_window([pert] * 23, (0.0,), j_min=-11)
        ledger = telescope(w, estar_delta(), 4)["report"]
        npt.assert_allclose(ledger.step_drops, ledger.shifted_drops, atol=1e-12)

    def test_periodic_window_all_terms_vanish(self):
        report = telescope(make_p1_window(23, j_min=-11), estar_delta(), 3)
        assert report["residual"] < 1e-12
        assert abs(report["report"].h_origin[0]) < 1e-10
        assert np.max(np.abs(report["report"].step_drops)) < 1e-10

    def test_accumulated_drops_match_partial_sum_decrease(self):
        w = bumped_window()
        d = estar_delta()
        n, j_top = 4, 2
        run = mapped_run(w, d, n)
        report = functional_report(run)
        drop = np.sum(report.terms(0, 0, j_top)) - np.sum(report.terms(n, 0, j_top))
        accumulated = np.sum(report.step_drops) - sum(
            run[m].column_shares(j_top, j_top)[0, -1] for m in range(1, n + 1)
        )
        assert abs(drop - accumulated) < 1e-7

    def test_relabelled_drop_is_column_g_of_the_run(self):
        # the run of the window relabelled by one steps the same blocks, so
        # its drop term is scalar column g of the run's own mapped state
        d, w = perturbed_case(2)
        run = mapped_run(w, d, 8)
        shifted_drops = functional_report(run).shifted_drops
        state, shifted = w, relabelled(w)
        for m, db in enumerate(run):
            assert np.array_equal(shifted.P, state.P)
            assert np.array_equal(shifted.Q, state.Q)
            fresh = delta_of_gmp([shifted], d, margin=3)[0]
            share = fresh.column_shares(-1, -1)[0, -1]
            assert db.column_shares(0, 0)[0, -1] == share, m
            assert m == 0 or shifted_drops[m - 1] == share, m
            state, shifted = jacobi_flow_step(state), jacobi_flow_step(shifted)

    def test_step_floor(self):
        with pytest.raises(ValidationError, match="one step"):
            telescope(decaying_window(), estar_delta(), 0)

    def test_running_sums_match_runs_of_each_length(self):
        # one run of 8 steps, as ``gmpflow ks --steps 8`` maps it, gives
        # every n exactly the residual of two fresh n-step runs
        d = twogap_delta()
        w = make_perturbed_window(twogap_surface_block(d), d.cs())
        assert (w.n_blocks, w.g) == (41, 2)
        report = telescoping_check(mapped_run(w, d, 8))
        per_n = [reference_telescoping(w, d, n) for n in range(1, 9)]
        assert report["n"] == 8
        residuals = [0.0] + [r["residual"] for r in per_n]
        assert np.array_equal(report["report"].residuals, residuals)
        for key in ("residual", "det_lhs", "det_rhs", "det_residual"):
            assert report[key] == per_n[-1][key], key


class TestFunctionalReport:
    def test_shapes_and_partial_sums(self):
        run = mapped_run(decaying_window(0.05, 27), estar_delta(), 3)
        report = functional_report(run)
        for m, db in enumerate(run):
            assert report.j_lo[m] == db.j_lo
            assert report.row_terms[m].shape == (db.j_hi - db.j_lo + 1,)
            assert report.h_origin[m] == report.terms(m, 0, 0)[0]
        assert report.h_origin.shape == (4,)
        assert report.step_drops.shape == report.shifted_drops.shape == (3,)
        assert report.residuals.shape == (4,) and report.residuals[0] == 0.0

    def test_drops_match_pointwise_evaluation(self):
        w = decaying_window(0.05, 27)
        d = estar_delta()
        report = functional_report(mapped_run(w, d, 3))
        state = w
        for m in range(3):
            npt.assert_allclose(
                report.step_drops[m], delta_J_H(state, d), rtol=1e-10
            )
            state = jacobi_flow_step(state)

    def test_entropy_floor_enforced(self):
        # every row of every state and both drops of every step
        def report(**changed):
            fields = {
                "j_lo": (0, 0),
                "row_terms": (np.zeros(2), np.zeros(1)),
                "h_origin": np.zeros(2),
                "step_drops": np.zeros(1),
                "shifted_drops": np.zeros(1),
                "residuals": np.zeros(2),
            }
            return KsFunctionalReport(**{**fields, **changed})

        report()
        below = [
            {"row_terms": (np.array([0.0, -1.0]), np.zeros(1))},
            {"row_terms": (np.zeros(2), np.array([-1.0]))},
            {"h_origin": np.array([0.0, -1.0])},
            {"step_drops": np.array([-1.0])},
            {"shifted_drops": np.array([-1.0])},
        ]
        for changed in below:
            with pytest.raises(ValidationError,
                               match=r"^entropy term -1\.000e\+00 is below -1\.000e-10$"):
                report(**changed)
        not_finite = [
            {"row_terms": (np.zeros(2), np.array([np.nan]))},
            {"h_origin": np.array([0.0, np.inf])},
            {"step_drops": np.array([np.nan])},
            {"shifted_drops": np.array([np.inf])},
            {"residuals": np.array([0.0, np.nan])},
        ]
        for changed in not_finite:
            with pytest.raises(ValidationError, match="^entropy report contains non-finite terms$"):
                report(**changed)

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError, match="^a flow run has at least one state$"):
            functional_report([])

    def test_origin_outside_trusted_range_rejected(self):
        db = delta_of_gmp([make_p1_window(n_blocks=9, j_min=-12)], estar_delta(), 3)[0]
        assert db.j_hi < 0
        with pytest.raises(WindowError, match="trusted"):
            functional_report([db])
        with pytest.raises(WindowError, match="trusted"):
            telescoping_check([db, db])

    def test_zero_steps(self):
        report = functional_report(mapped_run(decaying_window(), estar_delta(), 0))
        assert report.step_drops.shape == report.shifted_drops.shape == (0,)
        assert report.h_origin.shape == (1,)
        assert np.array_equal(report.residuals, [0.0])


class TestKsDiagnostics:
    def test_periodic_surface_stays_silent(self):
        states = [st for st, _ in flow_states(make_p1_window(13, j_min=-6), 4)]
        diag = ks_diagnostics(states, estar_delta())
        for arr in diag.values.values():
            assert np.max(np.abs(arr)) < 1e-9
        assert not any(diag.diverging.values())

    def test_decaying_perturbation_stays_bounded(self):
        states = [st for st, _ in flow_states(decaying_window(0.01, 19), 6)]
        diag = ks_diagnostics(states, estar_delta())
        assert not any(diag.diverging.values())
        for arr in diag.sq_partials.values():
            assert np.all(np.isfinite(arr))

    def test_growing_coefficients_flagged(self):
        states = tuple(
            stack_window(
                [GmpBlock([np.sqrt(2.0) + 0.2 * m, 0.5], [0.0, 0.0])] * 5,
                (0.0,),
                j_min=-2,
            )
            for m in range(9)
        )
        diag = ks_diagnostics(states, estar_delta())
        assert diag.diverging["lambda_gap"]
        assert not diag.diverging["p_next"]

    def test_partial_sums_are_squared_cumsums(self):
        states = [st for st, _ in flow_states(decaying_window(0.02, 19), 5)]
        diag = ks_diagnostics(states, estar_delta())
        for name, arr in diag.values.items():
            npt.assert_allclose(
                diag.sq_partials[name], np.cumsum(arr**2, axis=0)
            )

    def test_states_need_central_blocks(self):
        lone = stack_window(
            [GmpBlock([np.sqrt(2.0), 0.5], [0.0, 0.0])] * 3, (0.0,), j_min=0
        )
        with pytest.raises(WindowError, match="blocks"):
            ks_diagnostics((lone,), estar_delta())

    def test_genus_mismatch_rejected(self):
        states = [st for st, _ in flow_states(make_p1_window(13, j_min=-6), 2)]
        with pytest.raises(ValidationError, match="genus"):
            ks_diagnostics(states, twogap_delta())

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValidationError, match="^trajectory has no states$"):
            ks_diagnostics((), estar_delta())

    def test_non_finite_family_rejected(self):
        values = {"p_next": np.zeros((2, 1)), "pairing": np.array([0.0, np.nan])}
        sq = {name: np.cumsum(v**2, axis=0) for name, v in values.items()}
        with pytest.raises(ValidationError, match="^diagnostic family pairing is not finite$"):
            KsDiagnostics(values, sq, dict.fromkeys(values, 0.0), dict.fromkeys(values, False))

    def test_pole_order_of_map_is_irrelevant(self):
        # Lambda_k of the central block is taken at the window's poles and
        # must be compared with the weight of the same pole of the map
        d = twogap_delta()
        w = make_perturbed_window(twogap_surface_block(d), d.cs())
        states = [st for st, _ in flow_states(w, 3)]
        reversed_map = DeltaData(d.lambda0, d.c0, d.poles[::-1])
        diag = ks_diagnostics(states, d)
        diag_rev = ks_diagnostics(states, reversed_map)
        for name, arr in diag.values.items():
            npt.assert_array_equal(diag_rev.values[name], arr)

    def test_other_poles_rejected(self):
        states = [st for st, _ in flow_states(make_p1_window(13, j_min=-6), 2)]
        d = estar_delta()
        shifted = DeltaData(d.lambda0, d.c0, ((0.1, d.poles[0][1]),))
        with pytest.raises(ValidationError, match="poles differ"):
            ks_diagnostics(states, shifted)


class TestDensityIdentity:
    def test_single_pole_closed_form(self):
        report = density_identity([5.0], [1.0], 0.5)
        npt.assert_allclose(report["roots"], [3.0], rtol=1e-12)
        npt.assert_allclose(report["det_w"], 0.5, rtol=1e-12)
        npt.assert_allclose(report["deriv_product"], 0.25, rtol=1e-12)
        assert report["det_w_residual"] < 1e-12
        assert report["deriv_residual"] < 1e-12

    def test_two_pole_identities(self):
        c, lam, y = [0.0, 3.0], [1.0, 1.0], 1.0
        report = density_identity(c, lam, y)
        roots = report["roots"]
        assert roots.shape == (2,)
        assert np.all(np.diff(roots) > 0)
        for x in roots:
            npt.assert_allclose(
                np.sum(np.array(lam) / (np.array(c) - x)), y, atol=1e-9
            )
        assert report["det_w_residual"] < 1e-10
        assert report["deriv_residual"] < 1e-10

    def test_level_sign_places_outer_preimage(self):
        c, lam = [0.0, 3.0], [1.0, 1.0]
        above = density_identity(c, lam, 1.0)
        below = density_identity(c, lam, -1.0)
        assert above["roots"][0] < 0.0
        assert below["roots"][-1] > 3.0

    def test_pole_order_flips_determinant_sign(self):
        fwd = density_identity([0.0, 3.0], [1.0, 1.0], 1.0)
        rev = density_identity([3.0, 0.0], [1.0, 1.0], 1.0)
        npt.assert_allclose(rev["det_w"], -fwd["det_w"], rtol=1e-12)

    def test_zero_level_rejected(self):
        with pytest.raises(ValidationError, match="level zero"):
            density_identity([0.0, 3.0], [1.0, 1.0], 0.0)

    @pytest.mark.parametrize("c, lam", [
        ([0.0, 3.0], [1.0]), ([[0.0, 3.0]], [[1.0, 1.0]]), ([], []),
    ])
    def test_matching_arrays_required(self, c, lam):
        # a nested list is a list in a number's place, refused by the number rule
        message = ("c[0] = [0.0, 3.0] is not a number" if c == [[0.0, 3.0]]
                   else "poles and weights must be matching 1-d arrays")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            density_identity(c, lam, 1.0)

    @pytest.mark.parametrize("c, lam, y, message", [
        ([0.0, "x"], [1.0, 1.0], 1.0, "c[1] = 'x' is not a number"),
        ([0.0, 3.0], [1.0, None], 1.0, "lam[1] = None is not a number"),
        ([0.0, True], [1.0, 1.0], 1.0, "c[1] = True is not a number"),
        ([0.0, 3.0], [1.0, np.inf], 1.0, "lam[1] = inf is infinite"),
        ([0.0, 3.0], [1.0, 1.0], "1.0", "y = '1.0' is not a number"),
        ([0.0, 3.0], [1.0, 1.0], np.nan, "y = nan is not a number"),
    ])
    def test_entries_refused_by_name(self, c, lam, y, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            density_identity(c, lam, y)

    def test_failing_identity_raises(self, monkeypatch):
        # preimages moved off the level: the Cauchy determinant still holds
        # for any points, the derivative product only at true preimages
        bisect = numkit.bisect_root
        monkeypatch.setattr(numkit, "bisect_root", lambda f, lo, hi: bisect(f, lo, hi) + 1e-3)
        with pytest.raises(NumericalError, match=r"^determinant identity of the derivative "
                           r"product: relative residual \S+ exceeds 1\.000e-09$"):
            density_identity([0.0, 3.0], [1.0, 1.0], 1.0)

    def test_positive_weights_required(self):
        with pytest.raises(ValidationError, match="positive"):
            density_identity([0.0, 3.0], [1.0, -1.0], 1.0)

    def test_distinct_poles_required(self):
        # the rule of check_distinct_poles: within 1e-12 relative is one pole
        for second in (1.0, 1.0 + 1e-13):
            message = re.escape(f"poles at 1.0 and {second} coincide")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                density_identity([second, 1.0], [1.0, 1.0], 1.0)
