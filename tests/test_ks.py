"""Mapped-operator entropy: blocks, identities, diagnostics, densities."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (
    make_estar_gapset,
    make_p1_window,
    make_perturbed_window,
    reference_blocks,
    solved_comb_map,
    stack_window,
    wrapped_dense,
)
from oracles_mp import local_delta_column

from gmpflow import ks, numkit
from gmpflow.errors import (
    NumericalError,
    SpectrumProximityError,
    ValidationError,
    WindowError,
)
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps
from gmpflow.flow import flow_run, jacobi_flow_step
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense
from gmpflow.isospectral import solve_is_point
from gmpflow.ks import (
    DeltaBlocks,
    KsFunctionalReport,
    delta_J_H,
    delta_of_gmp,
    density_identity,
    functional_report,
    h_term,
    ks_diagnostics,
    map_chain,
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
    return map_chain(states, d, margin)


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
        db = delta_of_gmp(w, estar_delta(), margin=3)
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(db.v(j), np.eye(2), atol=1e-8)
        npt.assert_allclose(db.w_blocks, 0.0, atol=1e-8)

    def test_two_gap_periodic_window_maps_to_two_shift(self):
        d = twogap_delta()
        blk = twogap_surface_block(d)
        w = stack_window([blk] * 15, d.cs(), j_min=-7)
        db = delta_of_gmp(w, d, margin=3)
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(db.v(j), np.eye(3), atol=1e-8)
        npt.assert_allclose(db.w_blocks, 0.0, atol=1e-8)

    def test_trusted_range_bookkeeping(self):
        w = decaying_window()
        db = delta_of_gmp(w, estar_delta(), margin=4)
        assert db.j_lo == w.j_min + 4
        assert db.j_hi == w.j_max - 4
        assert len(db.v_blocks) == db.j_hi - db.j_lo + 2
        assert len(db.w_blocks) == db.j_hi - db.j_lo + 1

    def test_matches_independent_dense_evaluation(self):
        # one dense solve per pole on the wrapped matrix, at g = 1 and 2
        for d, w in ((estar_delta(), decaying_window()), perturbed_case(2)):
            db = delta_of_gmp(w, d, margin=3)
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
        db = delta_of_gmp(w, d, margin=3)
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
        delta_of_gmp(w, d, margin=3)  # the window itself passes
        monkeypatch.setattr(ks, "assemble_dense", lambda win: honest_dense(win) + plant)
        monkeypatch.setattr(numkit, "sym_eigen", lambda mat: honest_eigen(mat - plant))
        with pytest.raises(NumericalError, match=r"band structure: defect 1\.000e\+00"):
            delta_of_gmp(w, d, margin=3)

    def test_coupling_blocks_lower_triangular(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        for j in range(db.j_lo, db.j_hi + 2):
            assert np.max(np.abs(np.triu(db.v(j), 1))) < 1e-9

    def test_coupling_diagonals_positive(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        for j in range(db.j_lo, db.j_hi + 2):
            assert np.all(np.diag(db.v(j)) > 0)

    def test_pair_sign_flip_is_invisible(self):
        # flipping (p_0, q_0) of one block conjugates the operator by a
        # diagonal sign matrix; the normalised blocks must not move
        w = decaying_window()
        db = delta_of_gmp(w, estar_delta(), margin=3)
        blocks = [w.block(j) for j in range(w.j_min, w.j_max + 1)]
        k = 12
        blk = blocks[k]
        blocks[k] = GmpBlock([-blk.p[0], blk.p[1]], [-blk.q[0], blk.q[1]])
        flipped = stack_window(blocks, w.c, w.j_min)
        assert np.max(np.abs(assemble_dense(flipped) - assemble_dense(w))) > 0.1
        dbf = delta_of_gmp(flipped, estar_delta(), margin=3)
        for j in range(db.j_lo, db.j_hi + 2):
            npt.assert_allclose(dbf.v(j), db.v(j), atol=1e-10)
        npt.assert_allclose(dbf.w_blocks, db.w_blocks, atol=1e-10)

    def test_pole_mismatch_rejected(self):
        w = decaying_window()
        off = DeltaData(2.0, 0.0, ((0.4, 4.0),))
        with pytest.raises(ValidationError, match="poles differ"):
            delta_of_gmp(w, off, margin=3)

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="genus"):
            delta_of_gmp(decaying_window(), twogap_delta(), margin=3)

    def test_margin_floor(self):
        with pytest.raises(ValidationError, match="margin"):
            delta_of_gmp(decaying_window(), estar_delta(), margin=2)

    def test_margin_can_exhaust_window(self):
        w = make_p1_window(n_blocks=9, j_min=-4)
        with pytest.raises(WindowError, match="trusted"):
            delta_of_gmp(w, estar_delta(), margin=5)

    def test_shift_on_spectrum_rejected(self):
        # zero leading p decouples the gap slots, so the pole position
        # becomes an exact eigenvalue of the wrapped operator
        d = DeltaData(2.0, 0.0, ((0.3, 4.0),))
        bad = GmpBlock([0.0, 0.5], [0.0, 0.0])
        w = stack_window([bad] * 15, (0.3,), j_min=-7)
        with pytest.raises(SpectrumProximityError, match="shift"):
            delta_of_gmp(w, d, margin=3)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_stacked_blocks_match_blockwise_slices_bitwise(self, genus):
        d, w = perturbed_case(genus)
        db = delta_of_gmp(w, d, margin=3)
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

        def perturbed(window, k, j):
            col = honest(window, k, j)
            seen.append(j)
            if j == block:
                col = col.copy()
                col[window.scalar_index(j, 0)] += 1e-6
            return col

        monkeypatch.setattr(ks, "resolvent_column", perturbed)
        with pytest.raises(NumericalError, match="closed form"):
            delta_of_gmp(w, d, margin=3)
        assert seen == [0, 1][: block + 1]

    def test_closed_form_checks_need_their_blocks_trusted(self, monkeypatch):
        # blocks -1..1 (for block 0) and 0..2 (for block 1) must be trusted
        honest = ks.resolvent_column
        seen = []

        def spy(window, k, j):
            seen.append(j)
            return honest(window, k, j)

        d = estar_delta()
        monkeypatch.setattr(ks, "resolvent_column", spy)
        cases = {(9, -4): [0], (9, -3): [1], (9, -5): [], (10, -4): [0, 1]}
        for (n_blocks, j_min), expected in cases.items():
            seen.clear()
            delta_of_gmp(make_p1_window(n_blocks, j_min), d, margin=3)
            assert seen == expected, (n_blocks, j_min)

    def test_pole_order_of_map_is_irrelevant(self):
        # the closed-form column check must use the window's first pole,
        # not the map's, when the map lists its poles in another order
        d = twogap_delta()
        w = make_perturbed_window(twogap_surface_block(d), d.cs())
        reversed_map = DeltaData(d.lambda0, d.c0, d.poles[::-1])
        db = delta_of_gmp(w, d, margin=3)
        db_rev = delta_of_gmp(w, reversed_map, margin=3)
        assert (db_rev.j_lo, db_rev.j_hi) == (db.j_lo, db.j_hi)
        pairs = zip(
            (*db_rev.v_blocks, *db_rev.w_blocks), (*db.v_blocks, *db.w_blocks)
        )
        for got, want in pairs:
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestDeltaBlocksType:
    def test_accessors_reject_outside_range(self):
        db = delta_of_gmp(make_p1_window(n_blocks=15, j_min=-7), estar_delta(), 3)
        with pytest.raises(WindowError):
            db.v(db.j_lo - 1)
        with pytest.raises(WindowError):
            db.column_shares(db.j_lo, db.j_hi + 1)
        assert db.v(db.j_hi + 1).shape == (2, 2)

    def test_block_count_must_match_range(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        for n_couplings in (2, 4):
            with pytest.raises(ValidationError, match="count"):
                DeltaBlocks(j_lo=0, v_blocks=(eye,) * n_couplings, w_blocks=(zero, zero))
        db = DeltaBlocks(j_lo=-1, v_blocks=(eye,) * 3, w_blocks=(zero, zero))
        assert (db.g, db.j_lo, db.j_hi) == (1, -1, 0)

    def test_blocks_are_frozen(self):
        db = delta_of_gmp(make_p1_window(n_blocks=15, j_min=-7), estar_delta(), 3)
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
        db = delta_of_gmp(make_p1_window(n_blocks=21, j_min=-10), estar_delta(), 3)
        assert abs(np.sum(ledger(db).terms(0, 0, 3))) < 1e-8

    def test_single_block_matches_term(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        npt.assert_allclose(ledger(db).terms(0, 0, 0), [origin_term(db)], rtol=1e-13)

    def test_monotone_under_extension(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        shorter, longer = np.cumsum(ledger(db).terms(0, 0, 4))[3:]
        assert longer >= shorter - 1e-10

    def test_range_outside_trusted_rejected(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        with pytest.raises(WindowError, match="trusted"):
            ledger(db).terms(0, db.j_lo - 1, 0)

    def test_empty_range_is_zero(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        assert np.sum(ledger(db).terms(0, 2, 1)) == 0.0

    def test_sums_scalar_terms_left_to_right_bitwise(self):
        d, w = perturbed_case(2)
        db = delta_of_gmp(w, d, margin=3)
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
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        total = np.sum(db.column_shares(0, 0))
        npt.assert_allclose(total, ledger(db).terms(0, 0, 0)[0], rtol=1e-12)

    def test_periodic_column_vanishes(self):
        db = delta_of_gmp(make_p1_window(n_blocks=21, j_min=-10), estar_delta(), 3)
        assert abs(db.column_shares(-1, -1)[0, -1]) < 1e-10

    def test_columns_nonnegative(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        assert np.min(db.column_shares(db.j_lo, db.j_hi)) >= -1e-10

    def test_outside_trusted_range_rejected(self):
        db = delta_of_gmp(decaying_window(), estar_delta(), margin=3)
        with pytest.raises(WindowError, match="trusted"):
            db.column_shares(db.j_hi + 1, db.j_hi + 1)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_matches_scalar_columns_bitwise(self, genus):
        d, w = perturbed_case(genus)
        db = delta_of_gmp(w, d, margin=3)
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
            db = DeltaBlocks(j_lo=-5, v_blocks=v, w_blocks=rng.standard_normal((11, dim, dim)))
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
            fresh = delta_of_gmp(shifted, d, margin=3)
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
            with pytest.raises(ValidationError, match="floor"):
                report(**changed)

    def test_origin_outside_trusted_range_rejected(self):
        db = delta_of_gmp(make_p1_window(n_blocks=9, j_min=-12), estar_delta(), 3)
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
        t = flow_run(make_p1_window(13, j_min=-6), 4)
        diag = ks_diagnostics(t.states, estar_delta())
        for arr in diag.values.values():
            assert np.max(np.abs(arr)) < 1e-9
        assert not any(diag.diverging.values())

    def test_decaying_perturbation_stays_bounded(self):
        t = flow_run(decaying_window(0.01, 19), 6)
        diag = ks_diagnostics(t.states, estar_delta())
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
        t = flow_run(decaying_window(0.02, 19), 5)
        diag = ks_diagnostics(t.states, estar_delta())
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
        t = flow_run(make_p1_window(13, j_min=-6), 2)
        with pytest.raises(ValidationError, match="genus"):
            ks_diagnostics(t.states, twogap_delta())

    def test_pole_order_of_map_is_irrelevant(self):
        # Lambda_k of the central block is taken at the window's poles and
        # must be compared with the weight of the same pole of the map
        d = twogap_delta()
        t = flow_run(make_perturbed_window(twogap_surface_block(d), d.cs()), 3)
        reversed_map = DeltaData(d.lambda0, d.c0, d.poles[::-1])
        diag = ks_diagnostics(t.states, d)
        diag_rev = ks_diagnostics(t.states, reversed_map)
        for name, arr in diag.values.items():
            npt.assert_array_equal(diag_rev.values[name], arr)

    def test_other_poles_rejected(self):
        t = flow_run(make_p1_window(13, j_min=-6), 2)
        d = estar_delta()
        shifted = DeltaData(d.lambda0, d.c0, ((0.1, d.poles[0][1]),))
        with pytest.raises(ValidationError, match="poles differ"):
            ks_diagnostics(t.states, shifted)


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

    def test_positive_weights_required(self):
        with pytest.raises(ValidationError, match="positive"):
            density_identity([0.0, 3.0], [1.0, -1.0], 1.0)

    def test_distinct_poles_required(self):
        # the rule of check_distinct_poles: within 1e-12 relative is one pole
        for second in (1.0, 1.0 + 1e-13):
            message = re.escape(f"poles at 1.0 and {second} coincide")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                density_identity([second, 1.0], [1.0, 1.0], 1.0)
