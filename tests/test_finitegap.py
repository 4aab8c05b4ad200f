import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmpflow.errors import (
    DegenerateGapError,
    NoSignChangeError,
    PoleEvaluationError,
    SpectrumProximityError,
    ValidationError,
)
from gmpflow.finitegap import (
    GAP_REL_TOL,
    ZERO_RESIDUAL_REL_TOL,
    DeltaData,
    GapSet,
    delta_from_gaps,
    eval_delta,
    gap_zeros,
)
from gmpflow.gmp import GmpBlock
from gmpflow.ks import delta_of_gmp

from conftest import (
    random_gapset,
    reference_blocks,
    solved_comb_map,
    stack_window,
    wrapped_dense,
)


def eval_delta_ratio(gapset: GapSet, z):
    """The comb map as the ratio 2 (P_a + P_b) / (P_b - P_a)."""
    pa = np.prod(np.asarray(z)[..., None] - gapset.a_points(), axis=-1)
    pb = np.prod(np.asarray(z)[..., None] - gapset.b_points(), axis=-1)
    return 2.0 * (pa + pb) / (pb - pa)


def scalar_bisect(f, lo: float, hi: float) -> float:
    """One bracket at a time: ``numkit.bisect_root`` before it took arrays."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoSignChangeError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def gap_zeros_per_gap(gapset: GapSet) -> np.ndarray:
    """``gap_zeros`` as one scalar bisection per gap, checked gap by gap."""
    a_pts, b_pts = gapset.a_points(), gapset.b_points()
    diff = lambda x: np.prod(x - b_pts) - np.prod(x - a_pts)
    zeros = []
    for k, (a, b) in enumerate(gapset.gaps):
        if b - a <= GAP_REL_TOL * max(1.0, gapset.diameter):
            raise DegenerateGapError(f"gap {k} = ({a}, {b}) has numerically zero length")
        c = scalar_bisect(diff, a, b)
        pa, pb = np.prod(c - a_pts), np.prod(c - b_pts)
        residual = abs(pb - pa)
        if residual > ZERO_RESIDUAL_REL_TOL * (abs(pa) + abs(pb) + 1.0):
            raise DegenerateGapError(
                f"gap {k}: pole residual {residual:.3e} exceeds tolerance"
            )
        zeros.append(c)
    return np.array(zeros)


def perfbench_workloads():
    """The benchmark's input draws, which tests use only to read gap sets."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


@pytest.fixture(scope="module")
def narrow_gap_sets(tmp_path_factory) -> dict[str, GapSet]:
    """The eight narrow-gap sets of perfbench's seed-1 self-test pool."""
    workloads = perfbench_workloads()
    work = tmp_path_factory.mktemp("narrow")
    pool = workloads.narrow_gap_pool(1, work)
    return {
        job.label: GapSet.from_json(json.loads((work / f"gaps{i}.json").read_text()))
        for i, job in enumerate(pool.jobs)
    }


class TestGapSet:
    def test_basic_properties(self, estar_gapset):
        assert estar_gapset.g == 1
        assert estar_gapset.diameter == 4.0
        assert_allclose(estar_gapset.a_points(), [-1.0, 2.0])
        assert_allclose(estar_gapset.b_points(), [-2.0, 1.0])
        assert estar_gapset.bands() == [(-2.0, -1.0), (1.0, 2.0)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            GapSet(2.0, -2.0)
        with pytest.raises(ValidationError):
            GapSet(-2.0, 2.0, ((1.0, -1.0),))
        with pytest.raises(ValidationError):
            GapSet(-2.0, 2.0, ((-1.0, 0.0), (-0.5, 1.0)))
        with pytest.raises(ValidationError):
            GapSet(-2.0, 2.0, ((1.0, 3.0),))
        with pytest.raises(ValidationError):
            GapSet(-2.0, 2.0, ((-2.0, 1.0),))

    def test_json_round_trip(self, estar_gapset):
        data = estar_gapset.to_json()
        assert data == {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, 1.0]]}
        assert GapSet.from_json(data) == estar_gapset
        with pytest.raises(ValidationError):
            GapSet.from_json({"b0": 0.0, "a0": 1.0})


class TestGapZeros:
    def test_symmetric_one_gap(self, estar_gapset):
        assert_allclose(gap_zeros(estar_gapset), [0.0], atol=1e-13)

    def test_no_gaps(self):
        assert gap_zeros(GapSet(-2.0, 2.0)).size == 0

    def test_three_band_symmetric(self):
        gs = GapSet(-3.0, 3.0, ((-2.0, -1.0), (1.0, 2.0)))
        zeros = gap_zeros(gs)
        assert_allclose(zeros[0], -zeros[1], atol=1e-12)
        assert -2.0 < zeros[0] < -1.0 and 1.0 < zeros[1] < 2.0

    def test_degenerate_gap_raises(self):
        gs = GapSet(-2.0, 2.0, ((0.0, 1e-15),))
        with pytest.raises(DegenerateGapError):
            gap_zeros(gs)

    @pytest.mark.parametrize("g", [1, 2, 4, 8, 12, 16])
    def test_wide_sets_match_per_gap_bisection_bitwise(self, g):
        random_gapset = perfbench_workloads().random_gapset
        rng = np.random.default_rng([13, g])
        for _ in range(10):
            gs = GapSet(*random_gapset(rng, g, None))
            assert np.array_equal(gap_zeros(gs), gap_zeros_per_gap(gs))

    def test_narrow_sets_match_per_gap_bisection_bitwise(self, narrow_gap_sets):
        assert len(narrow_gap_sets) == 8
        failed = []
        for label, gs in narrow_gap_sets.items():
            try:
                expected = gap_zeros_per_gap(gs)
            except DegenerateGapError as exc:
                with pytest.raises(type(exc)) as got:
                    gap_zeros(gs)
                assert str(got.value) == str(exc)
                failed.append(label)
            else:
                assert np.array_equal(gap_zeros(gs), expected), label
        assert failed == ["g8-narrow7"]


class TestDeltaFromGaps:
    def test_two_symmetric_bands(self, estar_gapset):
        delta = delta_from_gaps(estar_gapset)
        assert_allclose(delta.lambda0, 2.0, atol=1e-12)
        assert_allclose(delta.c0, 0.0, atol=1e-12)
        assert delta.g == 1
        assert_allclose(delta.cs(), [0.0], atol=1e-13)
        assert_allclose(delta.lams(), [4.0], atol=1e-11)

    def test_single_band_is_linear(self):
        delta = delta_from_gaps(GapSet(-2.0, 2.0))
        assert_allclose(delta.lambda0, 1.0, atol=1e-14)
        assert_allclose(delta.c0, 0.0, atol=1e-13)
        assert delta.g == 0

    def test_translation_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gs = random_gapset(rng)
            t = float(rng.uniform(-2.0, 2.0))
            shifted = GapSet(
                gs.b0 + t,
                gs.a0 + t,
                tuple((a + t, b + t) for a, b in gs.gaps),
            )
            d0 = delta_from_gaps(gs)
            d1 = delta_from_gaps(shifted)
            assert_allclose(d1.lambda0, d0.lambda0, rtol=1e-10)
            assert_allclose(d1.cs(), d0.cs() + t, atol=1e-9)
            assert_allclose(d1.lams(), d0.lams(), rtol=1e-8)
            assert_allclose(d1.c0, d0.c0 - d0.lambda0 * t, atol=1e-8)

    def test_random_sets_positive_weights_and_endpoint_values(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            gs = random_gapset(rng)
            delta = delta_from_gaps(gs)
            assert delta.lambda0 > 0.0
            assert np.all(delta.lams() > 0.0)
            for lo, hi in gs.bands():
                assert_allclose(eval_delta(delta, lo), -2.0, atol=1e-9)
                assert_allclose(eval_delta(delta, hi), 2.0, atol=1e-9)

    def test_increasing_on_bands(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            gs = random_gapset(rng)
            delta = delta_from_gaps(gs)
            for lo, hi in gs.bands():
                xs = np.linspace(lo + 1e-9, hi - 1e-9, 25)
                vals = eval_delta(delta, xs)
                assert np.all(np.diff(vals) > 0.0)

    def test_partial_fractions_match_ratio_form(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            gs = random_gapset(rng)
            delta = delta_from_gaps(gs)
            zs = rng.uniform(-8.0, 8.0, size=50) + 1j * rng.uniform(
                0.5, 4.0, size=50
            )
            assert_allclose(
                eval_delta(delta, zs),
                eval_delta_ratio(gs, zs),
                rtol=1e-10,
                atol=1e-10,
            )

    @pytest.mark.parametrize("g", [1, 2, 4, 8, 12, 16])
    def test_band_edges_across_genus(self, g):
        # wide gap sets in [-3, 3]: 2g+1 segments of random relative length
        # in [0.5, 1.5], alternately band and gap
        rng = np.random.default_rng(g)
        levels = np.array([-2.0] + [2.0, -2.0] * g + [2.0])
        for _ in range(10):
            seg = rng.uniform(0.5, 1.5, 2 * g + 1)
            edges = -3.0 + np.concatenate([[0.0], np.cumsum(6.0 * seg / seg.sum())])
            edges[-1] = 3.0
            gs = GapSet(edges[0], edges[-1], tuple(zip(edges[1:-1:2], edges[2:-1:2])))
            delta = delta_from_gaps(gs)
            assert_allclose(eval_delta(delta, edges), levels, rtol=0, atol=3e-11)

    def test_json_round_trip(self, estar_gapset):
        delta = delta_from_gaps(estar_gapset)
        data = delta.to_json()
        assert set(data) == {"lambda0", "c0", "poles"}
        assert data["poles"][0].keys() == {"c", "lambda"}
        back = DeltaData.from_json(data)
        assert_allclose(back.lambda0, delta.lambda0)
        assert_allclose(back.cs(), delta.cs())


class TestAlignedTo:
    def test_reorders_poles_to_the_given_order(self):
        d = DeltaData(1.5, 0.2, ((-0.8, 0.3), (0.4, 0.7), (1.6, 0.2)))
        scrambled = DeltaData(1.5, 0.2, (d.poles[2], d.poles[0], d.poles[1]))
        assert scrambled.aligned_to(d.cs()) == d
        assert d.aligned_to(scrambled.cs()) == scrambled

    def test_other_poles_rejected(self):
        d = DeltaData(1.5, 0.2, ((-0.8, 0.3), (0.4, 0.7)))
        with pytest.raises(ValidationError, match="poles differ"):
            d.aligned_to([-0.8, 0.5])
        with pytest.raises(ValidationError, match="poles differ"):
            d.aligned_to([-0.8])

    @pytest.mark.parametrize("rel", [3e-6, 1e-9])
    def test_relative_difference_rejected(self, rel):
        # the bound is 1e-12 absolute; np.allclose's default rtol of 1e-5
        # used to let both through
        d = DeltaData(1.5, 0.2, ((-0.8, 0.3), (0.4, 0.7)))
        with pytest.raises(ValidationError, match="poles differ"):
            d.aligned_to([-0.8, 0.4 * (1.0 + rel)])
        assert d.aligned_to([-0.8, 0.4 + 5e-13]) == d


class TestDeltaDataFinite:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"lambda0": NaN, "c0": 0.0, "poles": []}',
             "slope and offset must be finite, got nan and 0.0"),
            ('{"lambda0": Infinity, "c0": 0.0, "poles": []}',
             "slope and offset must be finite, got inf and 0.0"),
            ('{"lambda0": 1.0, "c0": NaN, "poles": []}',
             "slope and offset must be finite, got 1.0 and nan"),
            ('{"lambda0": 1.0, "c0": -Infinity, "poles": []}',
             "slope and offset must be finite, got 1.0 and -inf"),
            ('{"lambda0": 1.0, "c0": 0.0, "poles": [{"c": Infinity, "lambda": 1.0}]}',
             "pole at inf with weight 1.0 must be finite"),
            ('{"lambda0": 1.0, "c0": 0.0, "poles": [{"c": NaN, "lambda": 1.0}]}',
             "pole at nan with weight 1.0 must be finite"),
            ('{"lambda0": 1.0, "c0": 0.0, "poles": [{"c": 0.0, "lambda": Infinity}]}',
             "pole at 0.0 with weight inf must be finite"),
        ],
        ids=["lambda0-nan", "lambda0-inf", "c0-nan", "c0-minus-inf", "c-inf", "c-nan",
             "lambda-inf"],
    )
    def test_non_finite_json_literal_rejected(self, text, message):
        # json.load parses NaN and Infinity
        with pytest.raises(ValidationError) as info:
            DeltaData.from_json(json.loads(text))
        assert str(info.value) == message


class TestDeltaDataPoles:
    @pytest.mark.parametrize(
        "cs", [(0.3, -0.8, 0.3), (0.0, 1e-12), (1e3, 1e3 + 5e-10)],
        ids=["equal", "absolute", "relative"],
    )
    def test_coincident_poles_rejected(self, cs):
        with pytest.raises(ValidationError, match="coincide"):
            DeltaData(1.0, 0.0, tuple((c, 1.0) for c in cs))

    def test_poles_just_apart_accepted(self):
        d = DeltaData(1.0, 0.0, ((0.0, 1.0), (2e-12, 1.0), (1e3, 1.0), (1e3 + 2e-9, 1.0)))
        assert d.g == 4


class TestEvalDelta:
    def test_two_symmetric_bands_values(self, estar_gapset):
        delta = delta_from_gaps(estar_gapset)
        assert_allclose(eval_delta(delta, 1.0), -2.0, atol=1e-12)
        assert_allclose(eval_delta(delta, -1.0), 2.0, atol=1e-12)
        assert_allclose(eval_delta(delta, 2.0), 2.0, atol=1e-12)
        assert_allclose(eval_delta(delta, 0.5), -7.0, atol=1e-12)

    def test_single_band_identity(self):
        delta = delta_from_gaps(GapSet(-2.0, 2.0))
        xs = np.linspace(-5.0, 5.0, 11)
        assert_allclose(eval_delta(delta, xs), xs, atol=1e-12)

    def test_herglotz_in_upper_half_plane(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            gs = random_gapset(rng)
            delta = delta_from_gaps(gs)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 3.0))
            assert eval_delta(delta, z).imag > 0.0

    def test_pole_guard(self, estar_gapset):
        delta = delta_from_gaps(estar_gapset)
        with pytest.raises(PoleEvaluationError):
            eval_delta(delta, 0.0)


class TestApplyCombMap:
    """The comb map as ``ks.delta_of_gmp`` applies it to a wrapped window."""

    @pytest.mark.parametrize(
        "gaps", [((-1.0, 1.0),), ((-1.2, -0.4), (0.5, 1.1))], ids=["g1", "g2"]
    )
    def test_matches_independent_solve(self, gaps):
        # wrapped window perturbed around the closed-form surface block
        d = delta_from_gaps(GapSet(-2.0, 2.0, gaps))
        g = d.g
        p_surf = np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0)
        q_surf = np.append(np.zeros(g), -d.c0)
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(15):
            dp = 0.05 * rng.uniform(-1.0, 1.0, g + 1)
            dp[g] = 0.0
            blocks.append(
                GmpBlock(p_surf + dp, q_surf + 0.05 * rng.uniform(-1.0, 1.0, g + 1))
            )
        w = stack_window(blocks, d.cs(), j_min=-7)
        db = delta_of_gmp(w, d, margin=3)
        v_blocks, w_blocks = reference_blocks(solved_comb_map(wrapped_dense(w), d), w, 3)
        for blk in db.w_blocks:
            assert np.array_equal(blk, blk.T)
        assert_allclose(db.v_blocks, v_blocks, rtol=0, atol=1e-12)
        assert_allclose(db.w_blocks, w_blocks, rtol=0, atol=1e-12)

    def test_pole_on_spectrum_rejected(self):
        # zero leading p decouples the gap slots, each an eigenvector with
        # eigenvalue c_1 = 0.3, exactly where the map has its pole
        d = DeltaData(1.0, 0.0, ((0.3, 1.0),))
        w = stack_window([GmpBlock([0.0, 0.5], [0.0, 0.2])] * 9, d.cs(), j_min=-4)
        with pytest.raises(SpectrumProximityError, match="shift"):
            delta_of_gmp(w, d, margin=3)
