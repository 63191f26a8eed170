"""Tests for the decay-analysis routines.

The three routes (Abel bound, closed form, Monte Carlo) are checked
against each other and against direct-summation oracles written here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import replayed_sample_means, whole_chunk_moments
from ropealign import (
    DecayProfile,
    RopeConfig,
    abel_bound_check,
    abel_partial_sums,
    apply_rope,
    decay_profile,
    expected_dot_closed_form,
    monte_carlo_expected_dot,
    rope_dot,
    rope_frequencies,
)
from ropealign import cli, decay, rope

# Frozen regression values for (1/(d/2))*sum|S_j| at d=128, theta=1e4,
# computed once from the direct complex-sum oracle below.
MEAN_PARTIAL_SUM_D128_DELTA1 = 31.538166142658085
MEAN_PARTIAL_SUM_D128_DELTA2048 = 3.6185154430536115


def partial_sums_oracle(delta, config):
    """Direct complex accumulation, one term at a time."""
    out = []
    total = 0j
    for f in rope_frequencies(config):
        total += np.exp(1j * delta * f)
        out.append(abs(total))
    return np.array(out)


class TestAbelPartialSums:
    """Phase partial-sum magnitudes."""

    def test_delta_zero_counts_terms(self):
        """Every phase is 1 at delta=0, so |S_j| = j."""
        sums = abel_partial_sums(0, RopeConfig(dim=64))
        assert np.array_equal(sums, np.arange(1, 33, dtype=np.float64))

    def test_delta_one_d4_against_oracle(self):
        config = RopeConfig(dim=4, theta_base=1e4)
        got = abel_partial_sums(1, config)
        want = partial_sums_oracle(1, config)
        assert got[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_oracle_agreement_large_delta(self):
        config = RopeConfig(dim=128, theta_base=1e4)
        for delta in (1, 16, 2048):
            assert np.allclose(
                abel_partial_sums(delta, config), partial_sums_oracle(delta, config), atol=1e-9
            )

    def test_mean_regression_values(self):
        """Distance 2048 averages well below distance 1 for d=128, theta=1e4."""
        config = RopeConfig(dim=128, theta_base=1e4)
        m1 = float(np.mean(abel_partial_sums(1, config)))
        m2048 = float(np.mean(abel_partial_sums(2048, config)))
        assert m1 == pytest.approx(MEAN_PARTIAL_SUM_D128_DELTA1, rel=1e-12)
        assert m2048 == pytest.approx(MEAN_PARTIAL_SUM_D128_DELTA2048, rel=1e-12)
        assert m2048 < m1

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            abel_partial_sums(-1, RopeConfig(dim=4))

    @pytest.mark.parametrize("delta", [2.5, 3.0, np.float64(3.0), True, "3"])
    def test_non_integer_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="^delta must be an integer"):
            abel_partial_sums(delta, RopeConfig(dim=4))

    def test_numpy_integer_delta_accepted(self):
        config = RopeConfig(dim=8)
        assert np.array_equal(abel_partial_sums(np.int64(5), config), abel_partial_sums(5, config))


class TestAbelBoundCheck:
    """Summation-by-parts inequality."""

    def test_zero_vectors(self):
        report = abel_bound_check(np.zeros(8), np.zeros(8), 5, RopeConfig(dim=8))
        assert report.lhs_magnitude == 0.0
        assert report.bound_value == 0.0

    def test_all_ones_delta_zero(self):
        """Constant pair products: lhs = d, bound = (d/2)(d/2 + 1).

        Each pair product is conj(1+1j)*(1+1j) = 2, so the sum is d; the
        only nonzero successive difference is the trailing drop to the
        padded zero, |0 - 2| = 2, and sum|S_j| = 1 + 2 + ... + d/2.
        """
        d = 64
        report = abel_bound_check(np.ones(d), np.ones(d), 0, RopeConfig(dim=d))
        half = d // 2
        assert report.lhs_magnitude == pytest.approx(d, abs=1e-12)
        assert report.bound_value == pytest.approx(2 * half * (half + 1) / 2, abs=1e-9)
        assert report.partial_sum_mean == pytest.approx((half + 1) / 2, abs=1e-12)

    def test_inequality_on_random_pairs(self):
        """100 Gaussian pairs, four distances: the bound always holds."""
        rng = np.random.Generator(np.random.Philox(41))
        config = RopeConfig(dim=64, theta_base=1e4)
        for _ in range(100):
            q = rng.standard_normal(64)
            k = rng.standard_normal(64)
            for delta in (1, 16, 256, 4096):
                report = abel_bound_check(q, k, delta, config)
                assert report.lhs_magnitude <= report.bound_value + 1e-9

    def test_lhs_dominates_rotated_dot(self):
        """The complex sum's real part is the rotated inner product, so
        its modulus bounds |rope_dot| from above."""
        rng = np.random.Generator(np.random.Philox(43))
        config = RopeConfig(dim=32, theta_base=1e4)
        q = rng.standard_normal(32)
        k = rng.standard_normal(32)
        for delta in (0, 3, 700):
            report = abel_bound_check(q, k, delta, config)
            dot = rope_dot(q, 0, k, delta, config)
            assert abs(dot) <= report.lhs_magnitude + 1e-9
            assert report.relative_distance == delta

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            abel_bound_check(np.ones(4), np.ones(6), 1, RopeConfig(dim=4))

    def test_non_integer_delta_rejected(self):
        with pytest.raises(ValueError, match=f"^delta must be an integer from 0 to {2**53}, got 2.5$"):
            abel_bound_check(np.ones(4), np.ones(4), 2.5, RopeConfig(dim=4))

    def test_numpy_integer_delta_gives_a_python_int(self):
        report = abel_bound_check(np.ones(4), np.ones(4), np.int32(7), RopeConfig(dim=4))
        assert report == abel_bound_check(np.ones(4), np.ones(4), 7, RopeConfig(dim=4))
        assert type(report.relative_distance) is int


class TestExpectedDotClosedForm:
    """Per-pair cosine/sine expansion of the expectation."""

    def test_zero_means_vanish(self):
        config = RopeConfig(dim=16)
        for m in (0, 1, 999):
            assert expected_dot_closed_form(np.zeros(16), np.zeros(16), m, config) == 0.0

    def test_all_ones_at_zero_distance(self):
        config = RopeConfig(dim=64)
        assert expected_dot_closed_form(np.ones(64), np.ones(64), 0, config) == pytest.approx(64.0)

    def test_matches_rotation_oracle_over_distances(self):
        """Contract: the expansion equals mu_q . R_m mu_k for every m."""
        config = RopeConfig(dim=64, theta_base=1e4)
        mu = np.full(64, 0.5)
        for m in range(1, 513):
            want = float(mu @ apply_rope(mu, m, config))
            assert expected_dot_closed_form(mu, mu, m, config) == pytest.approx(want, abs=1e-9)

    def test_matches_rotation_oracle_random_means(self):
        rng = np.random.Generator(np.random.Philox(47))
        config = RopeConfig(dim=32, theta_base=1e7)
        for _ in range(50):
            mq = rng.standard_normal(32)
            mk = rng.standard_normal(32)
            m = int(rng.integers(0, 100_000))
            want = float(mq @ apply_rope(mk, m, config))
            assert abs(expected_dot_closed_form(mq, mk, m, config) - want) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_dot_closed_form(np.ones(4), np.ones(8), 0, RopeConfig(dim=4))

    @pytest.mark.parametrize("m", [2.9, 2.0, np.float64(2.0), False])
    def test_non_integer_distance_rejected(self, m):
        """2.9 used to be evaluated as 2.9 here and floored to 2 by the
        Monte Carlo route, so the two routes disagreed on one input."""
        with pytest.raises(ValueError, match="^m must be an integer"):
            expected_dot_closed_form(np.ones(8), np.ones(8), m, RopeConfig(dim=8))

    def test_numpy_integer_distance_accepted(self):
        config = RopeConfig(dim=8)
        mu = np.ones(8)
        assert expected_dot_closed_form(mu, mu, np.uint16(3), config) == expected_dot_closed_form(
            mu, mu, 3, config
        )


class TestMonteCarloExpectedDot:
    """Sampled estimate against its analytic targets."""

    def test_zero_means_near_zero(self):
        config = RopeConfig(dim=64)
        mean, stderr = monte_carlo_expected_dot(
            np.zeros(64), np.zeros(64), 100, samples=100_000, seed=101, config=config
        )
        assert stderr > 0
        assert abs(mean) <= 4 * stderr

    def test_identity_distance_zero(self):
        """At m=0 independence gives E[q.k] = mu_q . mu_k = d for all-ones."""
        config = RopeConfig(dim=64)
        mean, stderr = monte_carlo_expected_dot(
            np.ones(64), np.ones(64), 0, samples=20_000, seed=7, config=config
        )
        assert abs(mean - 64.0) <= 4 * stderr

    def test_matches_closed_form(self):
        config = RopeConfig(dim=64, theta_base=1e4)
        mu = np.full(64, 2.0)
        for m in (0, 8, 64, 512):
            mean, stderr = monte_carlo_expected_dot(mu, mu, m, samples=50_000, seed=m + 1, config=config)
            want = expected_dot_closed_form(mu, mu, m, config)
            assert abs(mean - want) <= 4 * stderr

    def test_deterministic_for_fixed_seed(self):
        config = RopeConfig(dim=8)
        a = monte_carlo_expected_dot(np.ones(8), np.ones(8), 3, samples=5000, seed=9, config=config)
        b = monte_carlo_expected_dot(np.ones(8), np.ones(8), 3, samples=5000, seed=9, config=config)
        assert a == b

    def test_samples_across_chunk_boundary(self):
        """Counts just past the internal draw chunk still produce finite
        estimates with a positive standard error."""
        config = RopeConfig(dim=4)
        mean, stderr = monte_carlo_expected_dot(
            np.zeros(4), np.zeros(4), 1, samples=16_389, seed=5, config=config
        )
        assert np.isfinite(mean)
        assert stderr > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_expected_dot(np.ones(4), np.ones(4), 0, samples=1, seed=0, config=RopeConfig(dim=4))

    @pytest.mark.parametrize(
        "field, value",
        [("m", 2.9), ("m", 2.0), ("m", np.float64(2.0)), ("m", True),
         ("samples", 1e5), ("samples", True), ("seed", 1.5), ("seed", True)],
    )  # fmt: skip
    def test_non_integer_argument_rejected(self, field, value):
        """Never floored: m = 2.9 used to give the m = 2 estimate.
        samples = 1e5 and seed = 1.5 raised numpy's TypeError, and
        seed = True was seed 1."""
        args = {"m": 0, "samples": 1000, "seed": 0} | {field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            monte_carlo_expected_dot(np.ones(8), np.ones(8), config=RopeConfig(dim=8), **args)

    def test_numpy_integer_distance_accepted(self):
        config = RopeConfig(dim=8)
        mu = np.ones(8)
        want = monte_carlo_expected_dot(mu, mu, 2, samples=1000, seed=0, config=config)
        assert monte_carlo_expected_dot(mu, mu, np.int64(2), samples=1000, seed=0, config=config) == want


class TestDecayProfile:
    """Profile generation over a distance grid."""

    def test_single_distance_reduces_to_single_estimate(self):
        """The sub-seed for list position 0 drives the one evaluation."""
        config = RopeConfig(dim=16)
        mu = np.ones(16)
        prof = decay_profile(mu, mu, [0], samples=4000, seed=33, config=config)
        sub = int(np.random.SeedSequence(33).generate_state(1, dtype=np.uint64)[0])
        mean, stderr = monte_carlo_expected_dot(mu, mu, 0, samples=4000, seed=sub, config=config)
        assert prof.mean_dot == (mean,)
        assert prof.stderr == (stderr,)

    def test_zero_means_flat(self):
        config = RopeConfig(dim=32)
        prof = decay_profile(np.zeros(32), np.zeros(32), [0, 4, 64, 1024], samples=20_000, seed=2, config=config)
        for mean, stderr in zip(prof.mean_dot, prof.stderr):
            assert abs(mean) <= 4 * stderr

    def test_peak_at_distance_zero_for_equal_means(self):
        """With mu_q = mu_k every pair term peaks at m=0, and the noise
        floor at these sample counts cannot overturn a gap this wide."""
        config = RopeConfig(dim=32, theta_base=1e4)
        mu = np.ones(32)
        distances = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        prof = decay_profile(mu, mu, distances, samples=50_000, seed=4, config=config)
        assert prof.mean_dot[0] == max(prof.mean_dot)

    def test_bit_identical_reruns(self):
        config = RopeConfig(dim=8)
        a = decay_profile(np.ones(8), np.ones(8), [1, 5], samples=3000, seed=6, config=config)
        b = decay_profile(np.ones(8), np.ones(8), [1, 5], samples=3000, seed=6, config=config)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_thread_count_does_not_change_results(self):
        config = RopeConfig(dim=8)
        mu = np.ones(8)
        serial = decay_profile(mu, mu, [0, 2, 9, 50], samples=3000, seed=8, config=config)
        threaded = decay_profile(mu, mu, [0, 2, 9, 50], samples=3000, seed=8, config=config, max_workers=4)
        assert serial == threaded

    def test_csv_shape(self):
        config = RopeConfig(dim=4)
        prof = decay_profile(np.zeros(4), np.zeros(4), [0, 3], samples=100, seed=1, config=config)
        lines = prof.to_csv().splitlines()
        assert lines[0] == "rel_distance,mean_dot,stderr,samples"
        assert len(lines) == 3
        assert lines[1].startswith("0,") and lines[1].endswith(",100")
        assert lines[2].startswith("3,")

    def test_empty_distances_rejected(self):
        with pytest.raises(ValueError):
            decay_profile(np.zeros(4), np.zeros(4), [], samples=100, seed=0, config=RopeConfig(dim=4))

    def test_non_increasing_distances_rejected(self):
        with pytest.raises(ValueError):
            decay_profile(np.zeros(4), np.zeros(4), [3, 3], samples=100, seed=0, config=RopeConfig(dim=4))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match=f"^distances must be an integer from 0 to {2**53}, got -1$"):
            decay_profile(np.zeros(4), np.zeros(4), [-1, 0], samples=100, seed=0, config=RopeConfig(dim=4))

    def test_profile_validation(self):
        with pytest.raises(ValueError, match=r"^mean_dot must have shape \(2,\), got \(1,\)$"):
            DecayProfile(distances=(0, 1), mean_dot=(0.0,), stderr=(0.0, 0.0), sample_count=10)
        with pytest.raises(ValueError, match=r"^stderr must have shape \(2,\), got \(3,\)$"):
            DecayProfile(distances=(0, 1), mean_dot=(0.0, 0.0), stderr=(0.0, 0.0, 0.0), sample_count=10)
        with pytest.raises(ValueError, match="must be non-negative"):
            DecayProfile(distances=(0, 1), mean_dot=(0.0, 0.0), stderr=(0.0, -1.0), sample_count=10)
        for distances in [(1, 1), (2, 1)]:
            with pytest.raises(ValueError, match="strictly increasing"):
                DecayProfile(distances=distances, mean_dot=(0.0, 0.0), stderr=(0.0, 0.0), sample_count=10)
        for name, bad in [("mean_dot", np.nan), ("mean_dot", np.inf), ("stderr", np.inf), ("stderr", np.nan)]:
            fields = {"mean_dot": (0.0, 0.0), "stderr": (0.0, 0.0), name: (0.0, bad)}
            with pytest.raises(ValueError, match=f"^{name} must be a number, got {bad}$"):
                DecayProfile(distances=(0, 1), sample_count=10, **fields)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_rejected(self):
        """A mean whose products overflow float64 is an error, not a NaN
        row, and numpy warns of nothing on the way."""
        mu = np.full(4, 1e308)
        config = RopeConfig(dim=4)
        with pytest.raises(ValueError, match="must be finite"):
            decay_profile(mu, mu, [0], samples=2, seed=0, config=config)
        # An infinite chunk mean: the merge multiplies inf by the zero count.
        with pytest.raises(ValueError, match="got inf and nan"):
            decay_profile(np.full(4, 1e200), np.full(4, 1e200), [0], samples=2, seed=2, config=config)
        with pytest.raises(ValueError, match="must be finite"):
            decay_profile(mu, mu, [0, 1], samples=40000, seed=0, config=config, max_workers=2)
        with pytest.raises(ValueError, match="must be finite"):
            monte_carlo_expected_dot(mu, mu, 0, samples=2, seed=0, config=config)

    def test_distance_past_2_53_rejected(self):
        """Past 2**53 not every integer is a float: such a distance is
        named, never rotated as a neighbouring one."""
        config = RopeConfig(dim=4)
        for far in (2**53 + 1, 10**30):
            with pytest.raises(ValueError, match=f"^distances must be an integer from 0 to {2**53}, got {far}$"):
                decay_profile(np.ones(4), np.ones(4), [0, far], samples=8, seed=0, config=config)
            with pytest.raises(ValueError, match=f"^m must be an integer from {-(2**53)} to {2**53}, got {-far}$"):
                monte_carlo_expected_dot(np.ones(4), np.ones(4), -far, samples=8, seed=0, config=config)
        decay_profile(np.ones(4), np.ones(4), [0, 2**53], samples=8, seed=0, config=config)

    def test_unallocatable_samples_named(self):
        # More chunk seeds than the 64-bit address space holds: fails before allocating.
        with pytest.raises(ValueError, match="^samples 100000000000000000000: "):
            decay_profile(np.ones(4), np.ones(4), [0], samples=10**20, seed=0, config=RopeConfig(dim=4))

    @pytest.mark.parametrize(
        "owner, name", [(decay, "apply_rope_many"), (np, "zeros"), (np, "empty")], ids=["rotated", "merged", "block"]
    )
    def test_unallocatable_grid_named(self, owner, name, monkeypatch):
        """A grid whose rotated means, merged moments or a block's moments
        (made in a worker thread) cannot be allocated is a ValueError naming
        the grid's size and dim.  The allocation is made to raise MemoryError, so no giant
        grid is allocated."""
        grid, mu = list(range(7)), np.ones(4)
        real = getattr(owner, name)

        def no_room(*args, **kwargs):
            if owner is decay or args[:1] == ((2, len(grid)),):
                raise MemoryError
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, no_room)
        with pytest.raises(ValueError, match="^distances: a grid of 7 points at dim 4 cannot be allocated$"):
            decay_profile(mu, mu, grid, samples=100, seed=0, config=RopeConfig(dim=4), max_workers=2)

    def test_numpy_scalars_write_the_same_bytes(self):
        plain = DecayProfile(distances=(1, 4), mean_dot=(0.5, -2.25), stderr=(0.1, 0.0), sample_count=10)
        from_numpy = DecayProfile(
            distances=tuple(np.array([1, 4])),
            mean_dot=tuple(np.array([0.5, -2.25])),
            stderr=(np.float64(0.1), np.float64(0.0)),
            sample_count=np.int64(10),
        )
        assert from_numpy == plain
        assert from_numpy.to_csv() == plain.to_csv()
        assert plain.to_csv() == "rel_distance,mean_dot,stderr,samples\n1,0.5,0.1,10\n4,-2.25,0.0,10\n"

    def test_non_integer_distance_rejected(self):
        """A profile's distances and sample count are read with the kinds
        ``decay_profile`` reads them with, so a hand-built profile holds
        nothing it refuses: (-5, 2**60) at 1 sample was once written out."""
        zeros = {"mean_dot": (0.0, 0.0), "stderr": (0.0, 0.0)}
        distance = "distances must be an integer from 0 to 9007199254740992, got"
        for distances, bad in [((0.5, 1), "0.5"), ((-5, 1), "-5"), ((0, 2**53 + 1), "9007199254740993")]:
            with pytest.raises(ValueError, match=f"^{distance} {bad}$"):
                DecayProfile(distances=distances, **zeros, sample_count=10)
        count = "sample_count must be an integer of at least 2, got"
        for samples in (10.0, 1, True):
            with pytest.raises(ValueError, match=f"^{count} {samples}$"):
                DecayProfile(distances=(0, 1), **zeros, sample_count=samples)
        edge = DecayProfile(distances=(0, 2**53), **zeros, sample_count=2)
        assert edge.to_csv().splitlines()[1:] == ["0,0.0,0.0,2", "9007199254740992,0.0,0.0,2"]

    @pytest.mark.parametrize(
        "field, value",
        [("distance", [0.5, 1.7]), ("distance", [0, 1.0]), ("distance", [0, True]),
         ("distance", [np.float64(1)]), ("samples", 1e5), ("samples", True), ("seed", 1.5),
         ("seed", True), ("max_workers", 2.0), ("max_workers", True)],
    )  # fmt: skip
    def test_non_integer_argument_rejected(self, field, value):
        """[0.5, 1.7] used to be profiled at distances (0, 1), seed = True
        was seed 1, and samples = 1e5 or seed = 1.5 raised a TypeError."""
        args = {"distances": [0], "samples": 8, "seed": 0, "max_workers": 1}
        name = "distances" if field == "distance" else field
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            decay_profile(np.ones(4), np.ones(4), config=RopeConfig(dim=4), **args)

    def test_numpy_integer_grid_writes_the_same_bytes(self):
        config = RopeConfig(dim=4)
        plain = decay_profile(np.ones(4), np.ones(4), [0, 3], samples=8, seed=0, config=config)
        from_numpy = decay_profile(np.ones(4), np.ones(4), np.array([0, 3]), samples=8, seed=0, config=config)
        assert from_numpy.to_csv() == plain.to_csv()


class TestSharedSamples:
    """Every distance of a profile is evaluated on one shared sample set."""

    def test_point_independent_of_grid_worked_example(self):
        """Distance 8 at seed 3, d=16, 1000 samples: grids [8] and [0, 8]."""
        config = RopeConfig(dim=16)
        mu = np.ones(16)
        alone = decay_profile(mu, mu, [8], samples=1000, seed=3, config=config)
        paired = decay_profile(mu, mu, [0, 8], samples=1000, seed=3, config=config)
        assert alone.mean_dot == paired.mean_dot[1:]
        assert alone.stderr == paired.stderr[1:]

    @given(
        dim=st.sampled_from([2, 4, 8, 16]),
        grid=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=8, unique=True),
        keep=st.lists(st.booleans(), min_size=8, max_size=8),
        samples=st.integers(min_value=2, max_value=40_000),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_sub_grid_points_bitwise_equal(self, dim, grid, keep, samples, seed):
        config = RopeConfig(dim=dim, theta_base=1e4)
        mu_q = np.linspace(-1.0, 2.0, dim)
        mu_k = np.linspace(1.5, -0.5, dim)
        grid = sorted(grid)
        sub = [d for d, k in zip(grid, keep) if k] or grid[:1]
        full = decay_profile(mu_q, mu_k, grid, samples=samples, seed=seed, config=config)
        part = decay_profile(mu_q, mu_k, sub, samples=samples, seed=seed, config=config)
        want = {d: (m, s) for d, m, s in zip(full.distances, full.mean_dot, full.stderr)}
        assert [want[d] for d in sub] == list(zip(part.mean_dot, part.stderr))

    def test_stderr_matches_analytic(self):
        """Var(q . R_m k) = |mu_q|^2 + |mu_k|^2 + dim for unit-covariance normals."""
        dim, samples = 64, 100_000
        config = RopeConfig(dim=dim, theta_base=1e4)
        mu_q = np.full(dim, 1.0)
        mu_k = np.linspace(-1.0, 1.0, dim)
        analytic = np.sqrt((mu_q @ mu_q + mu_k @ mu_k + dim) / samples)
        prof = decay_profile(mu_q, mu_k, [0, 3, 100, 4096], samples=samples, seed=12, config=config)
        for err in prof.stderr:
            assert abs(err - analytic) <= 0.05 * analytic

    @pytest.mark.parametrize(
        "dim, mu_q, mu_k, samples, seeds, distances",
        [
            (8, np.linspace(-1.0, 2.0, 8), np.linspace(1.5, -0.5, 8), 3 * 16384 + 5, (0, 1, 2), [0, 1, 7, 100, 4096]),
            (64, np.ones(64), np.ones(64), 100_000, (7,), cli._parse_distances("log:0..8192:16")),
        ],
        ids=["dim-8", "readme"],
    )
    def test_sample_variance_is_the_exact_law(self, dim, mu_q, mu_k, samples, seeds, distances):
        """A sample X_m = |q| g + q . R_m mu_k has the law of q . k with
        k ~ N(R_m mu_k, I), so at every distance Var X_m = dim + A + B,
        A = |mu_q|^2 and B = |mu_k|^2 (192 for the README run).  Given
        q = mu_q + u, X - E X is normal with mean R_m mu_k . u and variance
        |q|^2, whence X's fourth central moment is exactly
        mu4 = 3 B^2 + 6 B (A + dim + 2) + 3 ((dim + A)^2 + 2 (dim + 2 A)),
        and the sample variance s^2 = n stderr^2 has variance
        mu4 / n - sigma^4 (n - 3) / (n (n - 1)).  Each s^2 is within five
        of its standard errors of sigma^2; without the |q| g term the
        variance would be A + B, more than dim below it."""
        config = RopeConfig(dim=dim, theta_base=1e4)
        a, b = float(mu_q @ mu_q), float(mu_k @ mu_k)
        var = dim + a + b
        mu4 = 3 * b**2 + 6 * b * (a + dim + 2) + 3 * ((dim + a) ** 2 + 2 * (dim + 2 * a))
        sd = np.sqrt(mu4 / samples - var**2 * (samples - 3) / (samples * (samples - 1)))
        assert 5 * sd < dim  # the bound tells the law from one without |q| g
        for seed in seeds:
            prof = decay_profile(mu_q, mu_k, distances, samples=samples, seed=seed, config=config)
            for err in prof.stderr:
                assert abs(samples * err**2 - var) <= 5 * sd

    def test_thread_counts_identical_with_partial_chunk(self):
        config = RopeConfig(dim=8)
        mu = np.ones(8)
        samples = 3 * 16384 + 123
        csvs = {
            decay_profile(
                mu, mu, [0, 5, 77, 1000], samples=samples, seed=21, config=config, max_workers=w
            ).to_csv()
            for w in (1, 2, 3)
        }
        assert len(csvs) == 1

    @pytest.mark.parametrize("dim", [4, 8, 64])
    @pytest.mark.parametrize("n_dist", [1, 17, 300])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_whole_chunk_oracle(self, dim, n_dist, workers):
        """Grouped projections, block moments merged in their chunk and
        chunk moments merged in chunk order give the bits of a plain loop
        that projects each block one distance at a time.  300
        distances cross two group boundaries, and the third chunk is
        partial: one full block of 1024 rows and a partial one of 476."""
        config = RopeConfig(dim=dim, theta_base=1e4)
        mu_q = np.linspace(-1.0, 2.0, dim)
        mu_k = np.linspace(1.5, -0.5, dim)
        grid = list(range(0, 13 * n_dist, 13))
        samples = 2 * 16384 + 1500
        prof = decay_profile(mu_q, mu_k, grid, samples=samples, seed=19, config=config, max_workers=workers)
        mean, stderr = whole_chunk_moments(mu_q, mu_k, grid, samples, 19, config)
        assert prof.mean_dot == tuple(mean.tolist())
        assert prof.stderr == tuple(stderr.tolist())

    @pytest.mark.parametrize("dim, n_dist", [(8, 1), (64, 17), (16, 300)])
    def test_mean_dot_is_the_replayed_sample_mean(self, dim, n_dist):
        """mean_dot at m is u + q . R_m mu_k, u and q the sample means of
        |q| g and q over the replayed substreams, the dot product in closed
        form.  Tolerance, from first-order rounding bounds, in units of
        eps * A, A the largest block mean of |q| g + sum_j |q_j| rho_j
        (``replayed_sample_means``; |(R_m mu_k)_j| <= rho_j): dim + 6 for a
        sample's projection, rotation and |q| g, 1024 for a block's sum of
        at most 1024 samples, 4 for each Chan merge, one per block and per
        chunk, and dim + 6 for the oracle's closed form and its exactly
        rounded means.  That is still far below one stderr, so a replay of
        other samples than the worker's would fail it."""
        config = RopeConfig(dim=dim, theta_base=1e4)
        mu_q = np.linspace(-1.0, 2.0, dim)
        mu_k = np.linspace(1.5, -0.5, dim)
        grid = list(range(0, 13 * n_dist, 13))
        samples = 2 * 16384 + 1500
        prof = decay_profile(mu_q, mu_k, grid, samples=samples, seed=29, config=config)
        want, magnitude = replayed_sample_means(mu_q, mu_k, grid, samples, 29, config)
        merges = 16 + 16 + 2 + 3  # the blocks of two full chunks and a partial one, then the chunks
        tol = (2 * (dim + 6) + 1024 + 4 * merges) * np.finfo(float).eps * magnitude
        assert tol < min(prof.stderr) / 1000
        assert np.abs(np.array(prof.mean_dot) - want).max() <= tol

    @pytest.mark.parametrize("samples", [2, 1024, 16384 + 37, 2 * 16384 + 1025])
    @pytest.mark.parametrize("group", [1, 5, 128])
    def test_block_and_group_sizes_do_not_change_bits(self, samples, group, monkeypatch):
        """``_GROUP`` moves only memory and speed: 7 distances in groups of
        5 are projected in two einsums a block.  The sample counts give a
        block of 2 rows, one whole block, a partial chunk of 37 rows, and a
        partial chunk of one whole block and a block of 1 row."""
        config = RopeConfig(dim=8, theta_base=1e4)
        mu_q = np.linspace(-1.0, 2.0, 8)
        mu_k = np.linspace(1.5, -0.5, 8)
        grid = [0, 1, 3, 8, 40, 300, 9000]
        want = decay_profile(mu_q, mu_k, grid, samples=samples, seed=23, config=config, max_workers=2)
        monkeypatch.setattr(decay, "_GROUP", group)
        got = decay_profile(mu_q, mu_k, grid, samples=samples, seed=23, config=config, max_workers=2)
        assert got == want

    @pytest.mark.parametrize("n_dist", [1, 17, 300])
    def test_each_substream_is_drawn_once(self, n_dist, monkeypatch):
        """One Philox generator a chunk, whatever the grid: two full chunks
        and a partial one construct exactly 3."""
        made = []
        real = np.random.Philox

        def philox(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", philox)
        config = RopeConfig(dim=8, theta_base=1e4)
        mu = np.ones(8)
        decay_profile(mu, mu, range(n_dist), samples=2 * 16384 + 5, seed=3, config=config, max_workers=2)
        assert len(made) == 3

    def test_bad_max_workers_rejected(self):
        for workers in (0, -2):
            with pytest.raises(ValueError, match="max_workers"):
                decay_profile(
                    np.ones(4), np.ones(4), [0], samples=100, seed=0, config=RopeConfig(dim=4),
                    max_workers=workers,
                )

    def test_memory_does_not_grow_with_samples(self):
        """Peak traced memory follows the chunk size, not the sample count."""
        config = RopeConfig(dim=8)
        mu = np.ones(8)

        def peak(samples):
            tracemalloc.start()
            try:
                decay_profile(mu, mu, [0, 10, 1000], samples=samples, seed=5, config=config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(2 * 16384)
        assert peak(32 * 16384) <= small + 1_000_000

    @pytest.mark.parametrize(
        "dim, n_dist, limit",
        [
            (64, 17, 6_000_000),
            (128, 17, 8_000_000),
            (64, 300, 20_000_000),
            (4, 300, 3_000_000),
            (8, 300, 3_000_000),
            (64, 300, 3_000_000),
            (8, 100, 3_000_000),
        ],
    )
    def test_one_chunk_memory_is_bounded(self, dim, n_dist, limit):
        """A chunk holds one block of rows, one 128 x 1024 buffer of
        projections and one moment pair, never its whole (n, dim)
        block of q nor a row of projections per sample: drawn whole, one
        chunk peaked at 16.9 MB at dim 64 and 33.7 MB at dim 128, and
        with a row of projections per sample and distance it peaked at
        17.4-18.0 MB over 300 distances and 13.7 MB at dim 8 over 100."""
        config = RopeConfig(dim=dim, theta_base=1e4)
        mu = np.ones(dim)
        tracemalloc.start()
        try:
            decay_profile(mu, mu, list(range(n_dist)), samples=16384, seed=5, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_grid_memory_is_bounded(self, workers):
        """A chunk merges its blocks as it draws them and hands back one
        moment pair, so a wide grid's moments are held once a chunk in
        flight.  When each chunk handed back its 16 blocks' moments, dim 4
        over 100 000 distances and two chunks peaked at 38.7 MB traced
        with 1 worker and 64.0 MB with 2.  Now the run peaks at 17.0 MB
        with 1 worker (19.9 MB when the grid's key means were rotated all
        at once, not in row blocks) and at 21.4 MB with 2, where the peak
        is the two chunks in flight, not the rotation."""
        config = RopeConfig(dim=4, theta_base=1e4)
        mu = np.ones(4)
        tracemalloc.start()
        try:
            decay_profile(mu, mu, range(100_000), samples=2 * 16384, seed=5, config=config, max_workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30_000_000


_Q, _K, _CONFIG4 = np.arange(1.0, 5.0), np.ones(4), RopeConfig(dim=4)
_READERS = {  # each call, and the caller's arrays it reads
    "apply_rope": (lambda: apply_rope(_Q, 3, _CONFIG4), [_Q]),
    "abel_bound_check": (lambda: abel_bound_check(_Q, _K, 1, _CONFIG4), [_Q, _K]),
    "expected_dot_closed_form": (lambda: expected_dot_closed_form(_Q, _K, 1, _CONFIG4), [_Q, _K]),
    "monte_carlo_expected_dot": (
        lambda: monte_carlo_expected_dot(_Q, _K, 1, samples=8, seed=0, config=_CONFIG4), [_Q, _K]
    ),
    "decay_profile": (lambda: decay_profile(_Q, _K, [0, 1], samples=8, seed=0, config=_CONFIG4), [_Q, _K]),
}


@pytest.mark.parametrize("reader", _READERS)
def test_reads_use_the_callers_array(reader, monkeypatch):
    """A call that only reads its vectors or means holds none of them, so
    each array it reads, the caller's writable ones included, is used as
    given: no read copies it."""
    call, callers = _READERS[reader]
    reads = []
    for module in (rope, decay):
        read = module.read_array
        monkeypatch.setattr(module, "read_array", lambda v, *args, read=read: reads.append((v, read(v, *args))) or reads[-1][1])
    call()
    arrays = [(given, got) for given, got in reads if isinstance(given, np.ndarray)]
    assert all(array.flags.writeable for array in callers)
    assert all(any(given is array for given, _ in arrays) for array in callers)
    assert all(np.shares_memory(given, got) for given, got in arrays)
