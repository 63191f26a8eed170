"""Tests for the rotary embedding kernels.

Derived expectations are checked against independent oracles built
inside the tests: a log/exp identity for the frequency spectrum and an
explicit 2x2 rotation-matrix product for the block rotation.
"""

import numpy as np
import pytest

from ropealign import RopeConfig, apply_rope, apply_rope_many, rope_dot, rope_frequencies


def dense_rotation_oracle(v, m, config):
    """Brute-force oracle: build each 2x2 rotation matrix and multiply."""
    out = np.empty_like(np.asarray(v, dtype=np.float64))
    freqs = config.theta_base ** (-2.0 * np.arange(config.dim // 2) / config.dim)
    for i, f in enumerate(freqs):
        ang = m * f
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        out[2 * i : 2 * i + 2] = rot @ np.asarray(v[2 * i : 2 * i + 2], dtype=np.float64)
    return out


class TestRopeConfig:
    """Validation of the dimension/base container."""

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            RopeConfig(dim=3)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            RopeConfig(dim=0)

    def test_theta_at_most_one_rejected(self):
        """An infinite base used to rotate with frequencies [1, 0, 0, ...]."""
        for theta in (1.0, float("inf"), float("1e400"), float("nan")):
            with pytest.raises(ValueError, match="theta_base must be finite and greater than 1"):
                RopeConfig(dim=4, theta_base=theta)

    def test_num_pairs(self):
        assert RopeConfig(dim=64).num_pairs == 32

    def test_non_integer_dim_rejected(self):
        for dim in (64.0, 64.5, "64", None):
            with pytest.raises(ValueError, match="dim"):
                RopeConfig(dim=dim)

    def test_numpy_integer_dim_accepted(self):
        config = RopeConfig(dim=np.int64(64))
        assert config.dim == 64 and type(config.dim) is int
        assert config == RopeConfig(dim=64)


class TestRopeFrequencies:
    """Spectrum values and shape."""

    def test_d4_theta_1e4(self):
        """First pair rotates at unit rate, second at theta^(-1/2)."""
        freqs = rope_frequencies(RopeConfig(dim=4, theta_base=1e4))
        assert np.allclose(freqs, [1.0, 0.01], rtol=0, atol=1e-15)

    def test_d2_single_pair(self):
        freqs = rope_frequencies(RopeConfig(dim=2, theta_base=1e7))
        assert freqs.shape == (1,)
        assert freqs[0] == 1.0

    def test_d128_against_log_oracle(self):
        """Recompute the spectrum through exp/log instead of a power."""
        config = RopeConfig(dim=128, theta_base=1e4)
        freqs = rope_frequencies(config)
        i = np.arange(64, dtype=np.float64)
        oracle = np.exp(-(2.0 * i / 128.0) * np.log(1e4))
        assert freqs.shape == (64,)
        assert np.allclose(freqs, oracle, rtol=1e-12, atol=0)

    def test_strictly_decreasing(self):
        for theta in (1e4, 1e7):
            freqs = rope_frequencies(RopeConfig(dim=128, theta_base=theta))
            assert np.all(np.diff(freqs) < 0)


class TestApplyRope:
    """Block-rotation application."""

    def test_position_zero_is_identity(self):
        rng = np.random.Generator(np.random.Philox(11))
        config = RopeConfig(dim=16)
        v = rng.standard_normal(16)
        assert np.array_equal(apply_rope(v, 0, config), v)

    def test_d2_plain_rotation(self):
        """With a single pair the frequency is 1, so m=1 rotates by one radian."""
        out = apply_rope([1.0, 0.0], 1, RopeConfig(dim=2, theta_base=1e4))
        assert np.allclose(out, [np.cos(1.0), np.sin(1.0)], atol=1e-15)

    def test_matches_dense_matrix_oracle(self):
        config = RopeConfig(dim=4, theta_base=1e4)
        v = np.ones(4)
        got = apply_rope(v, 7, config)
        want = dense_rotation_oracle(v, 7, config)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_oracle_random(self):
        rng = np.random.Generator(np.random.Philox(5))
        config = RopeConfig(dim=32, theta_base=1e7)
        for m in (1, 13, 1024, 99999):
            v = rng.standard_normal(32)
            assert np.allclose(apply_rope(v, m, config), dense_rotation_oracle(v, m, config), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_rope(np.ones(6), 1, RopeConfig(dim=4))

    def test_norm_preserved_up_to_1e6(self):
        rng = np.random.Generator(np.random.Philox(7))
        config = RopeConfig(dim=64)
        v = rng.standard_normal(64)
        for m in (1, 1000, 10**6):
            assert abs(np.linalg.norm(apply_rope(v, m, config)) - np.linalg.norm(v)) < 1e-9

    def test_composition_additivity(self):
        rng = np.random.Generator(np.random.Philox(9))
        config = RopeConfig(dim=32)
        v = rng.standard_normal(32)
        got = apply_rope(apply_rope(v, 1200, config), 34, config)
        assert np.allclose(got, apply_rope(v, 1234, config), rtol=0, atol=1e-9)

    def test_negative_position_inverts(self):
        config = RopeConfig(dim=8)
        v = np.arange(8, dtype=np.float64)
        back = apply_rope(apply_rope(v, 55, config), -55, config)
        assert np.allclose(back, v, atol=1e-12)


class TestApplyRopeMany:
    """Vectorized rotation over rows."""

    def test_matches_single_application(self):
        rng = np.random.Generator(np.random.Philox(3))
        config = RopeConfig(dim=16)
        vecs = rng.standard_normal((5, 16))
        pos = [0, 3, 3, 100, 40]
        many = apply_rope_many(vecs, pos, config)
        for row, m in enumerate(pos):
            assert np.allclose(many[row], apply_rope(vecs[row], m, config), atol=1e-12)

    def test_scalar_position_broadcasts(self):
        config = RopeConfig(dim=4)
        vecs = np.ones((3, 4))
        many = apply_rope_many(vecs, 9, config)
        one = apply_rope(np.ones(4), 9, config)
        for row in many:
            assert np.allclose(row, one, atol=1e-12)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            apply_rope_many(np.ones(4), 0, RopeConfig(dim=4))


class TestRopeDot:
    """Rotated inner product and the relative-position identity."""

    def test_equal_positions_cancel(self):
        rng = np.random.Generator(np.random.Philox(21))
        config = RopeConfig(dim=32)
        q = rng.standard_normal(32)
        k = rng.standard_normal(32)
        assert abs(rope_dot(q, 17, k, 17, config) - float(q @ k)) < 1e-9

    def test_shift_identity(self):
        rng = np.random.Generator(np.random.Philox(22))
        config = RopeConfig(dim=64)
        q = rng.standard_normal(64)
        k = rng.standard_normal(64)
        assert abs(rope_dot(q, 5, k, 9, config) - rope_dot(q, 0, k, 4, config)) < 1e-9

    def test_all_ones_same_position(self):
        config = RopeConfig(dim=64, theta_base=1e4)
        v = np.ones(64)
        assert rope_dot(v, 42, v, 42, config) == pytest.approx(64.0, abs=1e-9)

    def test_depends_only_on_relative_distance(self):
        rng = np.random.Generator(np.random.Philox(23))
        config = RopeConfig(dim=16, theta_base=1e7)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        base = rope_dot(q, 0, k, 250, config)
        for shift in (1, 77, 4096, 50000):
            assert abs(rope_dot(q, shift, k, 250 + shift, config) - base) < 1e-9
