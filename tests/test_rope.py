"""Tests for the rotary embedding kernels.

Derived expectations are checked against independent oracles built
inside the tests: a log/exp identity for the frequency spectrum and an
explicit 2x2 rotation-matrix product for the block rotation.
"""

import tracemalloc

import numpy as np
import pytest

from ropealign import RopeConfig, apply_rope, apply_rope_many, codec, rope, rope_dot, rope_frequencies


def whole_rotation(vectors, positions, config):
    """Every row rotated by one elementwise expression over the whole
    array: the kernel before it rotated in row blocks."""
    angles = np.multiply.outer(np.atleast_1d(positions), rope_frequencies(config))
    x, y, cos, sin = vectors[:, 0::2], vectors[:, 1::2], np.cos(angles), np.sin(angles)
    return np.stack([x * cos - y * sin, x * sin + y * cos], axis=-1).reshape(vectors.shape)


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
        for theta in (1.0, 0.5, -3):
            with pytest.raises(ValueError, match=f"^theta_base must be finite and greater than 1, got {theta}"):
                RopeConfig(dim=4, theta_base=theta)
        for theta in (float("inf"), float("1e400"), float("nan")):
            with pytest.raises(ValueError, match=f"^theta_base must be a number, got {theta}$"):
                RopeConfig(dim=4, theta_base=theta)

    def test_numpy_scalar_theta_accepted(self):
        for theta in (np.int64(10000), np.float32(1e4)):
            config = RopeConfig(4, theta)
            assert config.theta_base == 1e4 and type(config.theta_base) is float
            assert config == RopeConfig(4, 1e4)

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
        with pytest.raises(ValueError, match=r"^vectors must have shape \(any, 4\), got \(4,\)$"):
            apply_rope_many(np.ones(4), 0, RopeConfig(dim=4))

    def test_positions_are_rotary_positions(self):
        """Each position is an integer of magnitude at most 2**53, read as
        int64 and checked on the integers themselves.  A float is refused
        even when integral, as ``apply_rope``'s ``m`` is; ±2**53 in an int64
        array or a list, and a 0-d array, are accepted, and rotate bitwise
        as their exact floats."""
        config = RopeConfig(dim=4)
        vecs = np.ones((2, 4))
        want = "^positions must be an integer from -9007199254740992 to 9007199254740992, got "
        cases = [
            ([0, 2.5], r"2\.5"),
            ([7.0, 7.0], r"7\.0"),
            (np.array([7.0, 7.0]), r"7\.0"),
            ([-(2.0**54), 0], r"-1\.8014398509481984e\+16"),
            ([-(2**54), 0], str(-(2**54))),
            (np.array([0, 2**53 + 1]), str(2**53 + 1)),
        ]
        for bad, shown in cases:
            with pytest.raises(ValueError, match=want + shown + "$"):
                apply_rope_many(vecs, bad, config)
        edge = apply_rope_many(vecs, np.array([2**53, -(2**53)]), config)
        assert edge.tobytes() == whole_rotation(vecs, np.array([2.0**53, -(2.0**53)]), config).tobytes()
        assert edge.tobytes() == apply_rope_many(vecs, [2**53, -(2**53)], config).tobytes()
        scalar = apply_rope_many(vecs, np.array(7), config)
        assert np.array_equal(scalar, apply_rope_many(vecs, [7, 7], config))

    def test_list_of_floats_reads_each_entry(self, monkeypatch):
        """The float twin of ``PositionIdMap``'s long list: each entry of
        a nested list, plain Python or numpy number, costs one
        ``read_value`` call, and a float array two, its extremes."""
        read, names = codec.read_value, []
        monkeypatch.setattr(codec, "read_value", lambda field, *args: names.append(field.name) or read(field, *args))
        entries = [*map(float, range(10_000)), np.float64(7.5), np.float32(3), np.int8(4), 2]
        rows = [entries[i : i + 2] for i in range(0, len(entries), 2)]
        want = np.array([float(e) for e in entries]).reshape(-1, 2).tolist()
        got = apply_rope_many(rows, 0, RopeConfig(dim=2))  # position 0 rotates by cos 1, sin 0: exact
        assert got.tolist() == want
        assert names.count("vectors") == len(entries)
        names.clear()
        assert apply_rope_many(np.array(want), 0, RopeConfig(dim=2)).tolist() == want
        assert names.count("vectors") == 2

    def test_writable_input_costs_no_copy(self):
        """Rotation only reads its inputs, so a caller's writable array
        peaks no higher than the same array read-only: the 10.24 MB copy
        of a (20000, 64) float64 array would sit far above the 1 MB slack
        for allocator noise."""
        config = RopeConfig(dim=64)
        vectors = np.random.Generator(np.random.Philox(1)).standard_normal((20_000, 64))
        positions = np.arange(20_000)
        frozen_vectors, frozen_positions = vectors.copy(), positions.copy()
        frozen_vectors.flags.writeable = frozen_positions.flags.writeable = False
        apply_rope_many(vectors[:2], positions[:2], config)  # warm

        def peak(v, m):
            tracemalloc.start()
            try:
                apply_rope_many(v, m, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(vectors, positions) <= peak(frozen_vectors, frozen_positions) + 1_000_000

    def test_zero_d_arrays_read_as_their_entry(self):
        """The float rule reads a 0-d array of a real dtype as its one
        entry, as the integer rule reads a 0-d integer array; a 0-d bool
        or string array is refused by both, and so is a 0-d inf."""
        config = RopeConfig(dim=2)
        rows = [[np.array(1.5), np.array(2)], [np.array(3, np.uint8), np.array(np.float32(0.5))]]
        plain = [[1.5, 2.0], [3.0, 0.5]]
        assert apply_rope_many(rows, 0, config).tolist() == plain
        assert apply_rope_many(rows, [np.array(3), 4], config).tobytes() == apply_rope_many(plain, [3, 4], config).tobytes()
        refused = [
            (np.array(True), r"array\(True\)"),
            (np.array("a"), r"array\('a', dtype='<U1'\)"),
            (np.array(np.inf), r"array\(inf\)"),
        ]
        for bad, shown in refused:
            with pytest.raises(ValueError, match=f"^vectors must be a number, got {shown}$"):
                apply_rope_many([[bad, 0]], 0, config)
            with pytest.raises(ValueError, match=f"^positions must be an integer from .*, got {shown}$"):
                apply_rope_many([[1, 0]], [bad], config)

    @pytest.mark.parametrize("dim", [2, 64])
    @pytest.mark.parametrize("n", [1, 1023, 1025, 3000])
    def test_row_blocks_rotate_bitwise_as_one(self, n, dim, monkeypatch):
        """The rotation is elementwise, so a block's rows are the whole
        array's bit for bit, whatever the block size: one row, 7 rows
        (a ragged last block at every n here), the default, or at least
        n; with a position per row and with one scalar position."""
        config = RopeConfig(dim=dim)
        vectors = np.random.Generator(np.random.Philox(n)).standard_normal((n, dim))
        for positions in (np.arange(n) * 37 - 5000, np.array(123_457)):
            want = whole_rotation(vectors, positions, config).tobytes()
            for block in (1, 7, rope._BLOCK_ROWS, n + 5):
                monkeypatch.setattr(rope, "_BLOCK_ROWS", block)
                assert apply_rope_many(vectors, positions, config).tobytes() == want

    @pytest.mark.parametrize("writable", [True, False], ids=["writable", "read-only"])
    @pytest.mark.parametrize("dim", [4, 64])
    def test_peak_is_the_output_and_one_block(self, dim, writable):
        """The traced peak of rotating 20000 rows is the output, plus at
        most three (block, dim) float64 arrays of one block's temporaries
        (the angles, cosines, sines and products are each half of one),
        plus 64 KB of slack; nothing is copied from the inputs.  Rotating
        the whole array at once peaked at 35.8 MB at dim 64 (10.24 MB of
        output), and in blocks at 11.6 MB."""
        config = RopeConfig(dim=dim)
        vectors = np.random.Generator(np.random.Philox(2)).standard_normal((20_000, dim))
        positions = np.arange(20_000)
        vectors.flags.writeable = positions.flags.writeable = writable
        apply_rope_many(vectors[:2], positions[:2], config)  # warm
        tracemalloc.start()
        try:
            apply_rope_many(vectors, positions, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors.nbytes + 3 * rope._BLOCK_ROWS * dim * 8 + 64_000


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
