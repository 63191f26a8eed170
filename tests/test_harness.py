"""Tests for the score walk, score matrices, score summaries and the
gain report."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ropealign
from ropealign import harness, idalign, rope
from ropealign.codec import csv_text
from ropealign import (
    GridShape,
    HighResGrid,
    LayoutPlan,
    PositionIdMap,
    Resolution,
    RopeConfig,
    TextSegment,
    ThumbnailGrid,
    TokenPopulation,
    Separator,
    alignment_gain_report,
    assign_position_ids,
    attention_summary,
    build_layout,
    population_constant,
    population_gaussian,
    rope_dot,
    score_blocks,
    token_counts,
)

from oracles import attention_scores


def trace_plan(high_shape=GridShape(2, 2)):
    return LayoutPlan(
        segments=(
            TextSegment(2),
            ThumbnailGrid(GridShape(2, 2)),
            HighResGrid(high_shape, row_separator=False),
            TextSegment(1),
        ),
        patch_size=14,
    )


def distance_matrix(idmap: PositionIdMap) -> np.ndarray:
    """The distance blocks of the map, stacked."""
    return np.concatenate(list(harness._distance_blocks(idmap.ids)))


class TestRelativeDistanceMatrix:
    """Pairwise |id_i - id_j| from the distance blocks."""

    def test_sequential_toeplitz(self):
        idmap = PositionIdMap(ids=(0, 1, 2, 3), mode="baseline")
        d = distance_matrix(idmap)
        want = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        assert np.array_equal(d, want)

    def test_aligned_corresponding_pairs_at_distance_zero(self):
        """On the worked trace, high-res slot (r,c) sits at distance 0
        from thumbnail slot (r,c): slots 6..9 mirror slots 2..5."""
        idmap = assign_position_ids(trace_plan(), "id_align")
        d = distance_matrix(idmap)
        for offset in range(4):
            assert d[2 + offset, 6 + offset] == 0

    def test_baseline_corresponding_pairs_at_distance_four(self):
        idmap = assign_position_ids(trace_plan(), "baseline")
        d = distance_matrix(idmap)
        for offset in range(4):
            assert d[2 + offset, 6 + offset] == 4


class TestAttentionScores:
    """Rotary-modulated score matrices."""

    def test_zero_vectors_zero_scores(self):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_constant(plan, config, value=0.0)
        idmap = assign_position_ids(plan, "baseline")
        scores = attention_scores(pop, idmap, config)
        assert np.all(scores == 0.0)
        soft = attention_scores(pop, idmap, config, normalize=True)
        n = plan.total_tokens
        assert np.allclose(soft, 1.0 / n, atol=1e-12)

    def test_constant_population_depends_only_on_distance(self):
        plan = trace_plan()
        config = RopeConfig(dim=16)
        pop = population_constant(plan, config)
        idmap = assign_position_ids(plan, "baseline")
        scores = attention_scores(pop, idmap, config)
        d = distance_matrix(idmap)
        by_distance = {}
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                by_distance.setdefault(int(d[i, j]), []).append(scores[i, j])
        for vals in by_distance.values():
            assert max(vals) - min(vals) < 1e-9

    def test_aligned_high_queries_peak_on_their_thumb_token(self):
        """Among thumbnail keys, the distance-0 partner takes the top
        score for every high-res query under the aligned assignment."""
        plan = trace_plan()
        config = RopeConfig(dim=16, theta_base=1e4)
        pop = population_constant(plan, config)
        idmap = assign_position_ids(plan, "id_align")
        scores = attention_scores(pop, idmap, config)
        for offset in range(4):
            query = 6 + offset
            thumb_scores = scores[query, 2:6]
            assert int(np.argmax(thumb_scores)) == offset

    def test_constant_id_shift_leaves_scores_unchanged(self):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, mean=0.5, seed=13)
        base = assign_position_ids(plan, "baseline")
        shifted = PositionIdMap(ids=tuple(i + 50 for i in base.ids), mode="baseline")
        a = attention_scores(pop, base, config)
        b = attention_scores(pop, shifted, config)
        assert np.allclose(a, b, rtol=0, atol=1e-9)

    def test_softmax_rows_sum_to_one(self):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, seed=17)
        idmap = assign_position_ids(plan, "id_align")
        soft = attention_scores(pop, idmap, config, normalize=True)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    def test_unscaled_matches_rope_dot(self):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, seed=19)
        idmap = assign_position_ids(plan, "baseline")
        scores = attention_scores(pop, idmap, config, scale=False)
        for i in (0, 3, 7):
            for j in (1, 5, 10):
                want = rope_dot(pop.vectors[i], idmap.ids[i], pop.vectors[j], idmap.ids[j], config)
                assert scores[i, j] == pytest.approx(want, abs=1e-9)

    def test_population_idmap_length_mismatch(self):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_constant(plan, config)
        with pytest.raises(ValueError):
            attention_scores(pop, PositionIdMap(ids=(0, 1), mode="baseline"), config)

    def test_population_dim_mismatch(self):
        plan = trace_plan()
        pop = population_constant(plan, RopeConfig(dim=8))
        idmap = assign_position_ids(plan, "baseline")
        with pytest.raises(ValueError, match=r"^vectors must have shape \(any, 16\), got \(11, 8\)$"):
            attention_scores(pop, idmap, RopeConfig(dim=16))


def grid_plan(thumb: int, text: int = 5) -> LayoutPlan:
    """Text, a thumb x thumb thumbnail, a 2x-side high-res grid with row
    separators, a separator and text."""
    return LayoutPlan(
        segments=(
            TextSegment(text),
            ThumbnailGrid(GridShape(thumb, thumb)),
            HighResGrid(GridShape(2 * thumb, 2 * thumb), row_separator=True),
            Separator(1),
            TextSegment(text),
        ),
        patch_size=14,
    )


# Run by test_scores_are_symmetric_at_two_simd_levels in a fresh
# interpreter; argv names the SIMD levels its environment disabled.
SYMMETRY_CHILD = """
import sys
import numpy as np
from numpy._core import _multiarray_umath as umath
from ropealign import *

assert not any(umath.__cpu_features__[name] for name in sys.argv[1:])
plan = LayoutPlan(
    segments=(
        TextSegment(6),
        ThumbnailGrid(GridShape(6, 6)),
        HighResGrid(GridShape(12, 12), row_separator=True),
        Separator(1),
        TextSegment(6),
    ),
    patch_size=14,
)
assert plan.total_tokens == 205
config = RopeConfig(dim=64)
pop = population_gaussian(plan, config, mean=0.5, seed=3)
roles = np.asarray(pop.roles)
for mode in ("baseline", "id_align"):
    idmap = assign_position_ids(plan, mode)
    scores = np.concatenate(list(score_blocks(pop, idmap, config)))
    assert scores.tobytes() == np.ascontiguousarray(scores.T).tobytes(), mode
    dist = np.abs(np.subtract.outer(idmap.ids, idmap.ids))
    lower = np.array([0] + [1 << (d.bit_length() - 1) for d in range(1, dist.max() + 1)])[dist]
    for query, key, bucket, *_, max_score in attention_summary(pop, idmap, config).rows:
        group = (roles[:, None] == query) & (roles == key) & (lower == bucket)
        assert max_score == scores[group].max(), (mode, query, key, bucket)
print("ok")
"""


class TestAttentionSummary:
    """Row-blocked scores and their role-by-distance summary."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_blocks_equal_one_full_product(self, normalize):
        """Across several blocks and a short last one, the rows are
        bitwise those of one whole-matrix product."""
        plan = grid_plan(6)  # 5 + 36 + 156 + 1 + 5 = 203 slots
        assert plan.total_tokens > 3 * harness._BLOCK_ROWS
        config = RopeConfig(dim=16)
        pop = population_gaussian(plan, config, mean=0.5, seed=5)
        idmap = assign_position_ids(plan, "baseline")
        rotated = harness.apply_rope_many(pop.vectors, idmap.ids, config)
        want = np.einsum("ik,jk->ij", rotated, rotated) / np.sqrt(config.dim)
        if normalize:
            want = np.exp(want - want.max(axis=1, keepdims=True))
            want = want / want.sum(axis=1, keepdims=True)
        got = attention_scores(pop, idmap, config, normalize=normalize)
        assert got.tobytes() == want.tobytes()

    def test_walk_yields_blocks_in_row_order_and_rotates_once(self, monkeypatch):
        """Full blocks then a short one, from one rotation of the
        population; the distance blocks cover the same rows, against
        every key or against the upper triangle."""
        plan = grid_plan(6)  # 203 slots: three full blocks and 11 rows
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, seed=3)
        idmap = assign_position_ids(plan, "id_align")
        calls = []
        rotate = harness.apply_rope_many

        def counting(*args):
            calls.append(args)
            return rotate(*args)

        monkeypatch.setattr(harness, "apply_rope_many", counting)
        blocks = list(score_blocks(pop, idmap, config))
        assert len(calls) == 1
        assert [scores.shape for scores in blocks] == [(64, 203)] * 3 + [(11, 203)]
        ids = np.asarray(idmap.ids)
        want = np.abs(np.subtract.outer(ids, ids))
        dist = list(harness._distance_blocks(ids))
        assert [len(d) for d in dist] == [64, 64, 64, 11]
        assert np.array_equal(np.concatenate(dist), want)
        for lo, upper in zip(range(0, 203, 64), harness._distance_blocks(ids, upper=True)):
            assert np.array_equal(upper, want[lo : lo + 64, lo:])

    def test_walk_rotates_library_arrays_without_a_copy(self, monkeypatch):
        """The rotation reads a library-built population and map as they
        are: both are read-only arrays that own their memory."""
        plan = grid_plan(2)
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, seed=3)
        idmap = assign_position_ids(plan, "id_align")
        read, reads = rope.read_array, []
        monkeypatch.setattr(rope, "read_array", lambda *args: reads.append(read(*args)) or reads[-1])
        next(score_blocks(pop, idmap, config))
        vectors, positions = reads
        assert np.shares_memory(vectors, pop.vectors) and np.shares_memory(positions, idmap.ids)

    def test_empty_plan_gives_empty_matrix(self):
        plan = LayoutPlan(segments=(), patch_size=14)
        config = RopeConfig(dim=4)
        pop = population_constant(plan, config)
        assert attention_scores(pop, assign_position_ids(plan, "baseline"), config).shape == (0, 0)

    def test_worked_example_bytes(self):
        """Three text slots with zero vectors: distances 0, 1 and 2."""
        plan = LayoutPlan(segments=(TextSegment(3),), patch_size=14)
        config = RopeConfig(dim=4)
        summary = attention_summary(
            population_constant(plan, config, 0.0), assign_position_ids(plan, "baseline"), config
        )
        assert summary.to_csv() == (
            "query_role,key_role,distance_bucket,count,mean_distance,max_distance,"
            "mean_score,max_score\n"
            "text,text,0,3,0.0,0,0.0,0.0\n"
            "text,text,1,4,1.0,1,0.0,0.0\n"
            "text,text,2,2,2.0,2,0.0,0.0\n"
        )

    def test_buckets_are_powers_of_two(self):
        plan = LayoutPlan(segments=(TextSegment(20),), patch_size=14)
        config = RopeConfig(dim=4)
        summary = attention_summary(
            population_constant(plan, config), assign_position_ids(plan, "baseline"), config
        )
        assert [row[2] for row in summary.rows] == [0, 1, 2, 4, 8, 16]
        assert [row[5] for row in summary.rows] == [0, 1, 3, 7, 15, 19]

    @pytest.mark.parametrize("mode", ["baseline", "id_align"])
    def test_role_pair_counts_cover_every_pair(self, mode):
        plan = grid_plan(4)
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, mean=0.5, seed=2)
        summary = attention_summary(pop, assign_position_ids(plan, mode), config, normalize=True)
        roles = plan.slot_roles()
        per_pair = {}
        for q, k, _bucket, count, *_ in summary.rows:
            per_pair[q, k] = per_pair.get((q, k), 0) + count
        names = sorted(set(roles))
        assert per_pair == {(q, k): roles.count(q) * roles.count(k) for q in names for k in names}
        # CSV cells are plain Python values, never numpy scalars.
        assert {type(cell) for row in summary.rows for cell in row} <= {str, int, float}

    def test_peak_memory_grows_linearly_with_slots(self):
        """Peak memory is O(block * slots): doubling the slots less than
        triples it, where a dense matrix would about quadruple it."""
        config = RopeConfig(dim=64)
        peaks = []
        for thumb in (8, 12):  # 347 and 755 slots
            plan = grid_plan(thumb)
            pop = population_gaussian(plan, config, mean=0.5, seed=1)
            idmap = assign_position_ids(plan, "baseline")
            tracemalloc.start()
            try:
                attention_summary(pop, idmap, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0]

    @pytest.mark.parametrize("normalize", [False, True])
    def test_default_summary_computes_the_upper_triangle(self, normalize, monkeypatch):
        """Counted in einsum cells, not seconds: the default summary
        computes at most N (N + 64) / 2 scores, the softmax summary all
        N^2 of them."""
        plan = grid_plan(6)  # 203 slots
        n = plan.total_tokens
        config = RopeConfig(dim=8)
        pop = population_gaussian(plan, config, mean=0.5, seed=4)
        cells = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            out = einsum(*args, **kwargs)
            cells.append(out.size)
            return out

        monkeypatch.setattr(harness.np, "einsum", counting)
        for mode in ("baseline", "id_align"):
            cells.clear()
            attention_summary(pop, assign_position_ids(plan, mode), config, normalize=normalize)
            if normalize:
                assert sum(cells) == n * n
            else:
                assert sum(cells) <= n * (n + harness._BLOCK_ROWS) // 2

    def test_scores_are_symmetric_at_two_simd_levels(self):
        """The upper-triangle fold relies on score(i, j) == score(j, i) bit
        for bit, so it is checked in fresh interpreters: once with every
        dispatched SIMD level numpy finds, once with all but the lowest
        of them disabled (set for that child only)."""
        from numpy._core import _multiarray_umath as umath

        found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
        top = found[1:] or found
        src = str(Path(ropealign.__file__).resolve().parents[1])
        for disabled in ([], top):
            env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
            proc = subprocess.run(
                [sys.executable, "-c", SYMMETRY_CHILD, *disabled],
                env=env, capture_output=True, text=True,
            )  # fmt: skip
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "ok\n"

    @pytest.mark.parametrize("normalize", [False, True])
    def test_population_idmap_length_mismatch(self, normalize):
        plan = trace_plan()
        config = RopeConfig(dim=8)
        pop = population_constant(plan, config)
        for ids in [(0, 1), ()]:
            with pytest.raises(ValueError):
                attention_summary(pop, PositionIdMap(ids=ids, mode="baseline"), config, normalize=normalize)


class TestMatrixCsv:
    """Dense serialization: a header of slot roles, then the rows as
    ``tolist()`` gives them."""

    def test_integer_matrix(self):
        text = csv_text(("text", "thumb"), np.array([[0, 2], [2, 0]]).tolist())
        assert text == "text,thumb\n0,2\n2,0\n"

    def test_float_matrix_uses_repr(self):
        text = csv_text(("a", "b"), np.array([[0.5, 1.0]]).tolist())
        assert text == "a,b\n0.5,1.0\n"


class TestTokenPopulation:
    """Synthetic population builders."""

    def test_roles_follow_plan(self):
        plan = trace_plan()
        pop = population_constant(plan, RopeConfig(dim=4))
        assert pop.roles == plan.slot_roles()
        assert pop.vectors.shape == (plan.total_tokens, 4)

    def test_gaussian_is_seeded(self):
        plan = trace_plan()
        config = RopeConfig(dim=4)
        a = population_gaussian(plan, config, mean=1.0, seed=3)
        b = population_gaussian(plan, config, mean=1.0, seed=3)
        assert np.array_equal(a.vectors, b.vectors)
        draws = np.random.Generator(np.random.Philox(3)).standard_normal((plan.total_tokens, 4))
        assert a.vectors.tobytes() == (1.0 + draws).tobytes()  # the mean added in place: the same bits

    @pytest.mark.parametrize("build", [population_constant, population_gaussian])
    def test_builder_peak_is_its_output(self, build):
        """A builder's traced peak is its (slots, dim) output, plus three
        slot-role sequences (8 bytes a slot each) and 64 KB of slack: no
        second (slots, dim) array, and no mask over its entries."""
        plan = LayoutPlan(segments=(TextSegment(20_000),), patch_size=14)
        config = RopeConfig(dim=64)
        build(trace_plan(), config)  # warm
        tracemalloc.start()
        try:
            out = build(plan, config, 0.5).vectors.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out + 3 * 8 * plan.total_tokens + 64_000

    @pytest.mark.parametrize("build", [population_constant, population_gaussian])
    def test_builders_hand_their_array_over(self, build, monkeypatch):
        """A builder's fresh array is the population's, stored once."""
        hold, given = harness.hold_array, []
        monkeypatch.setattr(harness, "hold_array", lambda value, *args: given.append(value) or hold(value, *args))
        pop = build(trace_plan(), RopeConfig(dim=4))
        assert len(given) == 1 and given[0] is pop.vectors

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^vectors must be a number, got inf$"):
            TokenPopulation(vectors=np.array([[np.inf, 0.0]]), roles=("text",))

    @pytest.mark.parametrize(
        "vectors, n_roles, message",
        [(np.zeros(3), 3, r"^vectors must have shape \(any, any\), got \(3,\)$"),
         (np.zeros((3, 2)), 2, "one role per vector")],
        ids=["1-D", "role-count"],
    )
    def test_bad_shape_rejected(self, vectors, n_roles, message):
        with pytest.raises(ValueError, match=message):
            TokenPopulation(vectors=vectors, roles=("text",) * n_roles)


class TestAlignmentGainReport:
    """Geometry comparison between the two modes."""

    def test_thumbnail_only_plan_identical(self):
        plan = LayoutPlan(
            segments=(TextSegment(2), ThumbnailGrid(GridShape(3, 3)), TextSegment(2)),
            patch_size=14,
        )
        report = alignment_gain_report(plan)
        assert report.baseline == report.id_align
        assert report.baseline.pair_mean_distance is None

    def test_trace_plan_gain(self):
        report = alignment_gain_report(trace_plan())
        assert report.id_align.pair_mean_distance == 0.0
        assert report.baseline.pair_mean_distance == 4.0
        assert report.id_align.max_id == 6
        assert report.baseline.max_id == 10

    def test_672_plan_pair_distance_and_text_gap(self):
        """Aligned pairs sit at distance 0; the post-text-to-farthest
        gap shrinks by at least the 2304 high-res tokens."""
        plan = LayoutPlan(
            segments=(
                TextSegment(10),
                ThumbnailGrid(GridShape(24, 24)),
                HighResGrid(GridShape(48, 48), row_separator=True),
                TextSegment(5),
            ),
            patch_size=14,
        )
        report = alignment_gain_report(plan)
        assert report.id_align.pair_mean_distance == 0.0
        assert report.baseline.pair_mean_distance > 0.0
        gap = (
            report.baseline.post_text_max_image_distance
            - report.id_align.post_text_max_image_distance
        )
        assert gap >= 2304

    def test_no_post_text_fields_absent(self):
        plan = LayoutPlan(
            segments=(ThumbnailGrid(GridShape(2, 2)), HighResGrid(GridShape(2, 2), row_separator=False)),
            patch_size=14,
        )
        report = alignment_gain_report(plan)
        assert report.id_align.post_text_mean_image_distance is None
        assert report.id_align.post_text_max_image_distance is None
        assert report.id_align.pair_mean_distance == 0.0

    def test_json_round_trip_shape(self):
        import json

        report = alignment_gain_report(trace_plan())
        doc = json.loads(report.to_json())
        assert set(doc) == {"baseline", "id_align"}
        assert doc["id_align"]["pair_mean_distance"] == 0.0

    def test_json_bytes_pinned(self):
        """Field order and float formatting of the wire format are fixed."""
        assert alignment_gain_report(trace_plan()).to_json() == (
            '{"baseline":{"pair_mean_distance":4.0,"post_text_mean_image_distance":4.5,'
            '"post_text_max_image_distance":8,"max_id":10},'
            '"id_align":{"pair_mean_distance":0.0,"post_text_mean_image_distance":2.5,'
            '"post_text_max_image_distance":4,"max_id":6}}'
        )
        thumb_only = LayoutPlan(
            segments=(TextSegment(2), ThumbnailGrid(GridShape(3, 3)), TextSegment(2)),
            patch_size=14,
        )
        geometry = (
            '{"pair_mean_distance":null,"post_text_mean_image_distance":5.5,'
            '"post_text_max_image_distance":10,"max_id":12}'
        )
        assert alignment_gain_report(thumb_only).to_json() == (
            f'{{"baseline":{geometry},"id_align":{geometry}}}'
        )

    def test_post_text_statistics_hold_no_matrix(self):
        """On the README geometry with 5000 post-text tokens (7938 slots),
        the report's peak stays far below the 5000 x 2880 int64 |delta id|
        matrix (115 MB) that the post-text statistics once built."""
        plan = build_layout(
            10, Resolution(672, 672), [Resolution(672, 672), Resolution(336, 672)],
            Resolution(336, 336), 14, 5000,
        )  # fmt: skip
        maps = {mode: assign_position_ids(plan, mode) for mode in ("baseline", "id_align")}
        image = token_counts(plan).image_tokens
        assert (plan.total_tokens, image) == (7938, 2880)
        tracemalloc.start()
        try:
            report = alignment_gain_report(plan, **maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * image * 8 / 16
        assert report.baseline.post_text_max_image_distance == 7927
        assert report.id_align.post_text_mean_image_distance == 2788.0

    @pytest.mark.parametrize("policy", ["inherit-row-end", "sequential-after-image"])
    def test_given_maps_are_used(self, policy, monkeypatch):
        """Maps the caller passes give the same report and are not recomputed."""
        plan = LayoutPlan(
            segments=(
                TextSegment(3),
                ThumbnailGrid(GridShape(2, 3)),
                HighResGrid(GridShape(4, 6), row_separator=True),
                TextSegment(2),
            ),
            patch_size=14,
        )
        want = alignment_gain_report(plan, policy)
        maps = {mode: assign_position_ids(plan, mode, policy) for mode in ("baseline", "id_align")}

        def fail(*args, **kwargs):
            raise AssertionError("map recomputed")

        monkeypatch.setattr(idalign, "assign_position_ids", fail)
        assert alignment_gain_report(plan, policy, **maps) == want

    def test_plan_is_read_once_for_both_maps(self, monkeypatch):
        """The slot sets are the plan's alone, so one report finds them
        once: two ``_axis_partners`` calls (rows and columns) and one
        ``image_slots`` call, not one set per map.  A map's geometry is read
        from its IDs and those sets, with no plan."""
        plan = trace_plan(GridShape(4, 6))
        calls = []
        for owner, name in ((harness, "_axis_partners"), (LayoutPlan, "image_slots")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        report = alignment_gain_report(plan)
        assert sorted(calls) == ["_axis_partners", "_axis_partners", "image_slots"]
        assert report.id_align.pair_mean_distance == 0.0
        assert "plan" not in inspect.signature(harness._mode_geometry).parameters
