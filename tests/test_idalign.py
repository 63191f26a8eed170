"""Tests for ID mapping, the correspondence oracle and ID assignment.

The mapped grid is never compared to a hand-written matrix; the gate is
always that every inherited ID names a spatially overlapping thumbnail
cell, with overlap decided by an independent floating-point rectangle
check where the library's integer oracle is itself under test.
"""

import numpy as np
import pytest

from ropealign import (
    CorrespondencePair,
    GridShape,
    HighResGrid,
    LayoutPlan,
    PositionIdMap,
    Separator,
    TextSegment,
    ThumbnailGrid,
    assign_position_ids,
    correspondence_oracle,
    id_span_report,
    map_highres_ids,
    thumbnail_id_grid,
)


def float_overlap_oracle(thumb, high):
    """Rectangle intersection recomputed with plain floats."""
    pairs = set()
    eps = 1e-12
    for r in range(high.rows):
        for c in range(high.cols):
            for tr in range(thumb.rows):
                for tc in range(thumb.cols):
                    dr = min((r + 1) / high.rows, (tr + 1) / thumb.rows) - max(
                        r / high.rows, tr / thumb.rows
                    )
                    dc = min((c + 1) / high.cols, (tc + 1) / thumb.cols) - max(
                        c / high.cols, tc / thumb.cols
                    )
                    if dr > eps and dc > eps:
                        pairs.add(CorrespondencePair((r, c), (tr, tc)))
    return pairs


class TestThumbnailIdGrid:
    """Raster numbering."""

    def test_2x2_base_zero(self):
        assert np.array_equal(thumbnail_id_grid(GridShape(2, 2)), [[0, 1], [2, 3]])

    def test_1x3_base_seven(self):
        assert np.array_equal(thumbnail_id_grid(GridShape(1, 3), base=7), [[7, 8, 9]])

    def test_24x24_base_ten_last_entry(self):
        grid = thumbnail_id_grid(GridShape(24, 24), base=10)
        assert grid[-1, -1] == 585

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            thumbnail_id_grid(GridShape(2, 2), base=-1)


class TestMapHighresIds:
    """Coordinate interpolation and rounding."""

    def test_same_shape_is_identity(self):
        m = map_highres_ids(GridShape(2, 2), GridShape(2, 2), base=5)
        assert np.array_equal(m.ids, thumbnail_id_grid(GridShape(2, 2), base=5))

    def test_single_source_cell(self):
        m = map_highres_ids(GridShape(1, 1), GridShape(3, 3), base=4)
        assert np.all(m.ids == 4)

    def test_2x2_to_4x4_soundness(self):
        """Every inherited ID must name an overlapping thumbnail cell."""
        thumb, high = GridShape(2, 2), GridShape(4, 4)
        m = map_highres_ids(thumb, high)
        oracle = correspondence_oracle(thumb, high)
        for r in range(4):
            for c in range(4):
                tr, tc = divmod(int(m.ids[r, c]), 2)
                assert CorrespondencePair((r, c), (tr, tc)) in oracle

    def test_exact_nesting_matches_unique_partner(self):
        """When the fine grid is an integer refinement, each fine cell
        has exactly one partner and the mapping must pick it."""
        for factor in (2, 3, 4):
            thumb = GridShape(3, 2)
            high = GridShape(3 * factor, 2 * factor)
            m = map_highres_ids(thumb, high)
            oracle = correspondence_oracle(thumb, high)
            partners = {}
            for pair in oracle:
                partners.setdefault(pair.highres_cell, []).append(pair.thumb_cell)
            for (r, c), plist in partners.items():
                assert len(plist) == 1
                tr, tc = plist[0]
                assert int(m.ids[r, c]) == tr * thumb.cols + tc

    def test_monotone_rows_and_cols(self):
        rng = np.random.Generator(np.random.Philox(83))
        for _ in range(100):
            thumb = GridShape(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            high = GridShape(int(rng.integers(1, 17)), int(rng.integers(1, 17)))
            m = map_highres_ids(thumb, high, base=int(rng.integers(0, 50)))
            assert np.all(np.diff(m.ids, axis=0) >= 0)
            assert np.all(np.diff(m.ids, axis=1) >= 0)
            assert m.ids.min() >= m.base
            assert m.ids.max() < m.base + thumb.cells

    def test_csv_rows(self):
        m = map_highres_ids(GridShape(2, 2), GridShape(2, 2), base=0)
        assert m.to_csv() == "0,1\n2,3\n"


class TestCorrespondenceOracle:
    """Spatial-overlap enumeration."""

    def test_single_thumb_cell_pairs_with_all(self):
        pairs = correspondence_oracle(GridShape(1, 1), GridShape(3, 2))
        assert len(pairs) == 6
        assert all(p.thumb_cell == (0, 0) for p in pairs)

    def test_exact_refinement_unique_partner(self):
        pairs = correspondence_oracle(GridShape(2, 2), GridShape(4, 4))
        assert len(pairs) == 16
        seen = {p.highres_cell for p in pairs}
        assert len(seen) == 16

    def test_3x3_vs_4x4_has_four_way_cells(self):
        pairs = correspondence_oracle(GridShape(3, 3), GridShape(4, 4))
        per_cell = {}
        for p in pairs:
            per_cell.setdefault(p.highres_cell, set()).add(p.thumb_cell)
        assert max(len(v) for v in per_cell.values()) == 4

    def test_agrees_with_float_oracle(self):
        rng = np.random.Generator(np.random.Philox(89))
        for _ in range(40):
            thumb = GridShape(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            high = GridShape(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            assert set(correspondence_oracle(thumb, high)) == float_overlap_oracle(thumb, high)


def trace_plan(high_shape=GridShape(2, 2), row_separator=False):
    return LayoutPlan(
        segments=(
            TextSegment(2),
            ThumbnailGrid(GridShape(2, 2)),
            HighResGrid(high_shape, row_separator=row_separator),
            TextSegment(1),
        ),
        patch_size=14,
    )


class TestAssignPositionIds:
    """Counter semantics of the assignment walk."""

    def test_worked_trace(self):
        """Two text, 2x2 thumb, 2x2 high, one text: the high block reuses
        ids 2..5 and the final text token lands on 6."""
        idmap = assign_position_ids(trace_plan(), "id_align")
        assert list(idmap.ids) == [0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 6]
        assert idmap.max_pid == 7

    def test_baseline_is_sequential(self):
        idmap = assign_position_ids(trace_plan(), "baseline")
        assert list(idmap.ids) == list(range(11))
        assert idmap.max_pid == 11

    def test_larger_high_grid_keeps_text_id(self):
        """With a 4x4 high grid the aligned post-image text stays at 6
        while the baseline counts all 22 earlier slots."""
        plan = trace_plan(high_shape=GridShape(4, 4))
        aligned = assign_position_ids(plan, "id_align")
        baseline = assign_position_ids(plan, "baseline")
        assert aligned.ids[-1] == 6
        assert baseline.ids[-1] == 22

    def test_inherit_row_end_separators(self):
        plan = LayoutPlan(
            segments=(
                TextSegment(1),
                ThumbnailGrid(GridShape(2, 2)),
                HighResGrid(GridShape(2, 2), row_separator=True),
                TextSegment(1),
            ),
            patch_size=14,
        )
        idmap = assign_position_ids(plan, "id_align", "inherit-row-end")
        assert list(idmap.ids) == [0, 1, 2, 3, 4, 1, 2, 2, 3, 4, 4, 5]
        assert idmap.max_pid == 6

    def test_sequential_after_image_separators(self):
        plan = LayoutPlan(
            segments=(
                TextSegment(1),
                ThumbnailGrid(GridShape(2, 2)),
                HighResGrid(GridShape(2, 2), row_separator=True),
                TextSegment(1),
            ),
            patch_size=14,
        )
        idmap = assign_position_ids(plan, "id_align", "sequential-after-image")
        assert list(idmap.ids) == [0, 1, 2, 3, 4, 1, 2, 5, 3, 4, 6, 7]
        assert idmap.max_pid == 8

    def test_high_without_thumbnail_rejected(self):
        plan = LayoutPlan(
            segments=(TextSegment(1), HighResGrid(GridShape(2, 2))), patch_size=14
        )
        with pytest.raises(ValueError):
            assign_position_ids(plan, "id_align")
        assert assign_position_ids(plan, "baseline").max_pid == plan.total_tokens

    def test_high_before_thumbnail_rejected(self):
        plan = LayoutPlan(
            segments=(HighResGrid(GridShape(2, 2)), ThumbnailGrid(GridShape(2, 2))),
            patch_size=14,
        )
        with pytest.raises(ValueError):
            assign_position_ids(plan, "id_align")

    def test_baseline_equivalence_without_high_grid(self):
        plan = LayoutPlan(
            segments=(TextSegment(3), ThumbnailGrid(GridShape(3, 3)), TextSegment(2)),
            patch_size=14,
        )
        a = assign_position_ids(plan, "baseline")
        b = assign_position_ids(plan, "id_align")
        assert a.ids == b.ids
        assert a.max_pid == b.max_pid

    def test_inheritance_stays_in_thumb_range(self):
        rng = np.random.Generator(np.random.Philox(97))
        for _ in range(50):
            pre = int(rng.integers(0, 10))
            thumb = GridShape(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            high = GridShape(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            segs = []
            if pre:
                segs.append(TextSegment(pre))
            segs += [ThumbnailGrid(thumb), HighResGrid(high, row_separator=bool(rng.integers(2)))]
            plan = LayoutPlan(segments=tuple(segs), patch_size=14)
            idmap = assign_position_ids(plan, "id_align")
            for role, pid in zip(plan.slot_roles(), idmap.ids):
                if role == "highres":
                    assert pre <= pid < pre + thumb.cells

    def test_standalone_separator_inherits_previous(self):
        plan = LayoutPlan(
            segments=(ThumbnailGrid(GridShape(1, 2)), Separator(2), TextSegment(1)),
            patch_size=14,
        )
        idmap = assign_position_ids(plan, "id_align", "inherit-row-end")
        assert list(idmap.ids) == [0, 1, 1, 1, 2]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            assign_position_ids(trace_plan(), "aligned")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            assign_position_ids(trace_plan(), "id_align", "drop")


class TestPositionIdMap:
    """Container validation and wire format."""

    def test_json_format(self):
        idmap = PositionIdMap(ids=(0, 1, 2), max_pid=3, mode="baseline")
        assert idmap.to_json() == '{"ids":[0,1,2],"max_pid":3,"mode":"baseline"}'

    def test_max_pid_must_match_ids(self):
        with pytest.raises(ValueError):
            PositionIdMap(ids=(0, 1), max_pid=5, mode="baseline")

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            PositionIdMap(ids=(0, -1), max_pid=1, mode="baseline")


class TestIdSpanReport:
    """Image-token span comparison."""

    def test_672_plan_spans(self):
        """The aligned span stays at the thumbnail's 575 while baseline
        spans the whole 576 + 2304 + separator stretch."""
        plan = LayoutPlan(
            segments=(
                TextSegment(10),
                ThumbnailGrid(GridShape(24, 24)),
                HighResGrid(GridShape(48, 48), row_separator=True),
                TextSegment(5),
            ),
            patch_size=14,
        )
        report = id_span_report(plan)
        assert report.id_align_span == 575
        assert report.baseline_span >= 2879
        assert report.ratio == report.baseline_span / 575

    def test_thumbnail_only_spans_equal(self):
        plan = LayoutPlan(segments=(ThumbnailGrid(GridShape(4, 4)),), patch_size=14)
        report = id_span_report(plan)
        assert report.baseline_span == report.id_align_span == 15
        assert report.ratio == 1.0

    def test_same_size_high_grid(self):
        plan = LayoutPlan(
            segments=(ThumbnailGrid(GridShape(24, 24)), HighResGrid(GridShape(24, 24), row_separator=False)),
            patch_size=14,
        )
        report = id_span_report(plan)
        assert report.id_align_span == 575
        assert report.baseline_span == 1151
