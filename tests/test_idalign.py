"""Tests for ID mapping, the correspondence oracle and ID assignment.

The mapped grid is never compared to a hand-written matrix; the gate is
always that every inherited ID names a spatially overlapping thumbnail
cell, with overlap decided by an independent floating-point rectangle
check where the integer oracle of ``oracles.py`` is itself under test.
"""

import dataclasses
import functools
import json
import math
import tracemalloc
import typing
from fractions import Fraction

import numpy as np
import pytest

import ropealign
from ropealign import (
    GridMapping,
    GridShape,
    HighResGrid,
    LayoutPlan,
    PositionIdMap,
    Separator,
    TextSegment,
    ThumbnailGrid,
    TokenPopulation,
    assign_position_ids,
    id_span_report,
    map_highres_ids,
)
from ropealign import codec
from ropealign.codec import json_chunks
from ropealign.idalign import _axis_partners

from oracles import CorrespondencePair, correspondence_oracle


def thumbnail_id_grid(shape, base=0):
    """Raster-order IDs base .. base + cells - 1 as a (rows, cols) matrix:
    the thumbnail's IDs, the reference the mapped grid is read against."""
    if base < 0:
        raise ValueError("base must be non-negative")
    return base + np.arange(shape.cells, dtype=np.int64).reshape(shape.rows, shape.cols)


def assert_id_array(ids, want):
    """``ids`` is a read-only int64 array equal to ``want``."""
    assert isinstance(ids, np.ndarray)
    assert ids.dtype == np.int64
    assert not ids.flags.writeable
    assert np.array_equal(ids, want)


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

    def test_matches_the_stated_rule_in_rationals(self):
        """Fine cell j of n1 takes coarse cell (j + 1/2) n0 / n1 - 1/2,
        rounded half away from zero and clamped, computed here in exact
        rationals, for every n0, n1 from 1 to 120: the (n0, n1) thumbnail
        mapped to (n1, n0) checks the pair on rows and its mirror on
        columns.  A tie, a center on a thumbnail boundary, rounds up: 24
        rows mapped to 47 put fine row 23 on coarse row 12."""
        half = Fraction(1, 2)

        @functools.cache
        def rule(n0, n1):
            out = []
            for j in range(n1):
                src = Fraction((2 * j + 1) * n0 - n1, 2 * n1)  # (j + 1/2) n0 / n1 - 1/2
                r = math.floor(abs(src) + half)
                out.append(min(max(r if src >= 0 else -r, 0), n0 - 1))
            return np.array(out)

        assert rule(24, 47)[23] == 12
        for n0 in range(1, 121):
            for n1 in range(1, 121):
                got = map_highres_ids(GridShape(n0, n1), GridShape(n1, n0)).ids
                assert np.array_equal(got, np.add.outer(rule(n0, n1) * n1, rule(n1, n0))), (n0, n1)

    @pytest.mark.parametrize(
        "n0, n1", [(5 * 10**12, 10**6), (2**63 - 1, 7), (2**63 - 2, 7), (2**63, 1), (3, 2**20)]
    )
    def test_exact_where_the_products_pass_int64(self, n0, n1):
        """An axis pair whose (2j + 1) n0 passes int64 (all but the last
        here, a 3-cell axis cut into 2**20) maps to exactly
        floor((2j + 1) n0 / (2 n1)), here in Python ints, and each target
        lies in the overlap range [floor(j n0 / n1), ceil((j + 1) n0 / n1))
        of ``_axis_partners``, here in Python ints too."""
        got = map_highres_ids(GridShape(n0, 1), GridShape(n1, 1)).ids[:, 0]
        j = np.arange(n1).astype(object)
        want = (2 * j + 1) * n0 // (2 * n1)
        assert got.tolist() == want.tolist()
        assert ((j * n0 // n1 <= want) & (want < -(-(j + 1) * n0 // n1))).all()


class TestGridMapping:
    """A mapping checks its own grid, whatever built it."""

    @pytest.mark.parametrize(
        "ids, base, message",
        [
            ([[0, 1, 2]], 0, r"^ids must have shape \(2, 2\), got \(1, 3\)$"),
            ([[0, 1], [2, 3]], -1, "^base must be an integer of at least 0, got -1$"),
            ([[4, 5], [6, 7]], 5, "at least base"),
            ([[1, 0], [2, 3]], 0, "nondecreasing"),
            ([[2, 3], [0, 1]], 0, "nondecreasing"),
        ],
        ids=["shape", "negative-base", "below-base", "row-decreases", "column-decreases"],
    )
    def test_bad_mapping_rejected(self, ids, base, message):
        with pytest.raises(ValueError, match=message):
            GridMapping(shape=GridShape(2, 2), ids=np.array(ids), base=base)

    @pytest.mark.parametrize(
        "ids", [[[0, 1]], ((0, 1),), np.array([[0, 1]], dtype=np.uint8)], ids=["list", "tuple", "uint8"]
    )
    def test_ids_read_as_int64(self, ids):
        """A nested sequence of ints or an integer array of any dtype is
        stored as int64."""
        ids = GridMapping(shape=GridShape(1, 2), ids=ids, base=0).ids
        assert ids.dtype == np.int64 and ids.tolist() == [[0, 1]]


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

    def test_axis_partners_are_the_interval_test(self):
        """The per-axis (fine, coarse) arrays list, fine-major, exactly the
        pairs the integer interval test admits."""
        for n0 in range(1, 25):
            for n1 in range(1, 25):
                want = [
                    (j, t) for j in range(n1) for t in range(n0)
                    if j * n0 < (t + 1) * n1 and t * n1 < (j + 1) * n0
                ]  # fmt: skip
                fine, coarse = _axis_partners(n0, n1)
                assert list(zip(fine.tolist(), coarse.tolist())) == want


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
        assert_id_array(a.ids, b.ids)
        assert_id_array(b.ids, np.arange(14))
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

    @pytest.mark.parametrize("mode", ["baseline", "id_align"])
    @pytest.mark.parametrize("n", [10**15, 2**63 - 1, 10**30])
    def test_unallocatable_plan_named(self, mode, n):
        """10**15 slots fail to allocate; at 2**63 - 1 numpy's arange
        returns an empty array instead of failing, and 10**30 is past its
        index range.  Each is one ValueError naming the count."""
        plan = LayoutPlan(segments=(TextSegment(n),), patch_size=14)
        with pytest.raises(ValueError, match=f"^a plan of {n} slots cannot be allocated$"):
            assign_position_ids(plan, mode)
        with pytest.raises(ValueError, match=f"^a plan of {n} slots cannot be allocated$"):
            plan.slot_roles()

    def test_memory_per_slot(self, tmp_path):
        """Both maps of a 126k-slot plan and their ids.json hold about four
        int64 entries a slot at the peak (33.0 bytes measured with
        tracemalloc, set by ``map_highres_ids``' grid and ``GridMapping``'s
        checks of it while the aligned map is written; 32.05 when that map
        was joined from per-segment pieces); a Python list of the IDs and
        its JSON text took 119."""
        plan = LayoutPlan(
            segments=(
                TextSegment(10),
                ThumbnailGrid(GridShape(24, 24)),
                HighResGrid(GridShape(250, 500)),
                TextSegment(5),
            ),
            patch_size=14,
        )
        tracemalloc.start()
        try:
            doc = {mode: assign_position_ids(plan, mode).to_doc() for mode in ("baseline", "id_align")}
            with open(tmp_path / "ids.json", "w") as f:
                f.writelines(json_chunks(doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / plan.total_tokens < 40

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            assign_position_ids(trace_plan(), "id_align", "drop")


class TestPositionIdMap:
    """Container validation and wire format."""

    def test_json_format(self):
        idmap = PositionIdMap(ids=(0, 1, 2), mode="baseline")
        assert "".join(json_chunks(idmap.to_doc())) == '{"ids":[0,1,2],"max_pid":3,"mode":"baseline"}'

    def test_json_of_a_long_map_equals_json_dumps(self):
        ids = np.random.Generator(np.random.Philox(5)).integers(0, 2**40, 20_000)
        idmap = PositionIdMap(ids=ids, mode="id_align")
        want = {"ids": ids.tolist(), "max_pid": idmap.max_pid, "mode": "id_align"}
        assert "".join(json_chunks(idmap.to_doc())) == json.dumps(want, separators=(",", ":"))

    @pytest.mark.parametrize(
        "ids",
        [(0, 2, 1), [0, 2, 1], np.array([0, 2, 1], dtype=np.int32), np.array([0, 2, 1], dtype=np.uint8)],
        ids=["tuple", "list", "int32", "uint8"],
    )
    def test_ids_stored_as_read_only_int64(self, ids):
        idmap = PositionIdMap(ids=ids, mode="baseline")
        assert_id_array(idmap.ids, [0, 2, 1])
        assert type(idmap.max_pid) is int and idmap.max_pid == 3
        with pytest.raises(ValueError):
            idmap.ids[0] = 5

    def test_empty_map(self):
        idmap = PositionIdMap(ids=(), mode="baseline")
        assert_id_array(idmap.ids, [])
        assert "".join(json_chunks(idmap.to_doc())) == '{"ids":[],"max_pid":0,"mode":"baseline"}'

    @pytest.mark.parametrize(
        "ids, shown",
        [
            (np.array([0.0, 1.0]), r"0\.0"),
            ((0, 1.5), r"1\.5"),
            (np.array([True, False]), "True"),
            ((0, 2**64), str(2**64)),
            (np.array([0, 2**63], dtype=np.uint64), str(2**63)),
        ],
        ids=["float-array", "float-in-tuple", "bool-array", "past-int64", "uint64-past-int64"],
    )
    def test_non_integer_ids_rejected(self, ids, shown):
        with pytest.raises(ValueError, match=f"^ids must be an integer from 0 to {2**63 - 1}, got {shown}$"):
            PositionIdMap(ids=ids, mode="baseline")

    def test_two_dimensional_ids_rejected(self):
        with pytest.raises(ValueError, match=r"^ids must have shape \(any,\), got \(2, 2\)$"):
            PositionIdMap(ids=np.zeros((2, 2), dtype=np.int64), mode="baseline")

    def test_max_pid_is_derived_not_passed(self):
        """``max_pid`` is one past the largest ID, wherever it sits, and
        no constructor argument."""
        assert PositionIdMap(ids=(4, 0, 2), mode="id_align").max_pid == 5
        with pytest.raises(TypeError):
            PositionIdMap(ids=(0, 1), max_pid=2, mode="baseline")

    def test_compared_by_identity(self):
        """Like ``GridMapping``, a map holding an array is not compared by value."""
        a = PositionIdMap(ids=(0, 1), mode="baseline")
        b = PositionIdMap(ids=(0, 1), mode="baseline")
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("mode", ["both", "aligned", ""])
    def test_bad_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            PositionIdMap(ids=[0, 1], mode=mode)

    @pytest.mark.parametrize(
        "ids, shown",
        [
            ([1, True], "True"),
            ([1, 2.5, True], r"2\.5"),
            ([-1, 2.5], "-1"),
            ([np.array(1), np.array(2.5)], r"array\(2\.5\)"),
            ([-1, -5], "-1"),
            ([3, np.int8(-2), -1], "-2"),
            ([1, np.array(True)], r"array\(True\)"),
            ([1, np.array("7")], r"array\('7', dtype='<U1'\)"),
        ],
        ids=["bool-after-int", "float-before-bool", "range-before-float", "0-d-float-array", "list-extreme",
             "mixed-types-extreme", "0-d-bool-array", "0-d-string-array"],
    )
    def test_list_refused_at_its_first_refused_entry_or_extreme(self, ids, shown):
        """A list is named at its first refused entry, each read in turn by
        ``read_value``, whether it is refused for its type (a 0-d array's
        dtype is not in its type) or for its range; only an integer array
        is named by an extreme."""
        with pytest.raises(ValueError, match=f"^ids must be an integer from 0 to {2**63 - 1}, got {shown}$"):
            PositionIdMap(ids=ids, mode="baseline")

    def test_list_of_integers_reads_each_entry(self, monkeypatch):
        """``read_value`` is the one check of an entry: a long list costs
        one call per entry, an integer array two, its extremes."""
        read, names = codec.read_value, []
        monkeypatch.setattr(codec, "read_value", lambda field, *args: names.append(field.name) or read(field, *args))
        ids = [*range(10_000), np.int64(7), np.uint8(3), np.array(4), *range(5)]
        assert PositionIdMap(ids=ids, mode="baseline").ids.tolist() == [int(i) for i in ids]
        assert names.count("ids") == len(ids)
        names.clear()
        assert PositionIdMap(ids=np.array(ids, np.int64), mode="baseline").ids.tolist() == [int(i) for i in ids]
        assert names.count("ids") == 2

    def test_negative_ids_rejected(self):
        for ids in ((0, -1), np.array([0, -1])):
            with pytest.raises(ValueError, match=f"^ids must be an integer from 0 to {2**63 - 1}, got -1$"):
                PositionIdMap(ids=ids, mode="baseline")


# Each array a library value holds: a caller's writable array for it, and
# the array a value built from a given array holds.
_HELD_ARRAYS = {
    "PositionIdMap.ids": (np.arange(4), lambda a: PositionIdMap(ids=a, mode="baseline").ids),
    "GridMapping.ids": (np.arange(4).reshape(2, 2), lambda a: GridMapping(GridShape(2, 2), a, 0).ids),
    "TokenPopulation.vectors": (
        np.arange(4.0).reshape(2, 2),
        lambda a: TokenPopulation(vectors=a, roles=("text",) * len(a)).vectors,
    ),
}


@pytest.mark.parametrize("held", _HELD_ARRAYS)
def test_callers_array_is_copied(held):
    """``codec.read_array``'s one rule of ownership, for every array a
    value holds: it is read-only, a writable array or any view is copied,
    and a read-only array that owns its memory is shared."""
    given, read = _HELD_ARRAYS[held]
    callers = given.copy()
    got = read(callers)
    assert not got.flags.writeable and not np.shares_memory(got, callers)
    callers[0, ...] = 9
    assert callers.flags.writeable
    assert got.tolist() == given.tolist()

    memory = given.copy()
    view = memory[:]
    view.flags.writeable = False
    got = read(view)
    memory[0, ...] = 9
    assert not np.shares_memory(got, memory) and got.tolist() == given.tolist()

    owned = given.copy()
    owned.flags.writeable = False
    assert read(owned) is owned
    held_once = read(given.copy())  # so a held array is read again with no copy
    assert read(held_once) is held_once


def test_held_arrays_are_every_array_field():
    """The ownership test covers exactly the ``np.ndarray`` fields of the
    public dataclasses, so a new one cannot skip it."""
    fields = set()
    for name in ropealign.__all__:
        cls = getattr(ropealign, name)
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            fields |= {f"{name}.{f.name}" for f in dataclasses.fields(cls) if hints[f.name] is np.ndarray}
    assert fields == set(_HELD_ARRAYS)


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
