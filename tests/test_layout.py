"""Tests for resolution selection, padding, unpadding and plan building."""

import json
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ropealign import (
    GridShape,
    HighResGrid,
    LayoutPlan,
    PaddedPlacement,
    Resolution,
    Separator,
    TextSegment,
    ThumbnailGrid,
    TokenCounts,
    build_layout,
    fit_with_padding,
    select_resolution,
    token_counts,
    unpad_grid,
)
from ropealign.layout import SEGMENT_KINDS, Segment, segment_ranges

FIVE_CANDIDATES = [
    Resolution(672, 672),
    Resolution(336, 672),
    Resolution(672, 336),
    Resolution(1008, 336),
    Resolution(336, 1008),
]


def selection_oracle(input, candidates, cap):
    """Independent brute-force scoring: scale to fit, truncate, compare."""
    best, best_eff, best_waste = None, -1, None
    for cand in candidates:
        scale = min(cand.height / input.height, cand.width / input.width)
        eff = int(input.height * scale) * int(input.width * scale)
        if cap:
            eff = min(eff, input.height * input.width)
        waste = cand.height * cand.width - eff
        if eff > best_eff or (eff == best_eff and waste < best_waste):
            best, best_eff, best_waste = cand, eff, waste
    return best


class TestValidation:
    """Constructor guards."""

    def test_resolution_positive(self):
        with pytest.raises(ValueError):
            Resolution(0, 10)

    def test_grid_shape_positive(self):
        with pytest.raises(ValueError):
            GridShape(3, 0)

    def test_text_segment_positive(self):
        with pytest.raises(ValueError):
            TextSegment(0)

    def test_placement_must_fit(self):
        with pytest.raises(ValueError):
            PaddedPlacement(Resolution(10, 10), Resolution(8, 8), offset_top=5, offset_left=0)

    @pytest.mark.parametrize(
        "top, left, message",
        [
            (-1, 0, "^offset_top must be an integer of at least 0, got -1$"),
            (0, -1, "^offset_left must be an integer of at least 0, got -1$"),
            (0, 3, "fit inside"),
            (3, 0, "fit inside"),
        ],
    )
    def test_placement_offsets_checked(self, top, left, message):
        with pytest.raises(ValueError, match=message):
            PaddedPlacement(Resolution(10, 10), Resolution(8, 8), offset_top=top, offset_left=left)

    def test_at_most_one_thumbnail(self):
        thumb = ThumbnailGrid(GridShape(2, 2))
        with pytest.raises(ValueError):
            LayoutPlan(segments=(thumb, thumb), patch_size=14)

    @pytest.mark.parametrize(
        "build, field",
        [
            pytest.param(lambda: Resolution(2.5, 3), "height", id="Resolution-2.5"),
            pytest.param(lambda: Resolution(336, "336"), "width", id="Resolution-str"),
            pytest.param(lambda: GridShape(2.5, 3), "rows", id="GridShape-2.5"),
            pytest.param(lambda: GridShape(2, np.float64(3)), "cols", id="GridShape-float64"),
            pytest.param(lambda: TextSegment(True), "length", id="TextSegment-True"),
            pytest.param(lambda: TextSegment(2.5), "length", id="TextSegment-2.5"),
            pytest.param(lambda: Separator(False), "count", id="Separator-False"),
            pytest.param(lambda: HighResGrid(GridShape(2, 2), 1), "row_separator", id="HighResGrid-1"),
            pytest.param(lambda: LayoutPlan((TextSegment(2),), 14.0), "patch_size", id="LayoutPlan-14.0"),
            pytest.param(lambda: LayoutPlan((TextSegment(2),), True), "patch_size", id="LayoutPlan-True"),
        ],
    )  # fmt: skip
    def test_non_integer_field_named(self, build, field):
        """A count is an integer, never a bool or a float (2.5 used to
        give a plan of 16.5 tokens, True one whose JSON holds true)."""
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build()

    @pytest.mark.parametrize("junk", ["x", GridShape(2, 2), None])
    def test_plan_refuses_non_segments(self, junk):
        with pytest.raises(ValueError, match="^segments must be layout segments"):
            LayoutPlan(segments=(TextSegment(2), junk), patch_size=14)

    def test_numpy_integers_stored_as_python_ints(self):
        plan = LayoutPlan(
            segments=[TextSegment(np.int64(3)), ThumbnailGrid(GridShape(np.int32(2), np.uint8(3)))],
            patch_size=np.int16(14),
        )
        assert plan == LayoutPlan(
            segments=(TextSegment(3), ThumbnailGrid(GridShape(2, 3))), patch_size=14
        )
        assert type(plan.segments) is tuple
        assert plan.to_json() == (
            '{"segments":[{"kind":"text","len":3},{"kind":"thumb","rows":2,"cols":3}],"patch_size":14}'
        )
        assert type(Resolution(np.int64(336), 672).height) is int


# Python and numpy integers alike, as a caller might pass them.
_counts = st.integers(1, 40).flatmap(
    lambda n: st.sampled_from([n, np.int64(n), np.int32(n), np.uint16(n)])
)
_segments = st.one_of(
    st.builds(TextSegment, _counts),
    st.builds(Separator, _counts),
    st.builds(lambda r, c: ThumbnailGrid(GridShape(r, c)), _counts, _counts),
    st.builds(lambda r, c, sep: HighResGrid(GridShape(r, c), sep), _counts, _counts, st.booleans()),
)


@st.composite
def _plans(draw):
    segments, seen = [], set()
    for seg in draw(st.lists(_segments, max_size=6)):
        if not (seg.ONE_PER_PLAN and seg.KIND in seen):  # at most one grid of each kind
            segments.append(seg)
            seen.add(seg.KIND)
    return LayoutPlan(segments=tuple(segments), patch_size=draw(_counts))


@given(_plans())
@settings(max_examples=200, deadline=None)
def test_plans_of_any_integers_round_trip(plan):
    """A plan built from Python or numpy integers writes JSON that reads
    back as an equal plan, and its token counts are Python ints."""
    assert LayoutPlan.from_json(plan.to_json()) == plan
    counts = token_counts(plan)
    for name in TokenCounts.__dataclass_fields__:
        assert type(getattr(counts, name)) is int
    assert type(plan.total_tokens) is int
    assert plan.total_tokens == sum(stop - start for _seg, start, stop in segment_ranges(plan))


class TestSelectResolution:
    """Candidate scoring."""

    def test_square_input_prefers_double_square(self):
        got = select_resolution(Resolution(336, 336), FIVE_CANDIDATES)
        assert got == Resolution(672, 672)
        assert got == selection_oracle(Resolution(336, 336), FIVE_CANDIDATES, cap=False)

    def test_wide_input_matches_aspect(self):
        """A 1:3 input fits the 336x1008 candidate without any padding."""
        got = select_resolution(Resolution(100, 300), FIVE_CANDIDATES)
        assert got == Resolution(336, 1008)
        assert got == selection_oracle(Resolution(100, 300), FIVE_CANDIDATES, cap=False)

    def test_single_candidate(self):
        only = Resolution(448, 448)
        assert select_resolution(Resolution(99, 55), [only]) == only

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            select_resolution(Resolution(10, 10), [])

    def test_oracle_agreement_random(self):
        rng = np.random.Generator(np.random.Philox(61))
        for _ in range(200):
            input = Resolution(int(rng.integers(1, 2000)), int(rng.integers(1, 2000)))
            for cap in (False, True):
                got = select_resolution(input, FIVE_CANDIDATES, cap_effective_at_input=cap)
                assert got == selection_oracle(input, FIVE_CANDIDATES, cap)

    def test_permutation_stable_without_ties(self):
        input = Resolution(336, 336)
        reordered = list(reversed(FIVE_CANDIDATES))
        assert select_resolution(input, reordered) == Resolution(672, 672)

    @pytest.mark.parametrize("order", [1, -1])
    def test_exact_tie_keeps_list_order(self, order):
        """Both fit a 100x100 input at 100x100 and waste the same area:
        the first listed wins."""
        cands = [Resolution(200, 100), Resolution(100, 200)][::order]
        assert select_resolution(Resolution(100, 100), cands) == cands[0]
        assert selection_oracle(Resolution(100, 100), cands, cap=False) == cands[0]

    def test_capped_scoring_changes_choice(self):
        """Capping at native pixels makes upscaling worthless, so the
        snuggest same-aspect candidate wins for a square input."""
        got = select_resolution(Resolution(336, 336), FIVE_CANDIDATES, cap_effective_at_input=True)
        assert got == selection_oracle(Resolution(336, 336), FIVE_CANDIDATES, cap=True)
        assert got == Resolution(336, 672)


class TestFitWithPadding:
    """Aspect-preserving centered placement."""

    def test_exact_fit(self):
        p = fit_with_padding(Resolution(336, 336), Resolution(672, 672))
        assert p.scaled == Resolution(672, 672)
        assert (p.offset_top, p.offset_left) == (0, 0)

    def test_two_to_one_centered_vertically(self):
        p = fit_with_padding(Resolution(336, 672), Resolution(672, 672))
        assert p.scaled == Resolution(336, 672)
        assert p.offset_top == 168
        assert p.offset_left == 0

    def test_500x300_arithmetic(self):
        """scale = 672/500 = 1.344; 300*1.344 rounds to 403; slack 269
        floors to 134 on the left."""
        p = fit_with_padding(Resolution(500, 300), Resolution(672, 672))
        assert p.scaled == Resolution(672, 403)
        assert p.offset_left == 134
        assert p.offset_top == 0

    def test_never_exceeds_target_and_keeps_aspect(self):
        rng = np.random.Generator(np.random.Philox(67))
        for _ in range(300):
            inp = Resolution(int(rng.integers(1, 3000)), int(rng.integers(1, 3000)))
            tgt = Resolution(int(rng.integers(1, 1500)), int(rng.integers(1, 1500)))
            p = fit_with_padding(inp, tgt)
            assert p.offset_top + p.scaled.height <= tgt.height
            assert p.offset_left + p.scaled.width <= tgt.width
            scale = min(tgt.height / inp.height, tgt.width / inp.width)
            assert abs(p.scaled.height - inp.height * scale) <= 1.0
            assert abs(p.scaled.width - inp.width * scale) <= 1.0


class TestUnpadGrid:
    """Surviving feature rows/columns."""

    def test_exact_fit_keeps_full_grid(self):
        p = fit_with_padding(Resolution(672, 672), Resolution(672, 672))
        assert unpad_grid(p, 14) == GridShape(48, 48)

    def test_pad_rows_dropped(self):
        """168 blank pixels top and bottom are exactly 12 patch rows each."""
        p = fit_with_padding(Resolution(336, 672), Resolution(672, 672))
        assert unpad_grid(p, 14) == GridShape(24, 48)

    def test_one_pixel_overlap_survives(self):
        p = PaddedPlacement(Resolution(28, 28), Resolution(1, 28), offset_top=13, offset_left=0)
        assert unpad_grid(p, 14) == GridShape(1, 2)
        p2 = PaddedPlacement(Resolution(28, 28), Resolution(2, 28), offset_top=13, offset_left=0)
        assert unpad_grid(p2, 14) == GridShape(2, 2)

    def test_overlap_count_oracle(self):
        """Count surviving rows by checking every patch interval."""
        rng = np.random.Generator(np.random.Philox(71))
        patch = 14
        for _ in range(200):
            tgt = Resolution(patch * int(rng.integers(1, 60)), patch * int(rng.integers(1, 60)))
            inp = Resolution(int(rng.integers(1, 2500)), int(rng.integers(1, 2500)))
            p = fit_with_padding(inp, tgt)
            grid = unpad_grid(p, patch)
            rows = sum(
                1
                for r in range(tgt.height // patch)
                if r * patch < p.offset_top + p.scaled.height and (r + 1) * patch > p.offset_top
            )
            cols = sum(
                1
                for c in range(tgt.width // patch)
                if c * patch < p.offset_left + p.scaled.width and (c + 1) * patch > p.offset_left
            )
            assert (grid.rows, grid.cols) == (rows, cols)
            assert grid.rows <= tgt.height // patch
            assert grid.cols <= tgt.width // patch

    def test_indivisible_target_rejected(self):
        p = PaddedPlacement(Resolution(30, 28), Resolution(30, 28), 0, 0)
        with pytest.raises(ValueError):
            unpad_grid(p, 14)


class TestBuildLayout:
    """Full plan composition."""

    def test_672_square_plan(self):
        plan = build_layout(
            pre_text=10,
            input=Resolution(672, 672),
            candidates=FIVE_CANDIDATES,
            vit_resolution=Resolution(336, 336),
            patch_size=14,
            post_text=5,
            row_separators=True,
        )
        assert plan.segments == (
            TextSegment(10),
            ThumbnailGrid(GridShape(24, 24)),
            HighResGrid(GridShape(48, 48), row_separator=True),
            TextSegment(5),
        )

    def test_no_post_text_omits_trailing_segment(self):
        plan = build_layout(
            pre_text=3,
            input=Resolution(336, 336),
            candidates=FIVE_CANDIDATES,
            vit_resolution=Resolution(336, 336),
            patch_size=14,
            post_text=0,
        )
        assert not isinstance(plan.segments[-1], TextSegment)

    def test_wide_input_grid(self):
        plan = build_layout(
            pre_text=1,
            input=Resolution(336, 1008),
            candidates=FIVE_CANDIDATES,
            vit_resolution=Resolution(336, 336),
            patch_size=14,
            post_text=1,
        )
        assert plan.highres().shape == GridShape(24, 72)

    def test_high_first_order(self):
        plan = build_layout(
            pre_text=1,
            input=Resolution(336, 336),
            candidates=FIVE_CANDIDATES,
            vit_resolution=Resolution(336, 336),
            patch_size=14,
            post_text=0,
            thumbnail_first=False,
        )
        kinds = [type(s).__name__ for s in plan.segments]
        assert kinds.index("HighResGrid") < kinds.index("ThumbnailGrid")

    def test_vit_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            build_layout(0, Resolution(10, 10), FIVE_CANDIDATES, Resolution(100, 100), 14, 0)


class TestTokenCounts:
    """Slot accounting."""

    def test_fivefold_inflation(self):
        """672x672 over a 336/14 tower: 576 + 2304 = 5 * 576 image tokens."""
        plan = build_layout(10, Resolution(672, 672), FIVE_CANDIDATES, Resolution(336, 336), 14, 5)
        counts = token_counts(plan)
        assert counts.image_tokens == 5 * 576 == 2880
        assert counts.separator_tokens == 48
        assert counts.text_tokens == 15
        assert counts.total == 2880 + 48 + 15
        assert counts.id_span_baseline == counts.total

    def test_text_only_plan(self):
        plan = LayoutPlan(segments=(TextSegment(7),), patch_size=14)
        counts = token_counts(plan)
        assert counts.image_tokens == 0
        assert counts.total == 7

    def test_wide_plan_arithmetic(self):
        """336x1008 grid is 24x72 = 1728 cells plus one separator per row."""
        plan = build_layout(0, Resolution(336, 1008), FIVE_CANDIDATES, Resolution(336, 336), 14, 0)
        counts = token_counts(plan)
        assert counts.image_tokens == 576 + 1728
        assert counts.separator_tokens == 24

    def test_ranges_computed_once(self):
        """A plan's segment ranges are one tuple, computed on first read;
        the total is its last stop, and 0 for a plan with no segments."""
        plan = build_layout(10, Resolution(672, 672), FIVE_CANDIDATES, Resolution(336, 336), 14, 5)
        ranges = segment_ranges(plan)
        assert segment_ranges(plan) is ranges
        assert plan.total_tokens == ranges[-1][2] == 2943
        empty = LayoutPlan(segments=(), patch_size=14)
        assert segment_ranges(empty) == () and empty.total_tokens == 0
        assert token_counts(empty) == TokenCounts(0, 0, 0, 0, 0)

    def test_standalone_separator_counted(self):
        plan = LayoutPlan(
            segments=(ThumbnailGrid(GridShape(2, 2)), Separator(3)), patch_size=14
        )
        assert token_counts(plan).separator_tokens == 3


class TestLayoutPlanJson:
    """Serialization round trip and wire format."""

    def test_wire_format(self):
        plan = build_layout(10, Resolution(672, 672), FIVE_CANDIDATES, Resolution(336, 336), 14, 5)
        text = plan.to_json()
        assert text.startswith(
            '{"segments":[{"kind":"text","len":10},{"kind":"thumb","rows":24,"cols":24}'
        )
        assert '"patch_size":14' in text
        assert " " not in text

    def test_round_trip(self):
        plan = LayoutPlan(
            segments=(
                TextSegment(4),
                ThumbnailGrid(GridShape(3, 5)),
                HighResGrid(GridShape(6, 10), row_separator=False),
                Separator(2),
                TextSegment(1),
            ),
            patch_size=16,
        )
        assert LayoutPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LayoutPlan.from_json('{"segments":[{"kind":"audio","len":2}],"patch_size":14}')

    @pytest.mark.parametrize(
        "segment, patch, field",
        [
            ('{"kind":"text","len":2.7}', "14", "len"),
            ('{"kind":"text","len":"2"}', "14", "len"),
            ('{"kind":"thumb","rows":2.0,"cols":2}', "14", "rows"),
            ('{"kind":"thumb","rows":2,"cols":true}', "14", "cols"),
            ('{"kind":"highres","rows":2,"cols":null}', "14", "cols"),
            ('{"kind":"separator","count":1.5}', "14", "count"),
            ('{"kind":"text","len":2}', "14.5", "patch_size"),
            ('{"kind":"highres","rows":2,"cols":2,"row_separator":"false"}', "14", "row_separator"),
        ],
    )
    def test_non_integer_field_rejected(self, segment, patch, field):
        """Plan fields are never truncated or coerced."""
        with pytest.raises(ValueError, match=field):
            LayoutPlan.from_json(f'{{"segments":[{segment}],"patch_size":{patch}}}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"patch_size":14}',
            '{"segments":[{"kind":"text"}],"patch_size":14}',
            '{"segments":[{"kind":"thumb","rows":2}],"patch_size":14}',
            '{"segments":[{"kind":"text","len":2}]}',
        ],
    )
    def test_missing_field_is_key_error(self, text):
        field = {
            '{"patch_size":14}': "segments",
            '{"segments":[{"kind":"text"}],"patch_size":14}': "len",
            '{"segments":[{"kind":"thumb","rows":2}],"patch_size":14}': "cols",
            '{"segments":[{"kind":"text","len":2}]}': "patch_size",
        }[text]
        with pytest.raises(ValueError, match=f"{field} is missing"):
            LayoutPlan.from_json(text)

    def test_optional_fields_default(self):
        plan = LayoutPlan.from_json(
            '{"segments":[{"kind":"thumb","rows":1,"cols":1},{"kind":"highres","rows":2,"cols":2},'
            '{"kind":"separator"}],"patch_size":14}'
        )
        assert plan.highres().row_separator is True
        assert plan.segments[2] == Separator(1)

    def test_slot_roles_order(self):
        plan = LayoutPlan(
            segments=(
                TextSegment(1),
                ThumbnailGrid(GridShape(1, 2)),
                HighResGrid(GridShape(1, 2), row_separator=True),
            ),
            patch_size=14,
        )
        assert plan.slot_roles() == ("text", "thumb", "thumb", "highres", "highres", "separator")

    @pytest.mark.parametrize(
        "text, where, field",
        [
            ('{"segments":[{"kind":"text","len":2,"size":2}],"patch_size":14}', "segment 0", "size"),
            ('{"segments":[{"kind":"separator","cnt":1}],"patch_size":14}', "segment 0", "cnt"),
            ('{"segments":[],"patch_size":14,"version":2}', "plan", "version"),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, text, where, field):
        with pytest.raises(ValueError, match=f"{where}: unknown keys: {field}"):
            LayoutPlan.from_json(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "plan must be a JSON object, got list"),
            ('{"segments":"x","patch_size":14}', "plan: segments must be a list, got 'x'"),
            ('{"segments":[1],"patch_size":14}', "plan segment 0 must be a JSON object, got int"),
            ('{"segments":[{"len":2}],"patch_size":14}', "plan segment 0: kind is missing"),
            ('{"segments":[{"kind":"text","len":1},{"kind":"text","len":0}],"patch_size":14}',
             "plan segment 1: len must be an integer of at least 1, got 0"),
        ],
    )
    def test_errors_name_segment_and_field(self, text, message):
        with pytest.raises(ValueError) as exc:
            LayoutPlan.from_json(text)
        assert str(exc.value) == message

    def test_too_deeply_nested_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="^plan: maximum recursion depth exceeded"):
            LayoutPlan.from_json("[" * 100_000)


class TestSegmentTable:
    """Each segment kind is declared once, and everything derives from it."""

    EXAMPLES = (
        TextSegment(3),
        ThumbnailGrid(GridShape(2, 3)),
        HighResGrid(GridShape(3, 4), row_separator=False),
        Separator(2),
    )

    def test_every_kind_has_exactly_one_entry(self):
        # Two classes sharing a KIND would leave one of them out of the table.
        kinds = get_args(Segment)
        assert list(SEGMENT_KINDS.values()) == list(kinds)
        assert {type(seg) for seg in self.EXAMPLES} == set(kinds)

    @pytest.mark.parametrize("seg", EXAMPLES, ids=lambda seg: type(seg).__name__)
    def test_kind_name_round_trips(self, seg):
        plan = LayoutPlan(segments=(seg,), patch_size=14)
        doc = json.loads(plan.to_json())
        assert doc["segments"][0]["kind"] == seg.KIND
        assert SEGMENT_KINDS[seg.KIND] is type(seg)
        assert list(doc["segments"][0])[1:] == [f.name for f in seg.FIELDS]
        assert LayoutPlan.from_json(plan.to_json()).segments == (seg,)
