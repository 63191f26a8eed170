"""Property-based checks across modules.

Hypothesis drives the invariants that must hold for every input, not
just the worked examples: rotation isometry and shift invariance, the
summation-by-parts inequality, correspondence soundness of the ID
mapping, the counter bookkeeping of the assignment walk, and the
grouping of the score summary.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays, integer_dtypes, unsigned_integer_dtypes

from ropealign import (
    DecayProfile,
    GridMapping,
    GridShape,
    HighResGrid,
    LayoutPlan,
    PositionIdMap,
    RopeConfig,
    Separator,
    TextSegment,
    ThumbnailGrid,
    abel_bound_check,
    apply_rope,
    apply_rope_many,
    assign_position_ids,
    attention_summary,
    decay_profile,
    expected_dot_closed_form,
    id_span_report,
    map_highres_ids,
    population_gaussian,
    rope_dot,
    rope_frequencies,
    segment_ranges,
    token_counts,
)
from ropealign import cli, codec, harness, layout
from ropealign.codec import REQUIRED, IntRange, csv_lines, csv_text, int_chunks, int_lines, json_chunks
from ropealign.layout import SEGMENT_KINDS

from oracles import (
    CorrespondencePair, attention_scores, correspondence_oracle, histogram_summary, two_table_summary,
)  # fmt: skip

dims = st.sampled_from([2, 4, 8, 64, 128])
thetas = st.sampled_from([1e4, 1e7])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
positions = st.integers(min_value=0, max_value=100_000)
grid_sides = st.integers(min_value=1, max_value=16)


def _vec(dim, seed):
    return np.random.Generator(np.random.Philox(seed)).standard_normal(dim)


@given(dims, thetas, seeds, st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_rotation_preserves_norm(dim, theta, seed, m):
    config = RopeConfig(dim=dim, theta_base=theta)
    v = _vec(dim, seed)
    assert abs(np.linalg.norm(apply_rope(v, m, config)) - np.linalg.norm(v)) < 1e-9


@given(dims, thetas, seeds, positions, positions, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_shift_invariance(dim, theta, seed, m, n, s):
    config = RopeConfig(dim=dim, theta_base=theta)
    q = _vec(dim, seed)
    k = _vec(dim, seed + 1)
    assert abs(rope_dot(q, m, k, n, config) - rope_dot(q, m + s, k, n + s, config)) < 1e-9


@given(dims, thetas, seeds, positions, positions)
@settings(max_examples=60, deadline=None)
def test_composition_additivity(dim, theta, seed, a, b):
    config = RopeConfig(dim=dim, theta_base=theta)
    v = _vec(dim, seed)
    got = apply_rope(apply_rope(v, a, config), b, config)
    assert np.allclose(got, apply_rope(v, a + b, config), rtol=0, atol=1e-9)


@given(dims, thetas, seeds, st.integers(min_value=0, max_value=8192))
@settings(max_examples=80, deadline=None)
def test_abel_inequality_always_holds(dim, theta, seed, delta):
    config = RopeConfig(dim=dim, theta_base=theta)
    q = _vec(dim, seed)
    k = _vec(dim, seed + 7)
    report = abel_bound_check(q, k, delta, config)
    assert report.lhs_magnitude <= report.bound_value + 1e-9
    assert abs(rope_dot(q, 0, k, delta, config)) <= report.lhs_magnitude + 1e-9


@given(dims, thetas, seeds, positions)
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_rotation(dim, theta, seed, m):
    config = RopeConfig(dim=dim, theta_base=theta)
    mq = _vec(dim, seed)
    mk = _vec(dim, seed + 3)
    want = float(mq @ apply_rope(mk, m, config))
    assert abs(expected_dot_closed_form(mq, mk, m, config) - want) < 1e-9


@given(grid_sides, grid_sides, grid_sides, grid_sides)
@settings(max_examples=150, deadline=None)
def test_mapping_soundness(h0, w0, h1, w1):
    """Every inherited ID names an overlapping thumbnail cell."""
    thumb = GridShape(h0, w0)
    high = GridShape(h1, w1)
    mapping = map_highres_ids(thumb, high)
    oracle = correspondence_oracle(thumb, high)
    for r in range(h1):
        for c in range(w1):
            tr, tc = divmod(int(mapping.ids[r, c]), w0)
            assert CorrespondencePair((r, c), (tr, tc)) in oracle


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["inherit-row-end", "sequential-after-image"]),
)
@settings(max_examples=120, deadline=None)
def test_assignment_counter_invariants(pre, h0, w0, h1, w1, row_sep, post, policy):
    """max_pid is one past the largest ID; text IDs step by exactly 1;
    high-res IDs stay inside the thumbnail range."""
    segments = []
    if pre:
        segments.append(TextSegment(pre))
    segments.append(ThumbnailGrid(GridShape(h0, w0)))
    segments.append(HighResGrid(GridShape(h1, w1), row_separator=row_sep))
    if post:
        segments.append(TextSegment(post))
    plan = LayoutPlan(segments=tuple(segments), patch_size=14)
    for mode in ("baseline", "id_align"):
        idmap = assign_position_ids(plan, mode, policy)
        assert idmap.max_pid == max(idmap.ids) + 1
        roles = plan.slot_roles()
        for seg, start, stop in segment_ranges(plan):
            if isinstance(seg, TextSegment):
                block = idmap.ids[start:stop]
                assert all(b - a == 1 for a, b in zip(block, block[1:]))
        if mode == "id_align":
            for i, r in zip(idmap.ids, roles):
                if r == "highres":
                    assert pre <= i < pre + h0 * w0


def reference_aligned_ids(plan, separator_policy):
    """Slot-by-slot aligned assignment: one cell, one separator at a time.

    Returns (ids, max_pid); raises ValueError when a high-resolution grid
    comes before its thumbnail.
    """
    ids = []
    counter = 0
    thumb_shape = None
    thumb_base = 0

    def emit_separator():
        nonlocal counter
        if separator_policy == "sequential-after-image" or not ids:
            ids.append(counter)
            counter += 1
        else:
            ids.append(ids[-1])

    for seg in plan.segments:
        if isinstance(seg, TextSegment):
            for _ in range(seg.length):
                ids.append(counter)
                counter += 1
        elif isinstance(seg, ThumbnailGrid):
            thumb_base = counter
            thumb_shape = seg.shape
            for _ in range(seg.shape.cells):
                ids.append(counter)
                counter += 1
        elif isinstance(seg, HighResGrid):
            if thumb_shape is None:
                raise ValueError("high-resolution grid before its thumbnail")
            mapping = map_highres_ids(thumb_shape, seg.shape, thumb_base)
            for r in range(seg.shape.rows):
                for c in range(seg.shape.cols):
                    pid = int(mapping.ids[r, c])
                    ids.append(pid)
                    counter = max(counter, pid + 1)
                if seg.row_separator:
                    emit_separator()
        else:
            for _ in range(seg.count):
                emit_separator()
    return ids, counter


def reference_image_span(plan, ids):
    image = [ids[i] for i, r in enumerate(plan.slot_roles()) if r in ("thumb", "highres")]
    return max(image) - min(image) if image else 0


_fillers = st.lists(
    st.one_of(
        st.builds(TextSegment, st.integers(min_value=1, max_value=6)),
        st.builds(Separator, st.integers(min_value=1, max_value=3)),
    ),
    max_size=3,
)


@st.composite
def layout_plans(draw):
    """One image in any order (or only part of it) among text and separators."""
    thumb = ThumbnailGrid(GridShape(draw(st.integers(1, 6)), draw(st.integers(1, 6))))
    high = HighResGrid(
        GridShape(draw(st.integers(1, 12)), draw(st.integers(1, 12))), draw(st.booleans())
    )
    image = draw(st.sampled_from([[thumb, high], [high, thumb], [thumb], [high], []]))
    segments = draw(_fillers) + image + draw(_fillers)
    return LayoutPlan(segments=tuple(segments), patch_size=14)


policies = st.sampled_from(["inherit-row-end", "sequential-after-image"])


@given(layout_plans(), policies)
@settings(max_examples=300, deadline=None)
def test_aligned_assignment_matches_slot_by_slot_reference(plan, policy):
    try:
        want_ids, want_max = reference_aligned_ids(plan, policy)
    except ValueError:
        with pytest.raises(ValueError, match="thumbnail"):
            assign_position_ids(plan, "id_align", policy)
        return
    got = assign_position_ids(plan, "id_align", policy)
    assert isinstance(got.ids, np.ndarray)
    assert got.ids.dtype == np.int64
    assert not got.ids.flags.writeable
    assert got.ids.tolist() == want_ids
    assert got.max_pid == want_max


@given(layout_plans(), policies)
@settings(max_examples=150, deadline=None)
def test_span_report_matches_slot_roles(plan, policy):
    """The span report, computed or handed both maps, equals the span
    over every thumbnail and high-resolution slot."""
    try:
        aligned_ids, _ = reference_aligned_ids(plan, policy)
    except ValueError:
        return
    want_b = reference_image_span(plan, list(range(plan.total_tokens)))
    want_a = reference_image_span(plan, aligned_ids)
    baseline = assign_position_ids(plan, "baseline", policy)
    aligned = assign_position_ids(plan, "id_align", policy)
    for report in (
        id_span_report(plan, policy),
        id_span_report(plan, policy, baseline=baseline, id_align=aligned),
    ):
        assert (report.baseline_span, report.id_align_span) == (want_b, want_a)


@given(layout_plans())
@settings(max_examples=150, deadline=None)
def test_token_counts_match_slot_roles(plan):
    roles = plan.slot_roles()
    counts = token_counts(plan)
    assert counts.total == len(roles) == plan.total_tokens
    assert counts.text_tokens == roles.count("text")
    assert counts.image_tokens == roles.count("thumb") + roles.count("highres")
    assert counts.separator_tokens == roles.count("separator")
    assert counts.id_span_baseline == len(roles)
    assert [stop - start for _seg, start, stop in segment_ranges(plan)] == [
        len(LayoutPlan(segments=(seg,), patch_size=14).slot_roles()) for seg in plan.segments
    ]


# The hand-written serializers and rotation that the codec and the
# batched kernel replaced, kept as references: the new code must give
# the same bytes and the same bits.


def reference_matrix_csv(values, roles):
    lines = [",".join(roles)]
    if np.issubdtype(values.dtype, np.integer):
        for row in values:
            lines.append(",".join(str(int(v)) for v in row))
    else:
        for row in values:
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def reference_decay_csv(profile):
    lines = ["rel_distance,mean_dot,stderr,samples"]
    for d, m, s in zip(profile.distances, profile.mean_dot, profile.stderr):
        lines.append(f"{d},{m!r},{s!r},{profile.sample_count}")
    return "\n".join(lines) + "\n"


def reference_grid_csv(mapping):
    return "".join(",".join(map(str, row)) + "\n" for row in mapping.ids.tolist())


def reference_apply_rope(v, m, config):
    vec = np.asarray(v, dtype=np.float64)
    angles = m * rope_frequencies(config)
    cos = np.cos(angles)
    sin = np.sin(angles)
    x = vec[0::2]
    y = vec[1::2]
    out = np.empty_like(vec)
    out[0::2] = x * cos - y * sin
    out[1::2] = x * sin + y * cos
    return out


def reference_summary(roles, dist, scores) -> dict:
    """Plain-loop grouping of dense distance and score matrices:
    (query role, key role, bucket lower bound) -> [(distance, score)],
    in sorted key order."""
    groups: dict = {}
    for i, q in enumerate(roles):
        for j, k in enumerate(roles):
            d = int(dist[i][j])
            lower = 0 if d == 0 else 2 ** (d.bit_length() - 1)
            groups.setdefault((q, k, lower), []).append((d, float(scores[i][j])))
    return dict(sorted(groups.items()))


def check_summary(plan, mode, policy, seed, normalize, scale):
    """The summary against a plain-loop grouping of the dense matrices:
    counts, maxima and mean distances exactly, mean scores to 1e-12 of
    the group's mean |score| (exact sums, so the bound is the summary's
    rounding alone)."""
    idmap = assign_position_ids(plan, mode, policy)
    config = RopeConfig(dim=8)
    pop = population_gaussian(plan, config, mean=0.5, seed=seed)
    scores = attention_scores(pop, idmap, config, normalize, scale).tolist()
    dist = [[abs(a - b) for b in idmap.ids] for a in idmap.ids]
    want = reference_summary(plan.slot_roles(), dist, scores)
    rows = attention_summary(pop, idmap, config, normalize, scale).rows
    assert [row[:3] for row in rows] == list(want)
    for row, pairs in zip(rows, want.values()):
        ds = [d for d, _ in pairs]
        ss = [s for _, s in pairs]
        count, mean_d, max_d, mean_s, max_s = row[3:]
        assert (count, mean_d, max_d, max_s) == (len(pairs), math.fsum(ds) / len(ds), max(ds), max(ss))
        assert abs(mean_s - math.fsum(ss) / len(ss)) <= 1e-12 * math.fsum(map(abs, ss)) / len(ss)


@given(layout_plans(), st.sampled_from(["baseline", "id_align"]), policies, seeds, st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_summary_matches_plain_loop_grouping(plan, mode, policy, seed, normalize, scale):
    try:
        assign_position_ids(plan, mode, policy)
    except ValueError:
        return  # an aligned map needs a thumbnail before the high-res grid
    check_summary(plan, mode, policy, seed, normalize, scale)


@pytest.mark.parametrize("mode", ["baseline", "id_align"])
def test_summary_matches_plain_loop_grouping_over_many_blocks(mode):
    plan = LayoutPlan(
        segments=(
            TextSegment(9),
            ThumbnailGrid(GridShape(7, 5)),
            HighResGrid(GridShape(14, 10), row_separator=True),
            Separator(2),
            TextSegment(4),
        ),
        patch_size=14,
    )  # 204 slots: three full score blocks and a short one
    check_summary(plan, mode, "inherit-row-end", 4, False, True)


_MANY_BLOCKS = LayoutPlan(
    segments=(
        TextSegment(9),
        ThumbnailGrid(GridShape(9, 7)),
        HighResGrid(GridShape(18, 14), row_separator=True),
        Separator(2),
        TextSegment(4),
    ),
    patch_size=14,
)  # 348 slots: five full score blocks and a short one


@given(layout_plans(), st.sampled_from(["baseline", "id_align"]), policies, seeds, st.booleans())
@settings(max_examples=80, deadline=None)
def test_summary_counts_match_id_histogram_correlation(plan, mode, policy, seed, normalize):
    try:
        idmap = assign_position_ids(plan, mode, policy)
    except ValueError:
        return  # an aligned map needs a thumbnail before the high-res grid
    config = RopeConfig(dim=8)
    pop = population_gaussian(plan, config, mean=0.5, seed=seed)
    rows = attention_summary(pop, idmap, config, normalize).rows
    assert [row[:6] for row in rows] == [row[:6] for row in histogram_summary(pop, idmap, config)]


@pytest.mark.parametrize("policy", ["inherit-row-end", "sequential-after-image"])
@pytest.mark.parametrize("mode", ["baseline", "id_align"])
@pytest.mark.parametrize("normalize", [False, True])
def test_summary_counts_match_id_histogram_correlation_over_many_blocks(mode, policy, normalize):
    idmap = assign_position_ids(_MANY_BLOCKS, mode, policy)
    config = RopeConfig(dim=8)
    pop = population_gaussian(_MANY_BLOCKS, config, mean=0.5, seed=6)
    rows = attention_summary(pop, idmap, config, normalize).rows
    assert [row[:6] for row in rows] == [row[:6] for row in histogram_summary(pop, idmap, config)]


def check_histogram_summary(plan, mode, policy, seed, scale):
    """The summary against ``histogram_summary``: counts and distances
    exactly, and each mean score within a first-order bound.  Each of the
    group's scores enters the walk's sum with an error of at most
    (dim + count + 8) eps |v_i| |v_j| (rotation, a dim-term dot product,
    a count-term group sum) and the oracle's with at most
    (dim + 3 * slots + 8) eps |v_i| |v_j| (an ID histogram, a correlation
    over IDs, pair and bucket sums, each at most the slot count long):
    by Cauchy-Schwarz each pair's product is at most |v_i| |v_j|."""
    idmap = assign_position_ids(plan, mode, policy)
    config = RopeConfig(dim=8)
    pop = population_gaussian(plan, config, mean=0.5, seed=seed)
    rows = attention_summary(pop, idmap, config, scale=scale).rows
    want = histogram_summary(pop, idmap, config, scale)
    assert [row[:6] for row in rows] == [row[:6] for row in want]
    eps = np.finfo(np.float64).eps
    for row, (*_, count, _mean_d, _max_d, mean_score, mean_norm) in zip(rows, want):
        bound = (2 * config.dim + count + 3 * len(idmap.ids) + 16) * eps * mean_norm
        assert abs(row[6] - mean_score) <= bound, (row, mean_score, bound)


@given(layout_plans(), st.sampled_from(["baseline", "id_align"]), policies, seeds, st.booleans())
@settings(max_examples=100, deadline=None)
def test_summary_matches_id_histogram_oracle(plan, mode, policy, seed, scale):
    try:
        assign_position_ids(plan, mode, policy)
    except ValueError:
        return  # an aligned map needs a thumbnail before the high-res grid
    check_histogram_summary(plan, mode, policy, seed, scale)


def _drop_last_block(blocks):
    return list(blocks)[:-1]


def _swap_key_columns(blocks):
    for scores in blocks:
        scores = scores.copy()
        scores[:, [0, 1]] = scores[:, [1, 0]]
        yield scores


@pytest.mark.parametrize("policy", ["inherit-row-end", "sequential-after-image"])
@pytest.mark.parametrize("mode", ["baseline", "id_align"])
def test_summary_matches_id_histogram_oracle_over_many_blocks(mode, policy):
    check_histogram_summary(_MANY_BLOCKS, mode, policy, 6, True)


@pytest.mark.parametrize("fault", [_drop_last_block, _swap_key_columns], ids=["dropped-block", "swapped-keys"])
@pytest.mark.parametrize("mode", ["baseline", "id_align"])
def test_id_histogram_oracle_catches_a_faulty_walk(fault, mode, monkeypatch):
    """The oracle reads no score the walk gives: a walk that loses its
    last block, or swaps two key columns of each block, fails it."""
    real = harness._walk
    monkeypatch.setattr(harness, "_walk", lambda *args: fault(real(*args)))
    with pytest.raises(AssertionError):
        check_histogram_summary(_MANY_BLOCKS, mode, "inherit-row-end", 6, True)


@pytest.mark.parametrize("block_rows", [1, 37, 64])
@given(
    plan=layout_plans(), mode=st.sampled_from(["baseline", "id_align"]), seed=seeds,
    normalize=st.booleans(), scale=st.booleans(),
)  # fmt: skip
@settings(max_examples=40, deadline=None)
def test_one_table_fold_matches_two_table_fold(block_rows, plan, mode, seed, normalize, scale):
    """The summary's one fold a block, over a table of 2 * size groups,
    gives the bytes of the two folds a block it replaced, at block sizes
    that split the square and the rectangle anywhere."""
    try:
        idmap = assign_position_ids(plan, mode)
    except ValueError:
        return  # an aligned map needs a thumbnail before the high-res grid
    config = RopeConfig(dim=8)
    pop = population_gaussian(plan, config, mean=0.5, seed=seed)
    with mock.patch.object(harness, "_BLOCK_ROWS", block_rows):
        got = attention_summary(pop, idmap, config, normalize, scale).to_csv()
        assert got == two_table_summary(pop, idmap, config, normalize, scale).to_csv()


_edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1 / 3, 0.1])
_cell_floats = st.one_of(_edge_floats, st.floats(allow_nan=False, width=64))
_finite_floats = st.one_of(_edge_floats, st.floats(allow_nan=False, allow_infinity=False, width=64))
_cell_ints = st.one_of(
    st.sampled_from([2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 0]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))
_roles = st.sampled_from(["text", "thumb", "highres", "separator"])


@given(
    st.one_of(
        arrays(np.int64, _shapes, elements=_cell_ints),
        arrays(np.float64, _shapes, elements=_cell_floats),
    ),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_matrix_csv_matches_reference(values, data):
    roles = tuple(data.draw(st.lists(_roles, min_size=values.shape[1], max_size=values.shape[1])))
    text = "".join(csv_lines(roles, (row.tolist() for row in values)))
    assert text == reference_matrix_csv(values, roles)


_id_arrays = arrays(st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]), st.integers(0, 40))
_json_leaves = st.none() | st.booleans() | st.integers() | _finite_floats | st.text(max_size=4)
_json_docs = st.recursive(
    _id_arrays | _json_leaves,
    lambda inner: st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _as_lists(doc):
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    return doc


@given(_json_docs, st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_json_chunks_equal_json_dumps(doc, chunk):
    """Whatever the chunk size, the pieces join to ``json.dumps`` compact
    of the document with each array as its list."""
    with mock.patch.object(codec, "_JSON_CHUNK", chunk):
        text = "".join(json_chunks(doc))
    assert text == json.dumps(_as_lists(doc), separators=(",", ":"))


_any_floats = st.floats(width=64) | st.sampled_from([math.nan, math.inf, -math.inf])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _any_floats | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
@example({"é": [math.nan, math.inf, -math.inf, "\u2603\U0001f600"], "": {"\x00": -0.0}})
def test_json_text_equals_json_dumps(doc):
    """The one shared encoder writes what ``json.dumps`` compact writes,
    NaN, infinities and non-ASCII text included, call after call."""
    assert codec.json_text(doc) == codec.json_text(doc) == json.dumps(doc, separators=(",", ":"))


_INT_DTYPES = (np.int8, np.int32, np.int64, np.uint8, np.uint64)
# Every 10**k - 1 and 10**k a uint64 holds, and their negatives.
_DECIMAL_EDGES = sorted({s * (10**k + e) for k in range(20) for e in (-1, 0) for s in (1, -1)})
_INT_EDGES = _DECIMAL_EDGES + [-(2**63), 2**63 - 1, 2**64 - 1]


def _int_arrays(dtype, shape=_shapes):
    """Arrays of ``dtype`` whose entries favour the decimal edges, sign and
    the dtype's limits."""
    info = np.iinfo(dtype)
    edges = [v for v in _INT_EDGES + [info.min, info.max] if info.min <= v <= info.max]
    elements = st.one_of(st.sampled_from(edges), st.integers(info.min, info.max))
    return arrays(dtype, shape, elements=elements)


@given(st.sampled_from(_INT_DTYPES).flatmap(_int_arrays))
@settings(max_examples=500, deadline=None)
def test_int_lines_equal_str_of_each_entry(values):
    assert int_lines(values) == csv_text(None, values.tolist())


@pytest.mark.parametrize("dtype", _INT_DTYPES + (np.int16, np.uint16, np.uint32), ids=lambda t: t.__name__)
def test_int_lines_at_every_decimal_edge(dtype):
    """Each 10**k - 1 and 10**k, the limits of the dtype (int64's minimum
    has no positive counterpart, uint64's maximum has 20 digits), in one
    row, in one column, and in shapes with no rows or no columns."""
    info = np.iinfo(dtype)
    edges = np.array([v for v in _INT_EDGES + [info.min, info.max] if info.min <= v <= info.max], dtype)
    for values in (edges[None], edges[:, None], edges[: len(edges) // 2 * 2].reshape(2, -1)):
        assert int_lines(values) == csv_text(None, values.tolist())
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert int_lines(np.zeros(shape, dtype)) == csv_text(None, np.zeros(shape, dtype).tolist())


@pytest.mark.parametrize(
    "values",
    [np.zeros((2, 2)), np.zeros((2, 2), bool), np.zeros(3, np.int64), np.zeros((1, 1, 1), np.int64), [[1]]],
    ids=["float", "bool", "1-D", "3-D", "list"],
)
def test_int_lines_refuses_other_arrays(values):
    with pytest.raises(TypeError, match="2-D integer array"):
        int_lines(values)


_wide_shapes = st.tuples(st.integers(0, 4), st.integers(0, 12))


@given(st.sampled_from(_INT_DTYPES).flatmap(lambda dtype: _int_arrays(dtype, _wide_shapes)), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_int_chunks_join_to_int_lines(values, chunk):
    """Pieces of whole rows, or of one row cut where it is longer than a
    chunk, join to the kernel's text, and no piece holds more entries than
    a chunk."""
    calls = []
    with mock.patch.object(codec, "_JSON_CHUNK", chunk), mock.patch.object(
        codec, "int_lines", side_effect=lambda v: calls.append(v.size) or int_lines(v)
    ):
        text = "".join(int_chunks(values))
    assert text == int_lines(values)
    assert max(calls, default=0) <= chunk


@given(
    st.lists(
        st.tuples(st.integers(0, 2**53), _finite_floats, _finite_floats.map(abs)), max_size=8
    ),
    st.integers(2, 2**62),
)
@example([(2**53, 0.0, 0.0), (0, -0.0, 0.0)], 2)
@settings(max_examples=200, deadline=None)
def test_decay_csv_matches_reference(points, samples):
    """Any profile the decay API's kinds admit: distances 0 to 2**53 and
    at least 2 samples (the bounds themselves are pinned in test_decay)."""
    points = sorted({d: (d, m, s) for d, m, s in points}.values())
    profile = DecayProfile(
        distances=tuple(p[0] for p in points),
        mean_dot=tuple(p[1] for p in points),
        stderr=tuple(p[2] for p in points),
        sample_count=samples,
    )
    assert profile.to_csv() == reference_decay_csv(profile)


def reference_shared_sample_profile(mu_q, mu_k, distances, samples, seed, config):
    """Mean and stderr per distance from a plain loop over 16384-sample
    chunks.  Chunk c draws from Philox keyed by word c of the profile's
    substream, in blocks of 1024 samples: a block's (n, dim) rows of q,
    then its n normals g.  A sample at distance m is
    |q| g + q . apply_rope(mu_k, m)."""
    base = int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])
    n_chunks = -(-samples // 16384)
    words = np.random.SeedSequence(base).generate_state(n_chunks, dtype=np.uint64)
    dots = [[] for _ in distances]
    for c, word in enumerate(words):
        n = min(16384, samples - c * 16384)
        rng = np.random.Generator(np.random.Philox(int(word)))
        sizes = [min(1024, n - r) for r in range(0, n, 1024)]
        blocks = [(rng.standard_normal((b, config.dim)), rng.standard_normal(b)) for b in sizes]
        q = mu_q + np.concatenate([z for z, _ in blocks])
        g = np.concatenate([g for _, g in blocks])
        for out, m in zip(dots, distances):
            out.append(np.linalg.norm(q, axis=1) * g + q @ apply_rope(mu_k, m, config))
    values = [np.concatenate(chunks) for chunks in dots]
    return (
        [v.mean() for v in values],
        [v.std(ddof=1) / math.sqrt(samples) for v in values],
        [np.abs(v).max() for v in values],
    )


@given(
    st.sampled_from([2, 4, 8, 16]),
    st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=8, unique=True),
    st.integers(min_value=2, max_value=3 * 16384 + 7),
    seeds,
    seeds,
)
@example(16, [0, 5, 4096], 3 * 16384 + 7, 3, 11)  # two full chunks and a partial one
@example(2, [1], 16384 + 1, 0, 0)
@settings(max_examples=25, deadline=None)
def test_decay_profile_matches_per_chunk_reference(dim, grid, samples, seed, mu_seed):
    config = RopeConfig(dim=dim, theta_base=1e4)
    mu_q, mu_k = _vec(dim, mu_seed), _vec(dim, mu_seed + 1)
    grid = sorted(grid)
    profile = decay_profile(mu_q, mu_k, grid, samples=samples, seed=seed, config=config)
    means, errs, scales = reference_shared_sample_profile(mu_q, mu_k, grid, samples, seed, config)
    for got, want, scale in zip(profile.mean_dot, means, scales):
        # A mean near 0 is judged against the size of its samples.
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
    for got, want, scale in zip(profile.stderr, errs, scales):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale / math.sqrt(samples))


def test_decay_stderr_law_with_zero_query_mean():
    """With mu_q = 0 every sample is |q| g + q . R_m mu_k, of variance
    |mu_k|^2 + dim: the key mean enters only through the noisy query."""
    dim, samples = 64, 100_000
    config = RopeConfig(dim=dim, theta_base=1e4)
    mu_k = np.linspace(-2.0, 3.0, dim)
    profile = decay_profile(np.zeros(dim), mu_k, [0, 7, 300, 5000], samples, seed=17, config=config)
    analytic = math.sqrt((mu_k @ mu_k + dim) / samples)
    for mean, err in zip(profile.mean_dot, profile.stderr):
        assert abs(err - analytic) <= 0.05 * analytic
        assert abs(mean) <= 5 * err


@given(grid_sides, grid_sides, grid_sides, grid_sides, st.integers(0, 2**60))
@settings(max_examples=200, deadline=None)
def test_grid_csv_matches_reference(h0, w0, h1, w1, base):
    mapping = map_highres_ids(GridShape(h0, w0), GridShape(h1, w1), base)
    assert mapping.to_csv() == reference_grid_csv(mapping)


@given(dims, thetas, seeds, st.integers(min_value=-(2**40), max_value=2**40))
@settings(max_examples=300, deadline=None)
def test_apply_rope_matches_reference_bitwise(dim, theta, seed, m):
    config = RopeConfig(dim=dim, theta_base=theta)
    v = _vec(dim, seed)
    assert apply_rope(v, m, config).tobytes() == reference_apply_rope(v, m, config).tobytes()


# Integer arrays: rotary positions, PositionIdMap.ids and GridMapping.ids,
# each read by codec.read_array under one rule.


def _rotated_positions(value) -> np.ndarray:
    """The positions ``apply_rope_many`` read from ``value``: it rotates
    one row per entry at dim 2, whose one frequency is 1, bitwise as the
    reference rotates each row by its integer."""
    config = RopeConfig(dim=2)
    got = apply_rope_many(np.ones((len(value), 2)), value, config)
    ints = np.array(value, dtype=np.int64)  # accepted, so each entry is an integer
    assert got.tobytes() == np.stack([reference_apply_rope(np.ones(2), int(m), config) for m in ints]).tobytes()
    return ints


def _grid_row(value) -> np.ndarray:
    """The one row of the grid ``GridMapping`` read from ``[value]``."""
    row = [value] if isinstance(value, list) else value[None]
    return GridMapping(GridShape(1, len(value)), row, 0).ids[0]


# Each reader: the parameter it names, its range, and what it read from a
# 1-D value as a 1-D array.
_INT_READERS = {
    "positions": ("positions", (-(2**53), 2**53), _rotated_positions),
    "PositionIdMap": ("ids", (0, 2**63 - 1), lambda value: PositionIdMap(ids=value, mode="baseline").ids),
    "GridMapping": ("ids", (0, 2**63 - 1), _grid_row),
}
# The bounds of each range and the integers on either side of them.
_INT_EDGES = sorted({b + d for _, bounds, _ in _INT_READERS.values() for b in bounds for d in (-1, 0, 1)})
_NOT_INTS = [True, False, np.True_, 0.0, 7.0, 2.5, float("nan"), np.float64(1.0)]


@st.composite
def int_array_inputs(draw):
    """(value, ints, poisoned): a sorted list of ints, an array of any
    integer dtype and byte order, or an object array, and the Python ints
    it holds; poisoned when a bool or float sits at a random place (a
    numpy array then has a float or bool dtype).  Sorted, so that a grid
    row is nondecreasing."""
    form = draw(st.sampled_from(["list", "array", "object"]))
    dtype = np.dtype(object) if form != "array" else draw(integer_dtypes() | unsigned_integer_dtypes())
    lo, hi = (-(2**64), 2**64) if form != "array" else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    entry = st.integers(lo, hi) | st.sampled_from([e for e in _INT_EDGES if lo <= e <= hi])
    ints = sorted(draw(st.lists(entry, min_size=1, max_size=6)))
    value = ints if form == "list" else np.array(ints, dtype=dtype)
    if not draw(st.booleans()):
        return value, ints, False
    if form == "array":
        return value.astype(draw(st.sampled_from([np.float64, np.float32, bool]))), ints, True
    poisoned = list(value)
    poisoned.insert(draw(st.integers(0, len(ints))), draw(st.sampled_from(_NOT_INTS)))
    return (poisoned if form == "list" else np.array(poisoned, dtype=object)), ints, True


@given(st.sampled_from(sorted(_INT_READERS)), int_array_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_arrays_have_one_reader(reader, drawn):
    """Each reader gives the drawn ints as int64, or refuses the value
    with its parameter's name and range: a bool or float anywhere, or an
    integer outside the range, even in a wider integer dtype."""
    value, ints, poisoned = drawn
    name, (lo, hi), read = _INT_READERS[reader]
    if poisoned or not all(lo <= i <= hi for i in ints):
        with pytest.raises(ValueError, match=f"^{name} must be an integer from {lo} to {hi}, got "):
            read(value)
        return
    got = read(value)
    assert got.dtype == np.int64 and got.tolist() == ints


# Any array, read by codec.read_array: read_value is the one check of an entry.

_ARRAY_KINDS = st.sampled_from([float, IntRange(-(2**53), 2**53), IntRange(0, 2**63 - 1)])
_ENTRIES = st.one_of(
    st.integers(-(2**64), 2**64),
    st.sampled_from([2**53 + 1, 2**63, -(2**63) - 1, 10**400, -(10**5000)]),  # past int64, float, repr
    st.floats(),  # NaN and ±inf included
    st.booleans(),
    st.text(max_size=2),
    st.builds(lambda n, t: t(n), st.integers(-128, 127), st.sampled_from([np.int8, np.int64, np.float32, np.float64])),
    st.sampled_from([np.True_, np.uint64(2**64 - 1), np.float64("nan"), np.float16("inf")]),
    st.builds(np.array, st.integers(-(2**63), 2**63 - 1) | st.floats() | st.booleans() | st.just("7")),  # 0-d
)


def _refusal(call):
    """The message of the ValueError ``call`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@given(_ARRAY_KINDS, st.lists(_ENTRIES, min_size=1, max_size=6), st.sampled_from([1, 2]))
@settings(max_examples=400, deadline=None)
def test_a_list_is_read_entry_by_entry(kind, entries, ndim):
    """A 1-D or 2-D list reads as the array of ``read_value``'s results,
    or is refused with the message of its first entry ``read_value``
    refuses."""
    field = codec.Field("x", kind)
    value = entries if ndim == 1 else [[e] for e in entries]
    refused = next(filter(None, (_refusal(lambda e=e: codec.read_value(field, e)) for e in entries)), None)
    assert _refusal(lambda: codec.read_array(value, "x", None, kind)) == refused
    if refused is None:
        got = codec.read_array(value, "x", None, kind)
        want = np.array([codec.read_value(field, e) for e in entries], np.float64 if kind is float else np.int64)
        want = want.reshape((len(entries), 1)[:ndim])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(_ARRAY_KINDS, st.data())
@settings(max_examples=400, deadline=None)
def test_a_numeric_array_is_read_at_its_extremes(kind, data):
    """An integer array, or a float one read as floats, is accepted
    exactly when ``read_value`` accepts its min and its max, and refused
    with the message of the first of the two it refuses."""
    dtypes = ["int8", "uint8", "int64", "uint64", *["float16", "float32", "float64"] * (kind is float)]
    value = data.draw(arrays(st.sampled_from(dtypes), st.sampled_from([(3,), (2, 2)])))
    field = codec.Field("x", kind)
    refused = _refusal(lambda: [codec.read_value(field, x.item()) for x in (value.min(), value.max())])
    got = _refusal(lambda: codec.read_array(value, "x", None, kind))
    assert got == refused
    if refused is None:
        want = value.astype(np.float64 if kind is float else np.int64)
        assert codec.read_array(value, "x", None, kind).tobytes() == want.tobytes()


def test_a_float_array_read_allocates_nothing_per_entry():
    """Reading a read-only (20000, 64) float64 array checks it at its two
    extremes: nothing of its size is allocated (a finiteness mask would
    be 1.28 MB)."""
    value = np.random.Generator(np.random.Philox(0)).standard_normal((20_000, 64))
    value.flags.writeable = False
    codec.read_array(value[:2], "vectors", (None, 64))  # warm
    tracemalloc.start()
    try:
        assert codec.read_array(value, "vectors", (None, 64)) is value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


# The segment table, and the CLI contract for every plan, config and argv.


@given(layout_plans())
@settings(max_examples=150, deadline=None)
def test_plan_json_round_trip(plan):
    assert LayoutPlan.from_json(plan.to_json()) == plan


@given(layout_plans())
@settings(max_examples=150, deadline=None)
def test_table_slots_match_slot_roles(plan):
    """Each segment's ``cell_slots`` are, row by row, the slots that
    enumerating ``slot_roles()`` gives its role inside its range, and
    ``image_slots`` are the thumbnail's slots, then the high-res grid's."""
    roles = plan.slot_roles()
    for seg, start, stop in segment_ranges(plan):
        assert set(roles[start:stop]) <= {seg.KIND, "separator"}
        rows, cells, _tail = seg.runs()
        want = [i for i in range(start, stop) if roles[i] == seg.KIND]
        assert plan.cell_slots(seg).tolist() == [want[r * cells : (r + 1) * cells] for r in range(rows)]
    image = plan.image_slots()
    assert image.dtype == np.int64
    assert image.tolist() == [i for kind in ("thumb", "highres") for i, r in enumerate(roles) if r == kind]


def test_cell_slots_of_a_foreign_segment_rejected():
    plan = LayoutPlan(segments=(TextSegment(2),), patch_size=14)
    with pytest.raises(ValueError, match="not in this plan"):
        plan.cell_slots(TextSegment(2))


@given(layout_plans(), policies)
@settings(max_examples=150, deadline=None)
def test_mode_geometry_matches_matrix_reference(plan, policy):
    """The gain report's geometry equals the dense formulas over slots
    found by enumerating ``slot_roles()``: the mean of |id(high) -
    id(thumb)| over the oracle's pairs, and the mean and max of the
    post-text x image |delta id| matrix."""
    roles = plan.slot_roles()
    thumb, high = plan.thumbnail(), plan.highres()
    n = len(roles)
    # A caller may pass any map: the reversed one puts post-text IDs below the image's.
    idmaps = [PositionIdMap(ids=tuple(range(n - 1, -1, -1)), mode="baseline")]
    for mode in ("baseline", "id_align"):
        with contextlib.suppress(ValueError):
            idmaps.append(assign_position_ids(plan, mode, policy))
    for idmap in idmaps:
        ids = np.asarray(idmap.ids)
        got = harness._mode_geometry(idmap.ids, *harness._slot_sets(plan))
        want_pair = None
        if thumb is not None and high is not None:
            grid = {
                kind: ids[[i for i, r in enumerate(roles) if r == kind]].reshape(g.shape.rows, g.shape.cols)
                for kind, g in (("thumb", thumb), ("highres", high))
            }
            dists = [
                abs(int(grid["highres"][p.highres_cell]) - int(grid["thumb"][p.thumb_cell]))
                for p in correspondence_oracle(thumb.shape, high.shape)
            ]
            want_pair = float(np.mean(dists))
        assert got.pair_mean_distance == want_pair
        image = [i for i, r in enumerate(roles) if r in ("thumb", "highres")]
        post = [i for i, r in enumerate(roles) if r == "text" and image and i > image[-1]]
        if post:
            d = np.abs(ids[post][:, None] - ids[image][None, :])
            assert got.post_text_mean_image_distance == float(np.mean(d))
            assert got.post_text_max_image_distance == int(np.max(d))
        else:
            assert got.post_text_mean_image_distance is None
            assert got.post_text_max_image_distance is None
        assert got.max_id == (int(ids.max()) if len(ids) else 0)


# Small integers and short strings with no path separator.  The sizes
# only bound run time: a valid plan or config drawn here is cheap to run,
# and the reader checks a value's type the same way at any size.  The
# alphabet keeps every output inside the temp directory.
_SMALL_INTS = st.integers(min_value=-3, max_value=12)
_WORDS = st.text(alphabet="abcxhilnrst0123456789:,.-", max_size=5)
_PLAN_KEYS = ["segments", "patch_size", "kind", "len", "rows", "cols", "row_separator", "count"]
_KINDS = st.sampled_from(["text", "thumb", "highres", "separator"])
_OPTION_KEYS = [opt.name for opt in cli.OPTIONS]


def _json_docs(keys, words):
    leaves = st.none() | st.booleans() | _SMALL_INTS | st.floats() | words
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=5),
        max_leaves=16,
    )


_PLAN_JUNK = _json_docs(st.sampled_from(_PLAN_KEYS) | st.text(max_size=3), _WORDS | _KINDS)


@st.composite
def _mutated_plan_docs(draw):
    """A valid plan document with one to three edits anywhere in it."""
    doc = json.loads(draw(layout_plans()).to_json())
    for _ in range(draw(st.integers(1, 3))):
        segments = doc.get("segments")
        objects = [s for s in segments if isinstance(s, dict)] if isinstance(segments, list) else []
        target = draw(st.sampled_from([doc, *objects]))
        key = draw(st.sampled_from([*sorted(target), *_PLAN_KEYS]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_PLAN_JUNK)
    return doc


def _run(argv):
    """(exit code, stderr) of one in-process CLI call; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors, and --help
            rc = exc.code
    return rc, err.getvalue()


@contextlib.contextmanager
def _sandbox():
    """A temp directory that relative outputs are written under."""
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.dict(os.environ, {"ROPEALIGN_OUTPUT_DIR": tmp}):
            yield Path(tmp)


def _assert_contract(rc, err):
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith(("error: ", "usage: ")) and "Traceback" not in err, err


@given(_PLAN_JUNK | _mutated_plan_docs())
@settings(max_examples=300, deadline=None)
def test_any_plan_document_exits_0_or_2(doc):
    with _sandbox() as tmp:
        path = tmp / "plan.json"
        path.write_text(json.dumps(doc))
        rc, err = _run(["assign-ids", "--plan", str(path), "--mapping-csv", "m.csv", "--out", "o"])
    _assert_contract(rc, err)


# Flags that keep a config-driven run small whatever the config says.
_CONFIG_FAST = {
    "simulate-decay": ["--samples", "8"],
    "plan-layout": [],
    "assign-ids": [],
    "attention-report": [
        "--input", "28x28", "--candidates", "28x28", "--vit", "28x28",
        "--patch", "14", "--dim", "4",
    ],
}  # fmt: skip
_CONFIG_DOCS = _json_docs(st.sampled_from(_OPTION_KEYS) | st.text(max_size=3), _WORDS)
_CONFIG_DOCS |= st.dictionaries(
    st.sampled_from(_OPTION_KEYS), _SMALL_INTS | _WORDS | st.booleans() | st.none()
)


@given(st.sampled_from(sorted(_CONFIG_FAST)), _CONFIG_DOCS)
@settings(max_examples=200, deadline=None)
def test_any_config_document_exits_0_or_2(command, doc):
    with _sandbox() as tmp:
        path = tmp / "cfg.json"
        path.write_text(json.dumps(doc))
        rc, err = _run([command, "--config", str(path), *_CONFIG_FAST[command]])
    _assert_contract(rc, err)


# Integers that are small, or past the bounds the options read them under
# (2**53 for a side, an end or a count, the float range, the address
# space).  Counts from 21 to 2**45 are left out to bound run time and
# memory, as _SMALL_INTS leaves them out.
_MAGNITUDES = st.integers(0, 20) | st.integers(2**45, 10**400)
_SPEC_TEMPLATES = [  # (option, template, filled with up to four integers)
    ("input", "{}x{}"), ("vit", "{}x{}"), ("candidates", "{}x{}"), ("candidates", "{}x{},{}x{}"),
    ("pop", "constant:{}"), ("pop", "gaussian:{}:{}"),
    ("distances", "lin:{}..{}:{}"), ("distances", "log:{}..{}:{}"), ("distances", "{},{},{}"),
    ("mu", "ones:{}"),
]  # fmt: skip
# Each command's small flags, which the drawn spec follows and overrides.
_SPEC_BASES = {
    "simulate-decay": ["--dim", "4", "--samples", "8"],
    "attention-report": _CONFIG_FAST["attention-report"],
}


@given(st.sampled_from(_SPEC_TEMPLATES), st.lists(_MAGNITUDES, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_any_spec_magnitude_exits_0_or_2(option_template, numbers):
    option, template = option_template
    command = "simulate-decay" if option in ("distances", "mu") else "attention-report"
    with _sandbox():
        rc, err = _run([command, *_SPEC_BASES[command], f"--{option}", template.format(*numbers)])
    _assert_contract(rc, err)


# Each command's small starting options, given both as flags, which the
# mutations edit, and as a config file under them, so that a mutation
# which drops a flag still leaves a small run.
_ARGV_BASES = {
    "simulate-decay": {"dim": 4, "samples": 8, "distances": "0,1", "seed": 3},
    "plan-layout": {"input": "56x28", "candidates": "56x56", "vit": "28x28", "patch": 14},
    "assign-ids": {"input": "56x28", "candidates": "56x56", "mapping_csv": "m.csv"},
    "attention-report": {"input": "28x56", "candidates": "28x56", "dim": 4},
}
_FLAG_NAMES = sorted(
    {cli._flag(opt)[0] for opt in cli.OPTIONS}
    | {"--no-" + opt.name.replace("_", "-") for opt in cli.OPTIONS if opt.kind is bool}
)
_TOKENS = st.sampled_from(_FLAG_NAMES) | _SMALL_INTS.map(str) | _WORDS


@st.composite
def _mutated_argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_BASES)))
    tail = [
        token
        for key, value in _ARGV_BASES[command].items()
        for token in ("--" + key.replace("_", "-"), str(value))
    ]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tail)))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit == "insert" or i == len(tail):
            tail.insert(i, draw(_TOKENS))
        elif edit == "replace":
            tail[i] = draw(_TOKENS)
        else:
            del tail[i]
    return command, tail


@given(_mutated_argv())
@settings(max_examples=200, deadline=None)
def test_mutated_argv_exits_0_or_2(command_tail):
    command, tail = command_tail
    with _sandbox() as tmp:
        path = tmp / "cfg.json"
        path.write_text(json.dumps(_ARGV_BASES[command]))
        rc, err = _run([command, "--config", str(path), *tail])
    _assert_contract(rc, err)


_BAD_VALUES = {
    int: ["7", 2.5, True, None, [1]],
    float: ["1e4", True, None, [1]],
    bool: [1, "true", None],
    str: [3, True, [1]],
    list: ["x", {"a": 1}, None],
}


def _bad_values(kind) -> list:
    """Values that ``kind`` refuses: for an ``IntRange``, the non-integers
    of int and the integers just outside its bounds."""
    if isinstance(kind, IntRange):
        return _BAD_VALUES[int] + [kind.least - 1] + ([] if kind.most is None else [kind.most + 1])
    return _BAD_VALUES.get(kind, ["audio", 3])


@given(layout_plans(), st.data())
@settings(max_examples=200, deadline=None)
def test_plan_errors_name_the_field(plan, data):
    """A mistyped, missing or unknown plan field is named, with its segment."""
    doc = json.loads(plan.to_json())
    index = data.draw(st.sampled_from([None, *range(len(doc["segments"]))]))
    if index is None:
        target, fields, where = doc, layout._PLAN_FIELDS, "plan"
    else:
        target, where = doc["segments"][index], f"plan segment {index}"
        fields = (layout._KIND_FIELD, *SEGMENT_KINDS[target["kind"]].FIELDS)
    field = data.draw(st.sampled_from(fields))
    edit = data.draw(st.sampled_from(["mistype", "remove", "unknown"]))
    if edit == "unknown":
        target["zz_" + field.name] = 1
        want = f"{where}: unknown keys: zz_{field.name}"
    elif edit == "remove" and field.default is REQUIRED:
        del target[field.name]
        want = f"{where}: {field.name} is missing"
    else:
        target[field.name] = data.draw(st.sampled_from(_bad_values(field.kind)))
        want = f"{where}: {field.name} must be "
    with pytest.raises(ValueError) as exc:
        LayoutPlan.from_json(json.dumps(doc))
    assert str(exc.value).startswith(want), str(exc.value)


@given(st.sampled_from(cli.OPTIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_config_errors_name_file_and_key(opt, data):
    """A mistyped config value is named, with its file."""
    bad = data.draw(st.sampled_from(_bad_values(opt.kind)))
    with _sandbox() as tmp:
        path = tmp / "cfg.json"
        path.write_text(json.dumps({opt.name: bad}))
        rc, err = _run([opt.commands[0], "--config", str(path)])
    assert rc == 2
    assert err.startswith(f"error: {path}: {opt.name} must be "), err
