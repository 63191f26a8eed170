"""Desk-scale attention demonstrations over synthetic token populations.

Real-model activations are out of scope; the point is to make the
geometric consequences of an ID assignment visible: rotary-modulated
scores by relative distance, a role-by-distance summary of them, and a
small report comparing baseline and aligned assignments on the same plan.

``_distance_blocks`` is the one home of |id_i - id_j|: it yields blocks
of ``_BLOCK_ROWS`` query rows from the IDs alone, against every key or
against the upper triangle only.  ``_walk`` is the one home of the score
formula, softmax included: it yields the score rows of the same blocks,
so its memory is O(block * slots).  ``score_blocks`` is the walk over
whole rows.  ``attention_summary`` is the one place the two walks meet:
one loop pairs each score block with its distance block and folds them
into per-group counts, sums and maxima through ``_fold``; without
softmax it walks the upper triangle and mirrors the off-diagonal part,
as the scores are symmetric bit for bit.  The CLI's ``--dense`` writer
streams ``score_blocks``' rows a row at a time and the distance rows
straight from ``_distance_blocks``, with no rotation.  The bytes depend
neither on the thread count nor on the BLAS library.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .codec import csv_text, json_text
from .idalign import PositionIdMap, _axis_partners, assign_position_ids
from .layout import LayoutPlan, segment_ranges
from .rope import RopeConfig, apply_rope_many

# Query rows per score block.  Fixed (never tunable): a block's rows are
# bitwise the rows of the full product, so the size moves only memory
# and speed, and a fixed size keeps the summary's summation order fixed.
_BLOCK_ROWS = 64

__all__ = [
    "TokenPopulation",
    "ScoreSummary",
    "ModeGeometry",
    "AlignmentGainReport",
    "population_constant",
    "population_gaussian",
    "score_blocks",
    "attention_summary",
    "alignment_gain_report",
]


@dataclass(frozen=True, eq=False)
class TokenPopulation:
    """One synthetic head vector per sequence slot, with its slot role."""

    vectors: np.ndarray
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2D array (slots, dim)")
        if self.vectors.shape[0] != len(self.roles):
            raise ValueError("one role per vector required")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors must be finite")


def population_constant(plan: LayoutPlan, config: RopeConfig, value: float = 1.0) -> TokenPopulation:
    """Every slot gets the same constant vector."""
    roles = plan.slot_roles()
    vectors = np.full((len(roles), config.dim), float(value), dtype=np.float64)
    return TokenPopulation(vectors=vectors, roles=roles)


def population_gaussian(
    plan: LayoutPlan, config: RopeConfig, mean: float = 0.0, seed: int = 0
) -> TokenPopulation:
    """Independent N(mean, 1) coordinates from a seeded Philox stream."""
    roles = plan.slot_roles()
    rng = np.random.Generator(np.random.Philox(seed))
    vectors = mean + rng.standard_normal((len(roles), config.dim))
    return TokenPopulation(vectors=vectors, roles=roles)


def _distance_blocks(ids: np.ndarray, upper: bool = False) -> Iterator[np.ndarray]:
    """|id_i - id_j| for each block of ``_BLOCK_ROWS`` query rows, in
    row order, against every key column or, with ``upper``, against the
    columns from the block's first row on; the one home of the distance
    formula."""
    for lo in range(0, len(ids), _BLOCK_ROWS):
        dist = ids[lo : lo + _BLOCK_ROWS, None] - ids[lo if upper else 0 :]
        yield np.abs(dist, out=dist)  # in place: one block-sized temporary fewer at the peak


def _walk(
    pop: TokenPopulation, idmap: PositionIdMap, config: RopeConfig, normalize: bool, scale: bool, upper: bool
) -> Iterator[np.ndarray]:
    """The score blocks of ``score_blocks``, with the rows and key columns
    of ``_distance_blocks``' blocks; the one home of the score formula,
    softmax included (it needs whole rows: not with ``upper``).  The
    population is rotated once per call.
    """
    if pop.vectors.shape[0] != len(idmap.ids):
        raise ValueError("population size must match the id map")
    if pop.vectors.shape[1] != config.dim:
        raise ValueError(f"population dim {pop.vectors.shape[1]} != config dim {config.dim}")
    ids = idmap.ids
    rotated = apply_rope_many(pop.vectors, ids.astype(np.float64), config)
    for lo in range(0, len(ids), _BLOCK_ROWS):
        # einsum, not BLAS: a threaded matmul changes the low bits with the
        # BLAS thread count, and the scores must not.  Each cell is the same
        # k-ordered sum whatever columns the block spans, and equal to its
        # mirror cell bit for bit.
        scores = np.einsum("ik,jk->ij", rotated[lo : lo + _BLOCK_ROWS], rotated[lo if upper else 0 :])
        if scale:
            scores /= np.sqrt(config.dim)
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if normalize:  # in place: the same bits, no block-sized temporaries
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=1, keepdims=True)
        yield scores


def score_blocks(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
) -> Iterator[np.ndarray]:
    """The score rows of each block of ``_BLOCK_ROWS`` query rows, in row
    order: score(i, j) = rotated(v_i, id_i) . rotated(v_j, id_j),
    optionally divided by sqrt(dim) and row-softmaxed.  Rows are queries,
    columns keys; the scores depend on the IDs only through differences
    id_i - id_j, the rotary shift invariance the harness exists to exhibit.
    """
    return _walk(pop, idmap, config, normalize, scale, upper=False)


@dataclass(frozen=True)
class ScoreSummary:
    """Scores grouped by (query role, key role, |id_i - id_j| bucket).

    Buckets are 0, 1, 2-3, 4-7, ..., each labelled by its lower bound.
    Each row holds the group's count, the mean and max of |id_i - id_j|
    and the mean and max of the score; only non-empty groups appear,
    ordered by query role, key role (role names sorted) and bucket.
    """

    rows: tuple[tuple, ...]

    HEADER = (
        "query_role", "key_role", "distance_bucket", "count",
        "mean_distance", "max_distance", "mean_score", "max_score",
    )  # fmt: skip

    def to_csv(self) -> str:
        return csv_text(self.HEADER, self.rows)


def _empty_table(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat count, score-sum and score-max tables of ``size`` groups."""
    return np.zeros(size, dtype=np.int64), np.zeros(size), np.full(size, -np.inf)


def _fold(table: tuple[np.ndarray, np.ndarray, np.ndarray], group: np.ndarray, scores: np.ndarray) -> None:
    """Add one block of scores to ``table`` at their flat group indices;
    the one home of the per-block fold."""
    counts, sums, maxima = table
    group, scores = group.ravel(), scores.ravel()
    counts += np.bincount(group, minlength=counts.size)
    sums += np.bincount(group, weights=scores, minlength=sums.size)
    np.maximum.at(maxima, group, scores)


def attention_summary(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
) -> ScoreSummary:
    """The scores of ``score_blocks`` grouped as ``ScoreSummary``
    describes, without holding the dense matrix.

    One loop pairs each ``_walk`` block with its ``_distance_blocks``
    block, drawn after it so the two are not both being built at the
    peak, and folds them into one table per (role pair, exact distance):
    counts and score sums by ``bincount``, score maxima by
    ``maximum.at``, merged in block order.  Without ``normalize`` only the
    upper triangle is walked, as score(i, j) = score(j, i) bit for bit:
    each block runs from its first row's column on, its square folds as
    it stands, and the rectangle right of it folds into a second table
    that is added back twice, as it stands and with the query and key
    roles swapped.  Softmax needs whole rows, so ``normalize`` walks them
    and folds each block whole.  Distance buckets are then reduced from
    the table, so the distance columns are exact, and the rows are read
    at one ``nonzero`` mask of the bucketed counts.  The table spans
    distances up to the map's ID span, max(id) - min(id), which for the
    maps ``assign_position_ids`` builds is below the slot count.
    """
    ids = idmap.ids
    names, codes = np.unique(np.asarray(pop.roles, dtype=str), return_inverse=True)
    n_roles = len(names)
    width = int(ids.max() - ids.min()) + 1 if len(ids) else 1
    size = n_roles * n_roles * width
    table, right = _empty_table(size), _empty_table(size)
    query_base = codes * (n_roles * width)
    key_base = codes * width
    upper = not normalize
    # The walk first: its shape checks run even when there are no blocks.
    walk = _walk(pop, idmap, config, normalize, scale, upper)
    for scores, dist, lo in zip(walk, _distance_blocks(ids, upper), range(0, len(ids), _BLOCK_ROWS)):
        n = len(dist)
        group = dist + query_base[lo : lo + n, None] + key_base[lo if upper else 0 :]
        if upper:
            _fold(table, group[:, :n], scores[:, :n])
            _fold(right, group[:, n:], scores[:, n:])
        else:  # one fold: splitting it would reorder bincount's sums
            _fold(table, group, scores)
    if upper:  # (a, b, d) of the lower triangle is (b, a, d) of the upper one.
        for whole, part, merge in zip(table, right, (np.add, np.add, np.maximum)):
            merge(whole, part, out=whole)
            merge(whole, part.reshape(n_roles, n_roles, width).swapaxes(0, 1).ravel(), out=whole)

    # Bucket b >= 1 holds distances [2**(b-1), 2**b); frexp's exponent of
    # d is exactly that b, and 0 for d = 0.
    distance = np.arange(width)
    starts = np.flatnonzero(np.diff(np.frexp(distance)[1], prepend=-1))
    counts, sums, maxima = (t.reshape(n_roles * n_roles, width) for t in table)
    count = np.add.reduceat(counts, starts, axis=1)
    pair, bucket = np.nonzero(count)  # row-major: role pair, then bucket
    query, key = np.divmod(pair, n_roles)
    cells = (
        names[query], names[key], starts[bucket], count[pair, bucket],
        np.add.reduceat(counts * distance, starts, axis=1)[pair, bucket],
        np.maximum.reduceat(np.where(counts > 0, distance, -1), starts, axis=1)[pair, bucket],
        np.add.reduceat(sums, starts, axis=1)[pair, bucket],
        np.maximum.reduceat(maxima, starts, axis=1)[pair, bucket],
    )  # fmt: skip
    rows = tuple(
        (q, k, lower, c, dist_sum / c, dist_max, score_sum / c, score_max)
        for q, k, lower, c, dist_sum, dist_max, score_sum, score_max in zip(*(a.tolist() for a in cells))
    )
    return ScoreSummary(rows=rows)


@dataclass(frozen=True)
class ModeGeometry:
    """ID-geometry summary for one assignment mode.

    ``pair_mean_distance`` averages |id(high) - id(thumb)| over every
    spatially corresponding cell pair; None when the plan has no
    high-resolution grid.  The post-text fields measure distances from
    every text token after the image's last slot, across all the text
    segments there, to all image tokens; None when there is no such text.
    """

    pair_mean_distance: float | None
    post_text_mean_image_distance: float | None
    post_text_max_image_distance: int | None
    max_id: int


@dataclass(frozen=True)
class AlignmentGainReport:
    baseline: ModeGeometry
    id_align: ModeGeometry

    def to_json(self) -> str:
        return json_text(asdict(self))


def _mode_geometry(plan: LayoutPlan, idmap: PositionIdMap) -> ModeGeometry:
    ids = idmap.ids
    thumb, high = plan.thumbnail(), plan.highres()
    pair_mean = None
    if thumb is not None and high is not None:
        # The overlapping pairs are row partners x column partners, so one
        # np.ix_ read per grid gives every pair's |delta id|.
        r, tr = _axis_partners(thumb.shape.rows, high.shape.rows)
        c, tc = _axis_partners(thumb.shape.cols, high.shape.cols)
        high_ids = ids[plan.cell_slots(high)][np.ix_(r, c)]
        d = np.abs(high_ids - ids[plan.cell_slots(thumb)][np.ix_(tr, tc)])
        pair_mean = int(d.sum()) / d.size

    image = plan.image_slots()
    post_mean = None
    post_max = None
    if image.size:
        # A text segment's cells fill its range.
        post = [
            np.arange(start, stop)
            for seg, start, stop in segment_ranges(plan)
            if seg.KIND == "text" and start > image.max()
        ]
        if post:
            # With the n image IDs x sorted and k of them below p, the sum of
            # |p - x| is p (2k - n) - 2 (sum of those k) + (sum of all n):
            # exact integers, and no post-text x image matrix.
            p, x = ids[np.concatenate(post)], np.sort(ids[image])
            below = np.searchsorted(x, p)
            prefix = np.concatenate(([0], np.cumsum(x)))
            total = int(np.sum(p * (2 * below - len(x)) - 2 * prefix[below] + prefix[-1]))
            post_mean = total / (len(p) * len(x))
            post_max = int(max(p.max() - x[0], x[-1] - p.min()))
    return ModeGeometry(
        pair_mean_distance=pair_mean,
        post_text_mean_image_distance=post_mean,
        post_text_max_image_distance=post_max,
        max_id=int(ids.max()) if len(ids) else 0,
    )


def alignment_gain_report(
    plan: LayoutPlan,
    separator_policy: str = "inherit-row-end",
    baseline: PositionIdMap | None = None,
    id_align: PositionIdMap | None = None,
) -> AlignmentGainReport:
    """Compare baseline and aligned ID geometry on one plan.

    The metrics are functions of the plan and the ID maps alone; no
    token population is involved.  ``baseline`` and ``id_align`` are the
    plan's maps under this policy when the caller already has them; a
    missing one is computed.
    """
    if baseline is None:
        baseline = assign_position_ids(plan, "baseline", separator_policy)
    if id_align is None:
        id_align = assign_position_ids(plan, "id_align", separator_policy)
    return AlignmentGainReport(
        baseline=_mode_geometry(plan, baseline),
        id_align=_mode_geometry(plan, id_align),
    )
