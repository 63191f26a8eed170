"""Desk-scale attention demonstrations over synthetic token populations.

Real-model activations are out of scope; the point is to make the
geometric consequences of an ID assignment visible: relative-distance
matrices, rotary-modulated score matrices, a role-by-distance summary of
the scores, and a small report comparing baseline and aligned
assignments on the same plan.

Scores are computed in blocks of ``_BLOCK_ROWS`` query rows by one
private helper.  ``attention_scores`` stacks the blocks into the dense
matrix; ``attention_summary`` folds each block into per-group counts,
sums and maxima and drops it, so its memory is O(block * slots) and its
bytes depend neither on the thread count nor on the BLAS library.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .codec import csv_lines, csv_text, json_text
from .idalign import PositionIdMap, assign_position_ids, correspondence_oracle
from .layout import IMAGE_ROLES, LayoutPlan
from .rope import RopeConfig, apply_rope_many

# Query rows per score block.  Fixed (never tunable): a block's rows are
# bitwise the rows of the full product, so the size moves only memory
# and speed, and a fixed size keeps the summary's summation order fixed.
_BLOCK_ROWS = 64

__all__ = [
    "TokenPopulation",
    "ScoreMatrix",
    "ScoreSummary",
    "ModeGeometry",
    "AlignmentGainReport",
    "population_constant",
    "population_gaussian",
    "relative_distance_matrix",
    "attention_scores",
    "attention_summary",
    "alignment_gain_report",
    "matrix_csv",
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


def relative_distance_matrix(idmap: PositionIdMap) -> np.ndarray:
    """|id_i - id_j| for every slot pair."""
    ids = np.asarray(idmap.ids, dtype=np.int64)
    return np.abs(ids[:, None] - ids[None, :])


def matrix_csv_lines(values: np.ndarray, roles: tuple[str, ...]) -> Iterator[str]:
    """The lines of ``matrix_csv``, so a large matrix can be written
    without holding its text."""
    if values.ndim != 2 or values.shape[1] != len(roles):
        raise ValueError("matrix columns must match the role list")
    return csv_lines(roles, (row.tolist() for row in values))


def matrix_csv(values: np.ndarray, roles: tuple[str, ...]) -> str:
    """Dense row-major CSV of an integer or float matrix: a header line of
    slot roles, then one line per matrix row."""
    return "".join(matrix_csv_lines(values, roles))


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Pairwise rotary-modulated scores; rows are queries, columns keys."""

    values: np.ndarray
    roles: tuple[str, ...]
    normalized: bool

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("score matrix must be square")
        if self.values.shape[1] != len(self.roles):
            raise ValueError("one role per slot required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite")

    def to_csv(self) -> str:
        return matrix_csv(self.values, self.roles)


def _rotated(pop: TokenPopulation, idmap: PositionIdMap, config: RopeConfig) -> np.ndarray:
    if pop.vectors.shape[0] != len(idmap.ids):
        raise ValueError("population size must match the id map")
    if pop.vectors.shape[1] != config.dim:
        raise ValueError(f"population dim {pop.vectors.shape[1]} != config dim {config.dim}")
    return apply_rope_many(pop.vectors, np.asarray(idmap.ids, dtype=np.float64), config)


def _score_rows(rotated: np.ndarray, lo: int, hi: int, normalize: bool, scale: bool) -> np.ndarray:
    """Score rows ``[lo, hi)``: the one score formula of the module."""
    # einsum, not BLAS: a threaded matmul changes the low bits with the
    # BLAS thread count, and the scores must not.
    values = np.einsum("ik,jk->ij", rotated[lo:hi], rotated)
    if scale:
        values = values / np.sqrt(rotated.shape[1])
    if normalize:
        values = values - values.max(axis=1, keepdims=True)
        np.exp(values, out=values)
        values = values / values.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    return values


def attention_scores(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
) -> ScoreMatrix:
    """score(i, j) = rotated(v_i, id_i) . rotated(v_j, id_j), optionally
    divided by sqrt(dim) and row-softmaxed.

    Depends on the IDs only through differences id_i - id_j, which is the
    rotary shift-invariance property the harness exists to exhibit.
    """
    rotated = _rotated(pop, idmap, config)
    n = len(rotated)
    values = np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        values[lo:hi] = _score_rows(rotated, lo, hi, normalize, scale)
    return ScoreMatrix(values=values, roles=pop.roles, normalized=normalize)


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


def attention_summary(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
) -> ScoreSummary:
    """The scores of ``attention_scores`` grouped as ``ScoreSummary``
    describes, without holding the dense matrix.

    Each block is folded into one table per (role pair, exact distance):
    counts and score sums by ``bincount``, score maxima by
    ``maximum.at``, merged in block order.  Distance buckets are then
    reduced from that table, so the distance columns are exact.  The
    table spans distances up to the map's ID span, max(id) - min(id),
    which for the maps ``assign_position_ids`` builds is below the slot
    count.
    """
    rotated = _rotated(pop, idmap, config)
    ids = np.asarray(idmap.ids, dtype=np.int64)
    names, codes = np.unique(np.asarray(pop.roles, dtype=str), return_inverse=True)
    names = names.tolist()
    n_roles = len(names)
    width = int(ids.max() - ids.min()) + 1 if len(ids) else 1
    size = n_roles * n_roles * width
    counts = np.zeros(size, dtype=np.int64)
    sums = np.zeros(size)
    maxima = np.full(size, -np.inf)
    query_base = codes * (n_roles * width)
    key_base = codes * width
    for lo in range(0, len(ids), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(ids))
        scores = _score_rows(rotated, lo, hi, normalize, scale).ravel()
        dist = np.abs(ids[lo:hi, None] - ids[None, :])
        group = (dist + query_base[lo:hi, None] + key_base[None, :]).ravel()
        counts += np.bincount(group, minlength=size)
        sums += np.bincount(group, weights=scores, minlength=size)
        np.maximum.at(maxima, group, scores)

    # Bucket b >= 1 holds distances [2**(b-1), 2**b); frexp's exponent of
    # d is exactly that b, and 0 for d = 0.
    distance = np.arange(width)
    starts = np.flatnonzero(np.diff(np.frexp(distance)[1], prepend=-1))
    shape = (n_roles * n_roles, width)
    counts, sums, maxima = counts.reshape(shape), sums.reshape(shape), maxima.reshape(shape)
    count = np.add.reduceat(counts, starts, axis=1).tolist()
    dist_sum = np.add.reduceat(counts * distance, starts, axis=1).tolist()
    dist_max = np.maximum.reduceat(np.where(counts > 0, distance, -1), starts, axis=1).tolist()
    score_sum = np.add.reduceat(sums, starts, axis=1).tolist()
    score_max = np.maximum.reduceat(maxima, starts, axis=1).tolist()
    rows = []
    for pair in range(n_roles * n_roles):
        query, key = divmod(pair, n_roles)
        for b, lower in enumerate(starts.tolist()):
            c = count[pair][b]
            if c:
                rows.append((
                    names[query], names[key], lower, c,
                    dist_sum[pair][b] / c, dist_max[pair][b],
                    score_sum[pair][b] / c, score_max[pair][b],
                ))  # fmt: skip
    return ScoreSummary(rows=tuple(rows))


@dataclass(frozen=True)
class ModeGeometry:
    """ID-geometry summary for one assignment mode.

    ``pair_mean_distance`` averages |id(high) - id(thumb)| over every
    spatially corresponding cell pair; None when the plan has no
    high-resolution grid.  The post-text fields measure distances from
    tokens of the first text segment after the image to all image
    tokens; None when there is no such text.
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
    ids = np.asarray(idmap.ids, dtype=np.int64)
    thumb, high = plan.thumbnail(), plan.highres()
    pair_mean = None
    if thumb is not None and high is not None:
        thumb_start, high_start = plan.first_slot(thumb), plan.first_slot(high)
        _rows, cols, tail = high.runs()
        dists = []
        for pair in correspondence_oracle(thumb.shape, high.shape):
            r, c = pair.highres_cell
            tr, tc = pair.thumb_cell
            hid = ids[high_start + r * (cols + tail) + c]
            tid = ids[thumb_start + tr * thumb.shape.cols + tc]
            dists.append(abs(int(hid) - int(tid)))
        pair_mean = float(np.mean(dists))

    image_slots = [i for a, b in plan.cell_runs(IMAGE_ROLES) for i in range(a, b)]
    post_mean = None
    post_max = None
    if image_slots:
        text_runs = [(a, b) for a, b in plan.cell_runs(("text",)) if a > image_slots[-1]]
        post_text = [i for a, b in text_runs for i in range(a, b)]
        if post_text:
            d = np.abs(ids[post_text][:, None] - ids[image_slots][None, :])
            post_mean = float(np.mean(d))
            post_max = int(np.max(d))
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
