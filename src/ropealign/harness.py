"""Desk-scale attention demonstrations over synthetic token populations.

Real-model activations are out of scope; the point is to make the
geometric consequences of an ID assignment visible: relative-distance
matrices, rotary-modulated score matrices, and a small report comparing
baseline and aligned assignments on the same plan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .codec import csv_text, json_text
from .idalign import PositionIdMap, assign_position_ids, correspondence_oracle
from .layout import HighResGrid, LayoutPlan, ThumbnailGrid, segment_ranges
from .rope import RopeConfig, apply_rope_many

__all__ = [
    "TokenPopulation",
    "ScoreMatrix",
    "ModeGeometry",
    "AlignmentGainReport",
    "population_constant",
    "population_gaussian",
    "relative_distance_matrix",
    "attention_scores",
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


def matrix_csv(values: np.ndarray, roles: tuple[str, ...]) -> str:
    """Dense row-major CSV of an integer or float matrix: a header line of
    slot roles, then one line per matrix row."""
    if values.ndim != 2 or values.shape[1] != len(roles):
        raise ValueError("matrix columns must match the role list")
    return csv_text(roles, (row.tolist() for row in values))


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
    if pop.vectors.shape[0] != len(idmap.ids):
        raise ValueError("population size must match the id map")
    if pop.vectors.shape[1] != config.dim:
        raise ValueError(f"population dim {pop.vectors.shape[1]} != config dim {config.dim}")
    rotated = apply_rope_many(pop.vectors, np.asarray(idmap.ids, dtype=np.float64), config)
    # einsum, not BLAS: a threaded matmul changes the low bits with the
    # BLAS thread count, and the score CSVs must not.
    values = np.einsum("ik,jk->ij", rotated, rotated)
    if scale:
        values = values / np.sqrt(config.dim)
    if normalize:
        values = values - values.max(axis=1, keepdims=True)
        np.exp(values, out=values)
        values = values / values.sum(axis=1, keepdims=True)
    return ScoreMatrix(values=values, roles=pop.roles, normalized=normalize)


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
    roles = plan.slot_roles()
    thumb_start = high_start = None
    thumb_seg = high_seg = None
    for seg, start, _stop in segment_ranges(plan):
        if isinstance(seg, ThumbnailGrid):
            thumb_seg, thumb_start = seg, start
        elif isinstance(seg, HighResGrid):
            high_seg, high_start = seg, start

    pair_mean = None
    if thumb_seg is not None and high_seg is not None:
        row_stride = high_seg.shape.cols + (1 if high_seg.row_separator else 0)
        dists = []
        for pair in correspondence_oracle(thumb_seg.shape, high_seg.shape):
            r, c = pair.highres_cell
            tr, tc = pair.thumb_cell
            hid = ids[high_start + r * row_stride + c]
            tid = ids[thumb_start + tr * thumb_seg.shape.cols + tc]
            dists.append(abs(int(hid) - int(tid)))
        pair_mean = float(np.mean(dists))

    image_slots = [i for i, r in enumerate(roles) if r in ("thumb", "highres")]
    post_mean = None
    post_max = None
    if image_slots:
        last_image = max(image_slots)
        post_text = [i for i, r in enumerate(roles) if r == "text" and i > last_image]
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
