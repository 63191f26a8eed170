"""Position-ID assignment for layouts that encode an image twice.

Baseline assignment numbers every slot sequentially.  The aligned mode
instead gives each high-resolution token the ID of the thumbnail token
covering the same image region, so the ID span of the image stays at the
thumbnail's size no matter how many high-resolution tokens follow.  A
brute-force rectangle-intersection oracle defines "same image region"
independently of the interpolation arithmetic, so the two can be checked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import csv_text, json_text
from .layout import (
    GridShape,
    HighResGrid,
    LayoutPlan,
    Separator,
    TextSegment,
    ThumbnailGrid,
)

__all__ = [
    "GridMapping",
    "PositionIdMap",
    "CorrespondencePair",
    "IdSpanReport",
    "thumbnail_id_grid",
    "map_highres_ids",
    "correspondence_oracle",
    "assign_position_ids",
    "id_span_report",
]

MODES = ("baseline", "id_align")
SEPARATOR_POLICIES = ("inherit-row-end", "sequential-after-image")


@dataclass(frozen=True, eq=False)
class GridMapping:
    """Thumbnail ID inherited by each high-resolution cell.

    ``ids`` has shape (shape.rows, shape.cols) and is nondecreasing along
    every row and every column; all entries are at least ``base``.
    """

    shape: GridShape
    ids: np.ndarray
    base: int

    def __post_init__(self) -> None:
        if self.ids.shape != (self.shape.rows, self.shape.cols):
            raise ValueError("ids matrix does not match the declared shape")
        if self.base < 0:
            raise ValueError("base must be non-negative")
        if np.any(self.ids < self.base):
            raise ValueError("all mapped ids must be at least base")
        if np.any(np.diff(self.ids, axis=0) < 0) or np.any(np.diff(self.ids, axis=1) < 0):
            raise ValueError("mapped ids must be nondecreasing along rows and columns")

    def to_csv(self) -> str:
        return csv_text(None, self.ids.tolist())


@dataclass(frozen=True)
class PositionIdMap:
    """One position ID per sequence slot plus the final running counter.

    ``max_pid`` is where the next sequential token would go: one past the
    largest assigned ID.
    """

    ids: tuple[int, ...]
    max_pid: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.ids and min(self.ids) < 0:
            raise ValueError("position ids must be non-negative")
        expected = max(self.ids) + 1 if self.ids else 0
        if self.max_pid != expected:
            raise ValueError(f"max_pid must be {expected}, got {self.max_pid}")

    def to_doc(self) -> dict:
        """The JSON document of the map (``asdict`` is much slower on long maps)."""
        return {"ids": list(self.ids), "max_pid": self.max_pid, "mode": self.mode}

    def to_json(self) -> str:
        return json_text(self.to_doc())


@dataclass(frozen=True)
class CorrespondencePair:
    """A high-resolution cell and a thumbnail cell whose image regions
    overlap with positive area."""

    highres_cell: tuple[int, int]
    thumb_cell: tuple[int, int]


def thumbnail_id_grid(shape: GridShape, base: int = 0) -> np.ndarray:
    """Raster-order IDs base .. base + cells - 1 as a (rows, cols) matrix."""
    if base < 0:
        raise ValueError("base must be non-negative")
    return base + np.arange(shape.cells, dtype=np.int64).reshape(shape.rows, shape.cols)


def _axis_targets(n0: int, n1: int) -> np.ndarray:
    src = (np.arange(n1, dtype=np.float64) + 0.5) * (n0 / n1) - 0.5
    rounded = np.sign(src) * np.floor(np.abs(src) + 0.5)
    return np.clip(rounded.astype(np.int64), 0, n0 - 1)


def map_highres_ids(thumb: GridShape, high: GridShape, base: int = 0) -> GridMapping:
    """Resize the thumbnail raster-ID grid to the high-res shape.

    Interpolation acts per axis on the raster coordinates (for a linear
    ramp, bilinear and nearest-neighbor agree, so one code path covers
    both), rounding half away from zero and clamping into range.  The
    half-pixel convention assigns each high-res cell the thumbnail cell
    containing its center, which always spatially overlaps it.
    """
    rows = _axis_targets(thumb.rows, high.rows)
    cols = _axis_targets(thumb.cols, high.cols)
    ids = base + rows[:, None] * thumb.cols + cols[None, :]
    return GridMapping(shape=high, ids=ids, base=base)


def _axis_partners(n0: int, n1: int) -> list[list[int]]:
    # Fine cell j = [j/n1, (j+1)/n1) overlaps coarse cell t = [t/n0, (t+1)/n0)
    # iff j*n0 < (t+1)*n1 and t*n1 < (j+1)*n0; exact in integers.
    out: list[list[int]] = []
    for j in range(n1):
        out.append([t for t in range(n0) if j * n0 < (t + 1) * n1 and t * n1 < (j + 1) * n0])
    return out


def correspondence_oracle(thumb: GridShape, high: GridShape) -> frozenset[CorrespondencePair]:
    """All (high cell, thumb cell) pairs with positive-area overlap.

    Both grids are uniform partitions of the same unit square; the
    per-axis interval test runs in exact integer arithmetic.
    """
    row_p = _axis_partners(thumb.rows, high.rows)
    col_p = _axis_partners(thumb.cols, high.cols)
    pairs = set()
    for r in range(high.rows):
        for c in range(high.cols):
            for tr in row_p[r]:
                for tc in col_p[c]:
                    pairs.add(CorrespondencePair((r, c), (tr, tc)))
    return frozenset(pairs)


def assign_position_ids(
    plan: LayoutPlan, mode: str, separator_policy: str = "inherit-row-end"
) -> PositionIdMap:
    """Assign one position ID per slot of the plan.

    Baseline mode numbers slots 0..N-1.  Aligned mode keeps text and
    thumbnail tokens sequential, gives high-resolution tokens their
    mapped thumbnail IDs, and resumes any following text at the running
    counter, which advances past every assigned ID but never skips ahead
    for inherited ones.  Separators inside the high-res grid either
    repeat the ID of the last token of their row (default) or take fresh
    sequential IDs, per ``separator_policy``.

    In aligned mode a high-resolution grid must be preceded by the
    thumbnail grid that defines its IDs; otherwise ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if separator_policy not in SEPARATOR_POLICIES:
        raise ValueError(
            f"separator_policy must be one of {SEPARATOR_POLICIES}, got {separator_policy!r}"
        )
    if mode == "baseline":
        n = plan.total_tokens
        return PositionIdMap(ids=tuple(range(n)), max_pid=n, mode=mode)

    ids: list[int] = []
    counter = 0
    thumb_shape: GridShape | None = None
    thumb_base = 0
    sequential_separators = separator_policy == "sequential-after-image"

    def emit_separators(count: int) -> None:
        nonlocal counter
        if sequential_separators:
            ids.extend(range(counter, counter + count))
            counter += count
        elif ids:
            ids.extend([ids[-1]] * count)
        else:
            # Nothing to inherit yet: all of them share one fresh ID.
            ids.extend([counter] * count)
            counter += 1

    for seg in plan.segments:
        if isinstance(seg, TextSegment):
            ids.extend(range(counter, counter + seg.length))
            counter += seg.length
        elif isinstance(seg, ThumbnailGrid):
            thumb_base, thumb_shape = counter, seg.shape
            ids.extend(range(counter, counter + seg.shape.cells))
            counter += seg.shape.cells
        elif isinstance(seg, HighResGrid):
            if thumb_shape is None:
                raise ValueError(
                    "id_align mode requires a thumbnail grid before the high-resolution grid"
                )
            mapping = map_highres_ids(thumb_shape, seg.shape, thumb_base)
            # Rows are nondecreasing, so a row's largest ID is its last.
            for row in mapping.ids.tolist():
                ids.extend(row)
                counter = max(counter, row[-1] + 1)
                if seg.row_separator:
                    emit_separators(1)
        elif isinstance(seg, Separator):
            emit_separators(seg.count)
        else:
            raise TypeError(f"unknown segment type {type(seg).__name__}")
    return PositionIdMap(ids=tuple(ids), max_pid=counter, mode=mode)


@dataclass(frozen=True)
class IdSpanReport:
    """Image-token ID span (max minus min) under each assignment mode."""

    baseline_span: int
    id_align_span: int
    ratio: float


def id_span_report(
    plan: LayoutPlan,
    separator_policy: str = "inherit-row-end",
    baseline: PositionIdMap | None = None,
    id_align: PositionIdMap | None = None,
) -> IdSpanReport:
    """Span comparison over image tokens (thumbnail and high-res cells,
    separators excluded).

    ``baseline`` and ``id_align`` are the plan's maps under this policy
    when the caller already has them; a missing one is computed.
    """
    slots = [plan.cell_slots(s).ravel() for s in (plan.thumbnail(), plan.highres()) if s is not None]
    slots = np.concatenate(slots) if slots else None

    def span(idmap: PositionIdMap) -> int:
        return 0 if slots is None else int(np.ptp(np.asarray(idmap.ids)[slots]))

    if baseline is None:
        baseline = assign_position_ids(plan, "baseline", separator_policy)
    if id_align is None:
        id_align = assign_position_ids(plan, "id_align", separator_policy)
    b = span(baseline)
    a = span(id_align)
    if a == 0:
        ratio = 1.0 if b == 0 else float("inf")
    else:
        ratio = b / a
    return IdSpanReport(baseline_span=b, id_align_span=a, ratio=ratio)
