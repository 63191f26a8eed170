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

from .codec import Field, csv_text, json_chunks, read_value
from .layout import (
    GridShape,
    HighResGrid,
    LayoutPlan,
    Separator,
    ThumbnailGrid,
    allocating_slots,
)

__all__ = [
    "GridMapping",
    "PositionIdMap",
    "CorrespondencePair",
    "IdSpanReport",
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
        """The grid as CSV, one ``str`` per entry on purpose: it is the
        independent reference that the benchmark's output checks compare
        ``map.csv``, written by ``codec.int_lines``, against, so it must
        not share that kernel."""
        return csv_text(None, self.ids.tolist())


@dataclass(frozen=True, eq=False)
class PositionIdMap:
    """One position ID per sequence slot plus the final running counter.

    ``ids`` is stored as a read-only 1-D int64 array, whatever integer
    sequence or array was passed.  ``max_pid`` is where the next
    sequential token would go: one past the largest assigned ID.
    """

    ids: np.ndarray
    max_pid: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        ids = np.array(self.ids)  # a copy: the map owns its IDs
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(f"ids must be a 1-D sequence of integers, got {ids.dtype} {ids.shape}")
        ids = ids.astype(np.int64, copy=False)
        ids.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "max_pid", read_value(Field("max_pid", int), self.max_pid))
        if ids.size and ids.min() < 0:
            raise ValueError("position ids must be non-negative")
        expected = int(ids.max()) + 1 if ids.size else 0
        if self.max_pid != expected:
            raise ValueError(f"max_pid must be {expected}, got {self.max_pid}")

    def to_doc(self) -> dict:
        """The JSON document of the map, with ``ids`` as the array, for
        ``codec.json_chunks``."""
        return {"ids": self.ids, "max_pid": self.max_pid, "mode": self.mode}

    def to_json(self) -> str:
        return "".join(json_chunks(self.to_doc()))


@dataclass(frozen=True)
class CorrespondencePair:
    """A high-resolution cell and a thumbnail cell whose image regions
    overlap with positive area."""

    highres_cell: tuple[int, int]
    thumb_cell: tuple[int, int]


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


def _axis_partners(n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """(fine, coarse) index arrays of every overlapping cell pair along
    one axis cut into n1 fine and n0 coarse cells, fine-major.

    Fine cell j = [j/n1, (j+1)/n1) overlaps coarse cell t = [t/n0, (t+1)/n0)
    iff j*n0 < (t+1)*n1 and t*n1 < (j+1)*n0, that is iff t lies in
    [floor(j*n0/n1), ceil((j+1)*n0/n1)); exact in integers.
    """
    fine = np.arange(n1)
    lo = fine * n0 // n1
    counts = -(-(fine + 1) * n0 // n1) - lo
    starts = np.cumsum(counts) - counts
    fine = np.repeat(fine, counts)
    return fine, np.arange(len(fine)) + np.repeat(lo - starts, counts)


def correspondence_oracle(thumb: GridShape, high: GridShape) -> frozenset[CorrespondencePair]:
    """All (high cell, thumb cell) pairs with positive-area overlap.

    Both grids are uniform partitions of the same unit square; the
    per-axis interval test runs in exact integer arithmetic, and the
    pairs are its row pairs times its column pairs.
    """
    rows = list(zip(*(a.tolist() for a in _axis_partners(thumb.rows, high.rows))))
    cols = list(zip(*(a.tolist() for a in _axis_partners(thumb.cols, high.cols))))
    return frozenset(CorrespondencePair((r, c), (tr, tc)) for r, tr in rows for c, tc in cols)


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
    sequential IDs, per ``separator_policy``.  The map is one array per
    segment, concatenated.

    In aligned mode a high-resolution grid must be preceded by the
    thumbnail grid that defines its IDs; otherwise ValueError.  A plan
    too large to allocate is a ValueError naming its slot count.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if separator_policy not in SEPARATOR_POLICIES:
        raise ValueError(
            f"separator_policy must be one of {SEPARATOR_POLICIES}, got {separator_policy!r}"
        )
    with allocating_slots(plan):
        if mode == "baseline":
            n = plan.total_tokens
            return PositionIdMap(ids=np.arange(n), max_pid=n, mode=mode)
        pieces, counter = _aligned_pieces(plan, separator_policy == "sequential-after-image")
        return PositionIdMap(ids=np.concatenate(pieces) if pieces else (), max_pid=counter, mode=mode)


def _aligned_pieces(plan: LayoutPlan, sequential_separators: bool) -> tuple[list[np.ndarray], int]:
    """The aligned IDs of each segment, in order, and the final counter.
    ``counter`` is one past the largest ID so far; fresh IDs start there."""
    pieces: list[np.ndarray] = []
    counter = 0
    thumb_shape: GridShape | None = None
    thumb_base = 0
    for seg in plan.segments:
        if isinstance(seg, HighResGrid):
            if thumb_shape is None:
                raise ValueError(
                    "id_align mode requires a thumbnail grid before the high-resolution grid"
                )
            grid = map_highres_ids(thumb_shape, seg.shape, thumb_base).ids
            if seg.row_separator:
                # Rows are nondecreasing, so a row's largest ID is its last.
                last = grid[:, -1]
                if sequential_separators:
                    # Row r's separator is fresh: one past both the previous
                    # separator and row r's last ID.
                    r = np.arange(len(last))
                    last = r + np.maximum(counter, np.maximum.accumulate(last + 1 - r))
                grid = np.column_stack((grid, last))
            piece = grid.ravel()
        elif isinstance(seg, Separator) and not sequential_separators:
            # Inherit the last ID; with nothing before, all share one fresh ID.
            piece = np.full(seg.count, pieces[-1][-1] if pieces else counter)
        else:  # text, thumbnail or sequential separators: fresh IDs
            if isinstance(seg, ThumbnailGrid):
                thumb_base, thumb_shape = counter, seg.shape
            rows, cells, _tail = seg.runs()
            piece = np.arange(counter, counter + rows * cells)
        pieces.append(piece)
        counter = max(counter, int(piece.max()) + 1)
    return pieces, counter


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
    slots = plan.image_slots()

    def span(idmap: PositionIdMap) -> int:
        return int(np.ptp(idmap.ids[slots])) if slots.size else 0

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
