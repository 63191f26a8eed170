"""Position-ID assignment for layouts that encode an image twice.

Baseline assignment numbers every slot sequentially.  The aligned mode
instead gives each high-resolution token the ID of the thumbnail token
covering the same image region, so the ID span of the image stays at the
thumbnail's size no matter how many high-resolution tokens follow.  A
plan has an aligned map only when its thumbnail comes before its
high-res grid; ``_has_aligned_map`` is the one home of that rule, which
``assign_position_ids`` applies before any slot is allocated and the CLI
asks to learn which maps a plan has.  The aligned map is one int64
array, each segment written into its slot range, and
the thumbnail cell a high-res cell inherits is computed exactly in
integers (``_axis_targets``).  ``_axis_partners`` defines "same image
region" by an exact per-axis interval test in integers, independently of
that interpolation: the gain report averages |delta id| over its pairs,
and the tests check the interpolation against it and it against a
floating-point rectangle overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import Field, IntRange, csv_text, hold_array, read_fields, read_value
from .layout import (
    GridShape,
    HighResGrid,
    LayoutPlan,
    Separator,
    ThumbnailGrid,
    allocating_slots,
    segment_ranges,
)

__all__ = [
    "GridMapping",
    "PositionIdMap",
    "IdSpanReport",
    "map_highres_ids",
    "assign_position_ids",
    "id_span_report",
]

MODES = ("baseline", "id_align")
SEPARATOR_POLICIES = ("inherit-row-end", "sequential-after-image")
_ID = IntRange(0, 2**63 - 1)  # the kind of a position ID: any int64 but a negative one


@dataclass(frozen=True, eq=False)
class GridMapping:
    """Thumbnail ID inherited by each high-resolution cell.

    ``ids`` is read as a read-only int64 array of shape (shape.rows,
    shape.cols), as ``PositionIdMap.ids`` is, and is nondecreasing along
    every row and every column; all entries are at least ``base``.
    """

    shape: GridShape
    ids: np.ndarray
    base: int

    def __post_init__(self) -> None:
        read_fields(self, shape=GridShape, base=IntRange(0))
        object.__setattr__(self, "ids", hold_array(self.ids, "ids", (self.shape.rows, self.shape.cols), _ID))
        if np.any(self.ids < self.base):
            raise ValueError("all mapped ids must be at least base")
        if (self.ids[1:] < self.ids[:-1]).any() or (self.ids[:, 1:] < self.ids[:, :-1]).any():
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

    ``ids`` is a read-only 1-D int64 array, held by ``codec.hold_array``
    from an integer array or a sequence of integers (never a float or
    bool), each from 0 to 2**63 - 1: a caller's writable array is copied.
    ``max_pid``, derived from ``ids``, is where the next sequential token
    would go: one past the largest assigned ID, 0 for an empty map.
    """

    ids: np.ndarray
    max_pid: int = field(init=False)
    mode: str

    def __post_init__(self) -> None:
        read_fields(self, mode=MODES)
        object.__setattr__(self, "ids", hold_array(self.ids, "ids", (None,), _ID))
        object.__setattr__(self, "max_pid", int(self.ids.max()) + 1 if self.ids.size else 0)

    def to_doc(self) -> dict:
        """The JSON document of the map, with ``ids`` as the array, for
        ``codec.json_chunks``."""
        return {"ids": self.ids, "max_pid": self.max_pid, "mode": self.mode}


def _axis_targets(n0: int, n1: int) -> np.ndarray:
    """floor((2j + 1) n0 / (2 n1)) for each of n1 cells: the coarse cell
    holding fine cell j's center, the rule below computed exactly in int64.
    With n0 = q (2 n1) + r it is (2j + 1) q + (2j + 1) r // (2 n1), whose
    first term is below n0 and second product below 4 n1**2 (within int64
    while n1 < 1.5e9, past which the (n1,) array returned alone takes
    12 GB); the result lies in [0, n0 - 1], so nothing is clamped."""
    q, r = divmod(n0, 2 * n1)
    odd = np.arange(1, 2 * n1, 2, dtype=np.int64)
    return odd * q + odd * r // (2 * n1)


def map_highres_ids(thumb: GridShape, high: GridShape, base: int = 0) -> GridMapping:
    """Resize the thumbnail raster-ID grid to the high-res shape.

    Interpolation acts per axis on the raster coordinates (for a linear
    ramp, bilinear and nearest-neighbor agree, so one code path covers
    both): fine cell j of n1 takes coarse cell (j + 1/2) n0 / n1 - 1/2,
    rounded half away from zero and clamped into range, which is
    floor((2j + 1) n0 / (2 n1)), computed exactly in integers.  The
    half-pixel convention assigns each high-res cell the thumbnail cell
    containing its center, which always spatially overlaps it.  ``base``
    is read first, so that the largest ID fits in int64.
    """
    base = read_value(Field("base", IntRange(0, 2**63 - thumb.cells)), base)
    rows = _axis_targets(thumb.rows, high.rows)
    cols = _axis_targets(thumb.cols, high.cols)
    ids = base + rows[:, None] * thumb.cols + cols[None, :]
    ids.flags.writeable = False  # handed over: the grid is stored once
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
    sequential IDs, per ``separator_policy``.  The map is one int64
    array, each segment written into its slot range (``segment_ranges``).

    In aligned mode a high-resolution grid must be preceded by the
    thumbnail grid that defines its IDs (``_has_aligned_map``); otherwise
    ValueError, before any slot is allocated.  A plan too large to
    allocate is a ValueError naming its slot count.
    """
    mode = read_value(Field("mode", MODES), mode)
    separator_policy = read_value(Field("separator_policy", SEPARATOR_POLICIES), separator_policy)
    if mode == "id_align" and not _has_aligned_map(plan):
        raise ValueError("id_align mode requires a thumbnail grid before the high-resolution grid")
    with allocating_slots(plan):
        if mode == "baseline":
            return PositionIdMap(ids=np.arange(plan.total_tokens), mode=mode)
        return PositionIdMap(ids=_aligned_ids(plan, separator_policy == "sequential-after-image"), mode=mode)


def _has_aligned_map(plan: LayoutPlan) -> bool:
    """Whether the plan has an aligned map: ID-Align's one precondition,
    that a high-resolution grid inherits the IDs of a thumbnail before it.
    A plan with no high-res grid has one."""
    high = plan.highres()
    return high is None or plan.thumbnail() in plan.segments[: plan.segments.index(high)]


def _aligned_ids(plan: LayoutPlan, sequential_separators: bool) -> np.ndarray:
    """The aligned IDs of the plan as one array, each segment written into
    its ``[start, stop)`` slot range.  ``counter`` is one past the largest
    ID so far; fresh IDs start there.  The plan has an aligned map
    (``_has_aligned_map``), so its thumbnail is walked before its
    high-res grid and sets ``thumb_base`` and ``thumb_shape``."""
    ids = np.empty(plan.total_tokens, np.int64)
    counter = 0
    for seg, start, stop in segment_ranges(plan):
        out = ids[start:stop]
        if isinstance(seg, HighResGrid):
            rows, cells, tail = seg.runs()
            grid = out.reshape(rows, cells + tail)
            grid[:, :cells] = map_highres_ids(thumb_shape, seg.shape, thumb_base).ids
            if tail:
                # Rows are nondecreasing, so a row's largest ID is its last.
                last = grid[:, cells - 1]
                if sequential_separators:
                    # Row r's separator is fresh: one past both the previous
                    # separator and row r's last ID.
                    r = np.arange(rows)
                    last = r + np.maximum(counter, np.maximum.accumulate(last + 1 - r))
                grid[:, cells] = last
        elif isinstance(seg, Separator) and not sequential_separators:
            # Inherit the last ID; with nothing before, all share one fresh ID.
            out[:] = ids[start - 1] if start else counter
        else:  # text, thumbnail or sequential separators: fresh IDs
            if isinstance(seg, ThumbnailGrid):
                thumb_base, thumb_shape = counter, seg.shape
            out[:] = np.arange(counter, counter + stop - start)
        counter = max(counter, int(out.max()) + 1)
    return ids


@dataclass(frozen=True)
class IdSpanReport:
    """Image-token ID span (max minus min) under each assignment mode.

    ``ratio`` is baseline over aligned: 1.0 when both spans are 0, and
    None, undefined, when only the aligned span is 0."""

    baseline_span: int
    id_align_span: int
    ratio: float | None


def _map_pair(plan: LayoutPlan, separator_policy: str, baseline, id_align) -> list[PositionIdMap]:
    """The plan's baseline and aligned maps under ``separator_policy``: each
    the one given, which must be of its mode with one ID per plan slot, or
    else computed.  That a given aligned map was built under this policy is
    the caller's contract: checking it would cost computing the map."""
    plan = read_value(Field("plan", LayoutPlan), plan)
    separator_policy = read_value(Field("separator_policy", SEPARATOR_POLICIES), separator_policy)
    n = plan.total_tokens
    pair = [baseline, id_align]
    for i, (mode, idmap) in enumerate(zip(MODES, pair)):
        if idmap is None:
            pair[i] = assign_position_ids(plan, mode, separator_policy)
        elif not (isinstance(idmap, PositionIdMap) and idmap.mode == mode and len(idmap.ids) == n):
            raise ValueError(f"{mode} must be a {mode} map of the plan's {n} slots")
    return pair


def id_span_report(
    plan: LayoutPlan,
    separator_policy: str = "inherit-row-end",
    baseline: PositionIdMap | None = None,
    id_align: PositionIdMap | None = None,
) -> IdSpanReport:
    """Span comparison over image tokens (thumbnail and high-res cells,
    separators excluded).

    ``baseline`` and ``id_align`` are the plan's maps under this policy
    when the caller has them; ``_map_pair`` checks them or computes them.
    A given map's separator policy is the caller's contract: it is not
    checked.
    """
    baseline, id_align = _map_pair(plan, separator_policy, baseline, id_align)
    slots = plan.image_slots()

    def span(idmap: PositionIdMap) -> int:
        return int(np.ptp(idmap.ids[slots])) if slots.size else 0

    b = span(baseline)
    a = span(id_align)
    if a == 0:
        ratio = 1.0 if b == 0 else None
    else:
        ratio = b / a
    return IdSpanReport(baseline_span=b, id_align_span=a, ratio=ratio)
