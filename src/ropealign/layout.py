"""Token-sequence geometry for tiled high-resolution image encoding.

An input image is encoded twice: once scaled to the vision tower's base
resolution (the thumbnail) and once at a selected higher resolution,
padded to fit, with padded feature rows and columns dropped afterwards.
This module does the arithmetic only: resolution selection, padded
placement, unpadded grid shapes, and the resulting ordered token layout.
No pixels are touched.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from itertools import accumulate
from typing import ClassVar, get_args

import numpy as np

from .codec import Field, json_text, read_json, read_object, read_value

__all__ = [
    "Resolution",
    "PaddedPlacement",
    "GridShape",
    "TextSegment",
    "ThumbnailGrid",
    "HighResGrid",
    "Separator",
    "LayoutPlan",
    "TokenCounts",
    "select_resolution",
    "fit_with_padding",
    "unpad_grid",
    "build_layout",
    "token_counts",
    "segment_ranges",
]


def _read_fields(obj, **kinds) -> None:
    """Store each named field of the frozen dataclass ``obj`` as read by
    ``codec.read_value`` with its kind: an int through ``operator.index``
    (a numpy integer becomes a Python int; a bool or 2.5 is a ValueError
    naming the field), a bool only as a bool."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, read_value(Field(name, kind), getattr(obj, name)))


@dataclass(frozen=True)
class Resolution:
    """Pixel dimensions, height first."""

    height: int
    width: int

    def __post_init__(self) -> None:
        _read_fields(self, height=int, width=int)
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"resolution must be positive, got {self.height}x{self.width}")

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class PaddedPlacement:
    """An aspect-preserving resize centered inside a target canvas.

    ``scaled`` is the content region; everything else is blank padding.
    """

    target: Resolution
    scaled: Resolution
    offset_top: int
    offset_left: int

    def __post_init__(self) -> None:
        if self.offset_top < 0 or self.offset_left < 0:
            raise ValueError("offsets must be non-negative")
        if (
            self.offset_top + self.scaled.height > self.target.height
            or self.offset_left + self.scaled.width > self.target.width
        ):
            raise ValueError("scaled region must fit inside the target")


@dataclass(frozen=True)
class GridShape:
    """Feature-token grid dimensions."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        _read_fields(self, rows=int, cols=int)
        for name, value in (("rows", self.rows), ("cols", self.cols)):
            if value <= 0:
                raise ValueError(f"grid {name} must be positive, got {value}")

    @property
    def cells(self) -> int:
        return self.rows * self.cols


# The segment table.  Each segment kind declares, once: KIND, its JSON
# "kind" and the role of its cells; FIELDS, its other JSON fields, which
# ``values()`` gives and ``of(*values)`` builds from; ``runs()``, its
# slots as (rows, cells per row, separators after each row); and
# ONE_PER_PLAN, a name when a plan may hold at most one of it.  All a
# plan knows of its segments derives from these.


class _SegmentKind:
    KIND: ClassVar[str]
    FIELDS: ClassVar[tuple[Field, ...]]
    ONE_PER_PLAN: ClassVar[str | None] = None

    @classmethod
    def of(cls, *values):
        return cls(*values)

    def values(self) -> tuple:
        return astuple(self)


@dataclass(frozen=True)
class TextSegment(_SegmentKind):
    length: int

    KIND = "text"
    FIELDS = (Field("len", int),)

    def __post_init__(self) -> None:
        _read_fields(self, length=int)
        if self.length <= 0:
            raise ValueError("text segment length must be positive")

    def runs(self) -> tuple[int, int, int]:
        return 1, self.length, 0


@dataclass(frozen=True)
class ThumbnailGrid(_SegmentKind):
    shape: GridShape

    KIND = "thumb"
    FIELDS = (Field("rows", int), Field("cols", int))
    ONE_PER_PLAN = "thumbnail grid"

    @classmethod
    def of(cls, rows: int, cols: int) -> ThumbnailGrid:
        return cls(GridShape(rows, cols))

    def values(self) -> tuple:
        return self.shape.rows, self.shape.cols

    def runs(self) -> tuple[int, int, int]:
        return self.shape.rows, self.shape.cols, 0


@dataclass(frozen=True)
class HighResGrid(_SegmentKind):
    """High-resolution feature grid, optionally with one separator token
    appended after each row (the new-line convention)."""

    shape: GridShape
    row_separator: bool = True

    KIND = "highres"
    FIELDS = (Field("rows", int), Field("cols", int), Field("row_separator", bool, True))
    ONE_PER_PLAN = "high-resolution grid"

    def __post_init__(self) -> None:
        _read_fields(self, row_separator=bool)

    @classmethod
    def of(cls, rows: int, cols: int, row_separator: bool) -> HighResGrid:
        return cls(GridShape(rows, cols), row_separator)

    def values(self) -> tuple:
        return self.shape.rows, self.shape.cols, self.row_separator

    def runs(self) -> tuple[int, int, int]:
        return self.shape.rows, self.shape.cols, int(self.row_separator)


@dataclass(frozen=True)
class Separator(_SegmentKind):
    count: int = 1

    KIND = "separator"
    FIELDS = (Field("count", int, 1),)

    def __post_init__(self) -> None:
        _read_fields(self, count=int)
        if self.count <= 0:
            raise ValueError("separator count must be positive")

    def runs(self) -> tuple[int, int, int]:
        return 1, self.count, 0


Segment = TextSegment | ThumbnailGrid | HighResGrid | Separator
SEGMENT_KINDS = {cls.KIND: cls for cls in get_args(Segment)}
IMAGE_ROLES = ("thumb", "highres")
_KIND_FIELD = Field("kind", tuple(SEGMENT_KINDS))
_PLAN_FIELDS = (Field("segments", list), Field("patch_size", int))


def _read_segment(raw, where: str) -> Segment:
    # A missing or unknown kind is reported as such, before any other key.
    fields = (_KIND_FIELD,)
    if isinstance(raw, dict) and raw.get("kind") in _KIND_FIELD.kind:
        fields += SEGMENT_KINDS[raw["kind"]].FIELDS
    kind, *values = read_object(raw, fields, where)
    try:
        return SEGMENT_KINDS[kind].of(*values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class LayoutPlan:
    """Ordered token segments plus the patch size that produced the grids.

    A plan describes one image (at most one thumbnail grid and one
    high-resolution grid) embedded in surrounding text.
    """

    segments: tuple[Segment, ...]
    patch_size: int

    def __post_init__(self) -> None:
        _read_fields(self, patch_size=int)
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            if not isinstance(seg, _SegmentKind):
                raise ValueError(f"segments must be layout segments, got {seg!r}")
        for cls in SEGMENT_KINDS.values():
            if cls.ONE_PER_PLAN and sum(type(s) is cls for s in self.segments) > 1:
                raise ValueError(f"at most one {cls.ONE_PER_PLAN} per plan")

    @property
    def total_tokens(self) -> int:
        return sum(stop - start for _seg, start, stop in segment_ranges(self))

    def slot_roles(self) -> tuple[str, ...]:
        """The role of each slot; a plan too large to allocate is a
        ValueError naming its slot count."""
        roles: list[str] = []
        with allocating_slots(self):
            for seg in self.segments:
                rows, cells, tail = seg.runs()
                roles.extend(([seg.KIND] * cells + [Separator.KIND] * tail) * rows)
        return tuple(roles)

    def thumbnail(self) -> ThumbnailGrid | None:
        return next((s for s in self.segments if type(s) is ThumbnailGrid), None)

    def highres(self) -> HighResGrid | None:
        return next((s for s in self.segments if type(s) is HighResGrid), None)

    def to_json(self) -> str:
        out = [
            {"kind": seg.KIND} | {f.name: v for f, v in zip(seg.FIELDS, seg.values())}
            for seg in self.segments
        ]
        return json_text({"segments": out, "patch_size": self.patch_size})

    @classmethod
    def from_json(cls, text: str) -> "LayoutPlan":
        """Parse a plan; malformed or too deeply nested JSON is a
        ValueError, as is every error of ``from_doc``."""
        return cls.from_doc(read_json(text, "plan"))

    @classmethod
    def from_doc(cls, doc) -> "LayoutPlan":
        """The plan of a parsed JSON document.  Every field is read by
        ``codec.read_object``: present unless it has a default, typed,
        never truncated or coerced, and no unknown keys; an error is a
        ValueError naming the segment index and the field."""
        raw_segments, patch_size = read_object(doc, _PLAN_FIELDS, "plan")
        segments = (_read_segment(raw, f"plan segment {i}") for i, raw in enumerate(raw_segments))
        return cls(segments=tuple(segments), patch_size=patch_size)

    def cell_slots(self, seg: Segment) -> np.ndarray:
        """The slots of ``seg``'s cells as a (rows, cells per row) array;
        separators are skipped, so a grid's array is in raster order.
        ``seg`` is one of this plan's segment objects, not an equal one."""
        start = next((start for s, start, _stop in segment_ranges(self) if s is seg), None)
        if start is None:
            raise ValueError("segment is not in this plan")
        rows, cells, tail = seg.runs()
        return start + (cells + tail) * np.arange(rows)[:, None] + np.arange(cells)

    def image_slots(self) -> np.ndarray:
        """The slots of the thumbnail's cells, then of the high-res grid's,
        as one 1-D array; empty when the plan has neither grid."""
        grids = [seg for seg in (self.thumbnail(), self.highres()) if seg is not None]
        return np.concatenate([np.zeros(0, np.int64)] + [self.cell_slots(seg).ravel() for seg in grids])


@contextmanager
def allocating_slots(plan: LayoutPlan):
    """A block that builds arrays of one 8-byte entry per slot of
    ``plan``: a plan too large for that is a ValueError naming its slot
    count, whether the allocation fails or the size is past the address
    space (where numpy may return an empty array instead of failing)."""
    n = plan.total_tokens
    error = ValueError(f"a plan of {n} slots cannot be allocated")
    if n > sys.maxsize // 8:
        raise error
    try:
        yield
    except MemoryError:
        raise error from None


def segment_ranges(plan: LayoutPlan) -> tuple[tuple[Segment, int, int], ...]:
    """(segment, first slot, one past last slot) for each segment in order.

    Row separators inside a high-resolution grid count toward that
    segment's range.
    """
    runs = [seg.runs() for seg in plan.segments]
    stops = list(accumulate(rows * (cells + tail) for rows, cells, tail in runs))
    return tuple(zip(plan.segments, [0, *stops], stops))


@dataclass(frozen=True)
class TokenCounts:
    """Per-kind slot totals for one plan.

    ``image_tokens`` counts thumbnail plus high-resolution cells and
    excludes separators.  ``id_span_baseline`` is the number of distinct
    sequential IDs the plan occupies, which equals ``total``.
    """

    total: int
    text_tokens: int
    image_tokens: int
    separator_tokens: int
    id_span_baseline: int


def token_counts(plan: LayoutPlan) -> TokenCounts:
    total = plan.total_tokens
    # A segment's cells: rows times cells per row, separators excluded.
    text = sum(math.prod(s.runs()[:2]) for s in plan.segments if s.KIND == "text")
    image = sum(math.prod(s.runs()[:2]) for s in plan.segments if s.KIND in IMAGE_ROLES)
    return TokenCounts(
        total=total,
        text_tokens=text,
        image_tokens=image,
        separator_tokens=total - text - image,
        id_span_baseline=total,
    )


def _scaled_size(input: Resolution, target: Resolution) -> tuple[int, int]:
    # Truncating here (not rounding) mirrors the usual anyres scoring code.
    scale = min(target.height / input.height, target.width / input.width)
    return int(input.height * scale), int(input.width * scale)


def select_resolution(
    input: Resolution,
    candidates: list[Resolution] | tuple[Resolution, ...],
    cap_effective_at_input: bool = False,
) -> Resolution:
    """Pick the candidate whose scale-to-fit content area is largest.

    Score = area of the input scaled (preserving aspect) to fit the
    candidate.  Ties break by least wasted candidate area, then by list
    order.  With ``cap_effective_at_input`` the score saturates at the
    input's own pixel count, which stops upscaling beyond native size
    from counting as gain.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate list must be non-empty")
    best = cands[0]
    best_effective = -1
    best_wasted = 0
    for cand in cands:
        h, w = _scaled_size(input, cand)
        effective = h * w
        if cap_effective_at_input:
            effective = min(effective, input.area)
        wasted = cand.area - effective
        if effective > best_effective or (effective == best_effective and wasted < best_wasted):
            best = cand
            best_effective = effective
            best_wasted = wasted
    return best


def fit_with_padding(input: Resolution, target: Resolution) -> PaddedPlacement:
    """Aspect-preserving resize into ``target``, centered, padding split
    evenly with any odd pixel going to the bottom/right.

    Scaled dimensions round to nearest (half up) and are clamped to at
    least one pixel and at most the target.
    """
    scale = min(target.height / input.height, target.width / input.width)
    sh = min(target.height, max(1, math.floor(input.height * scale + 0.5)))
    sw = min(target.width, max(1, math.floor(input.width * scale + 0.5)))
    return PaddedPlacement(
        target=target,
        scaled=Resolution(sh, sw),
        offset_top=(target.height - sh) // 2,
        offset_left=(target.width - sw) // 2,
    )


def unpad_grid(placement: PaddedPlacement, patch_size: int) -> GridShape:
    """Feature-grid shape after dropping all-padding patch rows/columns.

    A patch row or column survives iff it overlaps the content region by
    at least one pixel, so content is never discarded; the survivors form
    one contiguous block per axis.
    """
    if patch_size <= 0:
        raise ValueError("patch_size must be positive")
    if placement.target.height % patch_size or placement.target.width % patch_size:
        raise ValueError(
            f"target {placement.target.height}x{placement.target.width} "
            f"not divisible by patch size {patch_size}"
        )

    def surviving(offset: int, extent: int) -> int:
        first = offset // patch_size
        last = (offset + extent - 1) // patch_size
        return last - first + 1

    return GridShape(
        rows=surviving(placement.offset_top, placement.scaled.height),
        cols=surviving(placement.offset_left, placement.scaled.width),
    )


def build_layout(
    pre_text: int,
    input: Resolution,
    candidates: list[Resolution] | tuple[Resolution, ...],
    vit_resolution: Resolution,
    patch_size: int,
    post_text: int,
    row_separators: bool = True,
    cap_effective_at_input: bool = False,
    thumbnail_first: bool = True,
) -> LayoutPlan:
    """Compose the full token layout for one image.

    Default order is text, thumbnail, high-res, text; ``thumbnail_first
    = False`` swaps the two image blocks for comparison runs.  Text
    segments with zero length are omitted.
    """
    if pre_text < 0 or post_text < 0:
        raise ValueError("text lengths must be non-negative")
    if patch_size <= 0:
        raise ValueError("patch_size must be positive")
    if vit_resolution.height % patch_size or vit_resolution.width % patch_size:
        raise ValueError("vit resolution must be divisible by patch size")
    thumb = ThumbnailGrid(
        GridShape(vit_resolution.height // patch_size, vit_resolution.width // patch_size)
    )
    selected = select_resolution(input, candidates, cap_effective_at_input)
    placement = fit_with_padding(input, selected)
    high = HighResGrid(unpad_grid(placement, patch_size), row_separator=row_separators)
    image: list[Segment] = [thumb, high] if thumbnail_first else [high, thumb]
    segments: list[Segment] = []
    if pre_text:
        segments.append(TextSegment(pre_text))
    segments.extend(image)
    if post_text:
        segments.append(TextSegment(post_text))
    return LayoutPlan(segments=tuple(segments), patch_size=patch_size)
