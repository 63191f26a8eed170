"""Token-sequence geometry for tiled high-resolution image encoding.

An input image is encoded twice: once scaled to the vision tower's base
resolution (the thumbnail) and once at a selected higher resolution,
padded to fit, with padded feature rows and columns dropped afterwards.
This module does the arithmetic only: resolution selection, padded
placement, unpadded grid shapes, and the resulting ordered token layout.
No pixels are touched.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

from .codec import json_text

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


@dataclass(frozen=True)
class Resolution:
    """Pixel dimensions, height first."""

    height: int
    width: int

    def __post_init__(self) -> None:
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
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"grid shape must be positive, got {self.rows}x{self.cols}")

    @property
    def cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TextSegment:
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("text segment length must be positive")


@dataclass(frozen=True)
class ThumbnailGrid:
    shape: GridShape


@dataclass(frozen=True)
class HighResGrid:
    """High-resolution feature grid, optionally with one separator token
    appended after each row (the new-line convention)."""

    shape: GridShape
    row_separator: bool = True


@dataclass(frozen=True)
class Separator:
    count: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("separator count must be positive")


Segment = TextSegment | ThumbnailGrid | HighResGrid | Separator


def _segment_slots(seg: Segment) -> list[str]:
    if isinstance(seg, TextSegment):
        return ["text"] * seg.length
    if isinstance(seg, ThumbnailGrid):
        return ["thumb"] * seg.shape.cells
    if isinstance(seg, HighResGrid):
        row = ["highres"] * seg.shape.cols
        if seg.row_separator:
            row = row + ["separator"]
        return row * seg.shape.rows
    if isinstance(seg, Separator):
        return ["separator"] * seg.count
    raise TypeError(f"unknown segment type {type(seg).__name__}")


def _segment_counts(seg: Segment) -> tuple[int, int, int]:
    """(text, image, separator) slots of one segment, without listing them."""
    if isinstance(seg, TextSegment):
        return seg.length, 0, 0
    if isinstance(seg, ThumbnailGrid):
        return 0, seg.shape.cells, 0
    if isinstance(seg, HighResGrid):
        return 0, seg.shape.cells, seg.shape.rows if seg.row_separator else 0
    if isinstance(seg, Separator):
        return 0, 0, seg.count
    raise TypeError(f"unknown segment type {type(seg).__name__}")


@dataclass(frozen=True)
class LayoutPlan:
    """Ordered token segments plus the patch size that produced the grids.

    A plan describes one image (at most one thumbnail grid and one
    high-resolution grid) embedded in surrounding text.
    """

    segments: tuple[Segment, ...]
    patch_size: int

    def __post_init__(self) -> None:
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if sum(isinstance(s, ThumbnailGrid) for s in self.segments) > 1:
            raise ValueError("at most one thumbnail grid per plan")
        if sum(isinstance(s, HighResGrid) for s in self.segments) > 1:
            raise ValueError("at most one high-resolution grid per plan")

    @property
    def total_tokens(self) -> int:
        return sum(sum(_segment_counts(s)) for s in self.segments)

    def slot_roles(self) -> tuple[str, ...]:
        roles: list[str] = []
        for seg in self.segments:
            roles.extend(_segment_slots(seg))
        return tuple(roles)

    def thumbnail(self) -> ThumbnailGrid | None:
        for seg in self.segments:
            if isinstance(seg, ThumbnailGrid):
                return seg
        return None

    def highres(self) -> HighResGrid | None:
        for seg in self.segments:
            if isinstance(seg, HighResGrid):
                return seg
        return None

    def to_json(self) -> str:
        out: list[dict] = []
        for seg in self.segments:
            if isinstance(seg, TextSegment):
                out.append({"kind": "text", "len": seg.length})
            elif isinstance(seg, ThumbnailGrid):
                out.append({"kind": "thumb", "rows": seg.shape.rows, "cols": seg.shape.cols})
            elif isinstance(seg, HighResGrid):
                out.append(
                    {
                        "kind": "highres",
                        "rows": seg.shape.rows,
                        "cols": seg.shape.cols,
                        "row_separator": seg.row_separator,
                    }
                )
            else:
                out.append({"kind": "separator", "count": seg.count})
        return json_text({"segments": out, "patch_size": self.patch_size})

    @classmethod
    def from_json(cls, text: str) -> "LayoutPlan":
        """Parse a plan.  Integer fields must be JSON integers, never
        truncated; a missing required field raises KeyError."""
        doc = json.loads(text)

        def num(raw: dict, key: str) -> int:
            value = raw[key]
            try:
                if not isinstance(value, bool):
                    return operator.index(value)
            except TypeError:
                pass
            raise ValueError(f"plan field {key} must be an integer, got {value!r}")

        segs: list[Segment] = []
        for raw in doc["segments"]:
            kind = raw["kind"]
            if kind == "text":
                segs.append(TextSegment(num(raw, "len")))
            elif kind == "thumb":
                segs.append(ThumbnailGrid(GridShape(num(raw, "rows"), num(raw, "cols"))))
            elif kind == "highres":
                sep = raw.get("row_separator", True)
                if not isinstance(sep, bool):
                    raise ValueError(f"plan field row_separator must be true or false, got {sep!r}")
                segs.append(HighResGrid(GridShape(num(raw, "rows"), num(raw, "cols")), sep))
            elif kind == "separator":
                segs.append(Separator(num({"count": 1} | raw, "count")))
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
        return cls(segments=tuple(segs), patch_size=num(doc, "patch_size"))


def segment_ranges(plan: LayoutPlan) -> tuple[tuple[Segment, int, int], ...]:
    """(segment, first slot, one past last slot) for each segment in order.

    Row separators inside a high-resolution grid count toward that
    segment's range.
    """
    out = []
    start = 0
    for seg in plan.segments:
        n = sum(_segment_counts(seg))
        out.append((seg, start, start + n))
        start += n
    return tuple(out)


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
    text = image = sep = 0
    for seg in plan.segments:
        t, i, s = _segment_counts(seg)
        text, image, sep = text + t, image + i, sep + s
    total = text + image + sep
    return TokenCounts(
        total=total,
        text_tokens=text,
        image_tokens=image,
        separator_tokens=sep,
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
