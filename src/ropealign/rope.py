"""Rotary position embedding kernels on plain float64 vectors.

Positions enter as integer IDs; each adjacent coordinate pair
(v[2i], v[2i+1]) is rotated in its own plane by angle ``position *
frequency[i]``.  The rotation is applied via paired sin/cos arithmetic,
never as a dense matrix, so every operation is O(dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Field, IntRange, read_array, read_fields, read_value

__all__ = [
    "RopeConfig",
    "rope_frequencies",
    "apply_rope",
    "apply_rope_many",
    "rope_dot",
]

# The kind of a rotary position or distance: past 2**53 in magnitude not
# every integer is a float, so a position could be rotated as a
# neighbouring one.
POSITION = IntRange(-(2**53), 2**53)

# Rows rotated at a time by ``apply_rope_many``, straight into its output.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RopeConfig:
    """Head dimension and frequency base of a rotary embedding.

    ``dim`` must be an even integer of at least 2 (a Python or numpy integer,
    stored as ``int``); ``theta_base`` must be a finite real, stored as
    ``float``, and exceed 1 (common choices are 1e4 and 1e7).
    """

    dim: int
    theta_base: float = 10_000.0

    def __post_init__(self) -> None:
        read_fields(self, dim=IntRange(2), theta_base=float)
        if self.dim % 2:
            raise ValueError(f"dim must be a positive even integer, got {self.dim}")
        if self.theta_base <= 1.0:
            raise ValueError(f"theta_base must be finite and greater than 1, got {self.theta_base}")

    @property
    def num_pairs(self) -> int:
        return self.dim // 2


def rope_frequencies(config: RopeConfig) -> np.ndarray:
    """Per-pair rotation frequencies ``theta_base ** (-2i / dim)``.

    Returns a strictly decreasing vector of length ``dim / 2`` whose first
    entry is exactly 1.
    """
    i = np.arange(config.num_pairs, dtype=np.float64)
    return config.theta_base ** (-2.0 * i / config.dim)


def apply_rope(v, m: int, config: RopeConfig) -> np.ndarray:
    """Rotate each adjacent pair (v[2i], v[2i+1]) by angle ``m * freq[i]``.

    Pairing is block-adjacent: pair i occupies coordinates (2i, 2i+1).
    ``m`` is an integer of magnitude at most 2**53; a negative ``m``
    rotates backwards, and ``m = 0`` returns the input unchanged.  Returns
    a new float64 vector of the same length: one row of ``apply_rope_many``.
    """
    m = read_value(Field("m", POSITION), m)
    return apply_rope_many(read_array(v, "v", (config.dim,))[None, :], m, config)[0]


def apply_rope_many(vectors, positions, config: RopeConfig) -> np.ndarray:
    """Rotate each row of ``vectors`` by its own position.

    ``vectors`` has shape (n, dim), with finite entries; ``positions`` is
    a scalar or an array of length n, read as int64, each entry an
    integer of magnitude at most 2**53 (``POSITION``), never a float or a
    bool.  Each is exact in float64, so the angles are those of its float.
    Rotated ``_BLOCK_ROWS`` rows at a time: the peak is the inputs, the
    output and one block's temporaries.
    """
    arr = read_array(vectors, "vectors", (None, config.dim))
    pos = read_array(positions, "positions", None, POSITION)  # read first: a ragged list is named
    if pos.shape not in ((), (len(arr),)):
        raise ValueError(f"positions must be a scalar or one per row, got shape {pos.shape} for {len(arr)} rows")
    freqs, out = rope_frequencies(config), np.empty_like(arr)
    for lo in range(0, len(arr), _BLOCK_ROWS):  # elementwise: a block's rows are the whole's, bit for bit
        rows = slice(lo, lo + _BLOCK_ROWS)
        angles = np.multiply.outer(pos[rows] if pos.ndim else pos[None], freqs)
        cos, sin, x, y = np.cos(angles), np.sin(angles), arr[rows, 0::2], arr[rows, 1::2]
        out[rows, 0::2] = x * cos - y * sin
        out[rows, 1::2] = x * sin + y * cos
    return out


def rope_dot(q, m: int, k, n: int, config: RopeConfig) -> float:
    """Inner product of the rotated vectors: rotate q to position m, k to
    position n, then dot them.

    Up to float rounding the result depends only on the relative position
    n - m, so it equals ``q . apply_rope(k, n - m)``.
    """
    m = read_value(Field("m", POSITION), m)
    n = read_value(Field("n", POSITION), n)
    q, k = read_array(q, "q", (config.dim,)), read_array(k, "k", (config.dim,))
    return float(np.dot(apply_rope(q, m, config), apply_rope(k, n, config)))
