"""Rotary position embedding kernels on plain float64 vectors.

Positions enter as integer IDs; each adjacent coordinate pair
(v[2i], v[2i+1]) is rotated in its own plane by angle ``position *
frequency[i]``.  The rotation is applied via paired sin/cos arithmetic,
never as a dense matrix, so every operation is O(dim).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RopeConfig",
    "rope_frequencies",
    "apply_rope",
    "apply_rope_many",
    "rope_dot",
]


@dataclass(frozen=True)
class RopeConfig:
    """Head dimension and frequency base of a rotary embedding.

    ``dim`` must be a positive even integer (a Python or numpy integer,
    stored as ``int``); ``theta_base`` must be finite and exceed 1 (common
    choices are 1e4 and 1e7).
    """

    dim: int
    theta_base: float = 10_000.0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "dim", operator.index(self.dim))
        except TypeError:
            raise ValueError(f"dim must be a positive even integer, got {self.dim!r}") from None
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dim must be a positive even integer, got {self.dim}")
        if not 1.0 < self.theta_base < math.inf:  # NaN fails both
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


def _check_vector(v, config: RopeConfig) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (config.dim,):
        raise ValueError(f"expected vector of length {config.dim}, got shape {vec.shape}")
    return vec


def apply_rope(v, m: int, config: RopeConfig) -> np.ndarray:
    """Rotate each adjacent pair (v[2i], v[2i+1]) by angle ``m * freq[i]``.

    Pairing is block-adjacent: pair i occupies coordinates (2i, 2i+1).
    A negative ``m`` rotates backwards; ``m = 0`` returns the input
    unchanged.  Returns a new float64 vector of the same length: one row
    of ``apply_rope_many``.
    """
    return apply_rope_many(_check_vector(v, config)[None, :], m, config)[0]


def apply_rope_many(vectors, positions, config: RopeConfig) -> np.ndarray:
    """Rotate each row of ``vectors`` by its own position.

    ``vectors`` has shape (n, dim); ``positions`` is a scalar or an array
    of length n.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != config.dim:
        raise ValueError(f"expected (n, {config.dim}) array, got shape {arr.shape}")
    pos = np.asarray(positions, dtype=np.float64)
    angles = np.multiply.outer(np.atleast_1d(pos), rope_frequencies(config))
    cos = np.cos(angles)
    sin = np.sin(angles)
    x = arr[:, 0::2]
    y = arr[:, 1::2]
    out = np.empty_like(arr)
    out[:, 0::2] = x * cos - y * sin
    out[:, 1::2] = x * sin + y * cos
    return out


def rope_dot(q, m: int, k, n: int, config: RopeConfig) -> float:
    """Inner product of the rotated vectors: rotate q to position m, k to
    position n, then dot them.

    Up to float rounding the result depends only on the relative position
    n - m, so it equals ``q . apply_rope(k, n - m)``.
    """
    return float(np.dot(apply_rope(q, m, config), apply_rope(k, n, config)))
