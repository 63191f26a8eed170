"""Long-term decay analysis for rotary embeddings.

Three independent routes to the same quantity are kept deliberately
separate so they can cross-check each other in tests:

* an Abel summation-by-parts bound on the rotated inner product,
* a closed-form expectation under mean-shifted unit-covariance normals,
* a seeded Monte Carlo estimate of that expectation.

The Monte Carlo draws fixed 16384-sample chunks, chunk c from its own
Philox substream keyed by word c of a SeedSequence, and evaluates every
distance of a profile on the same chunks.  A chunk is read off its
substream once, in blocks of 1024 samples: a block of n samples draws its
n rows of q, then n normals g.  The key noise enters a sample only
through q . z_k, which given q is N(0, |q|^2), so |q| g has its law
exactly.  Each block is projected onto the rotated key means, at most 128
distances an einsum, while it is still in cache, and reduced to its mean
and m2 per distance.  A chunk merges each block into its own moments as
the block is drawn (Chan's update), and the chunks' moments merge in
chunk order.  A chunk's memory is thus bounded by the block size and the
grid, not by the chunk or the sample count: one block of rows, one
128 x 1024 buffer of projections and one moment pair (1.9 MB traced at
dim 64 over 300 distances, 1.0 MB at dim 8 over 100).  Profiles are
reproducible bit for bit on a given platform, whatever the thread count,
and a point is the same whichever other distances share its grid.  Chunk
seeds, or a grid's rotated means and moments, that cannot be allocated
are a ValueError naming the sample count, or the grid's size and the dim
(``codec.allocating``).

Distances, like rotary positions, are integers, and so are sample counts,
seeds and worker counts: each is read by ``codec.read_value`` with its
``IntRange``, so a numpy integer is a Python int and a float such as 2.9
is a ValueError, never floored; so is a value out of range, such as a
distance past 2**53 in magnitude (``rope.POSITION``) or a negative seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import repeat

import numpy as np

from .codec import Field, IntRange, allocating, csv_text, read_array, read_fields, read_value
from .rope import POSITION, RopeConfig, apply_rope_many, rope_frequencies

__all__ = [
    "AbelReport",
    "DecayProfile",
    "abel_partial_sums",
    "abel_bound_check",
    "expected_dot_closed_form",
    "monte_carlo_expected_dot",
    "decay_profile",
]

# Samples per Philox substream (one chunk).  Fixed (never tunable):
# chunk boundaries decide which substream draws which sample, so changing
# it would change every archived profile.
_MC_CHUNK = 16384

# Samples a block.  A block draws its rows of q, then its g, is projected
# while in cache (512 KB at dim 64) and is reduced to one (mean, m2) per
# distance.  Fixed like _MC_CHUNK: block boundaries decide which draws are
# q and which g, and which moments a chunk merges.  _GROUP is the most
# distances projected by one einsum; it moves only memory and speed, never
# a bit, since each projection is the same sum over dim.
_ROWS = 1024
_GROUP = 128

# The kind of a relative distance: a rotary position that is not negative.
_DISTANCE = IntRange(0, POSITION.most)


@dataclass(frozen=True)
class AbelReport:
    """One evaluation of the summation-by-parts bound.

    ``lhs_magnitude`` is the modulus of the complex pair-product sum at
    the given relative distance, ``bound_value`` the product of the
    largest successive pair-product difference and the summed partial-sum
    magnitudes, and ``partial_sum_mean`` the average partial-sum
    magnitude (the quantity whose decay in distance drives the bound).
    """

    relative_distance: int
    lhs_magnitude: float
    bound_value: float
    partial_sum_mean: float


@dataclass(frozen=True)
class DecayProfile:
    """Mean rotated inner product per relative distance, with stderr.

    Fields are stored as Python scalars whatever was passed (numpy
    integers and floats included), so ``to_csv`` writes plain numbers.
    """

    distances: tuple[int, ...]
    mean_dot: tuple[float, ...]
    stderr: tuple[float, ...]
    sample_count: int

    def __post_init__(self) -> None:
        read_fields(self, sample_count=IntRange(2))
        shape = (None,)  # any length for the distances, then theirs for each column
        for name, kind in (("distances", _DISTANCE), ("mean_dot", float), ("stderr", float)):
            column = read_array(getattr(self, name), name, shape, kind)
            shape = column.shape
            object.__setattr__(self, name, tuple(column.tolist()))
        if any(s < 0 for s in self.stderr):
            raise ValueError("stderr entries must be non-negative")
        if any(b <= a for a, b in zip(self.distances, self.distances[1:])):
            raise ValueError("distances must be strictly increasing")

    def to_csv(self) -> str:
        """Render as CSV with header ``rel_distance,mean_dot,stderr,samples``."""
        rows = zip(self.distances, self.mean_dot, self.stderr, repeat(self.sample_count))
        return csv_text(("rel_distance", "mean_dot", "stderr", "samples"), rows)


def _pair_complex(v: np.ndarray) -> np.ndarray:
    return v[0::2] + 1j * v[1::2]


def abel_partial_sums(delta: int, config: RopeConfig) -> np.ndarray:
    """Magnitudes |S_j| of the phase partial sums, j = 1 .. dim/2.

    S_j = sum over the first j pairs of exp(1j * delta * freq).  At
    delta = 0 every term is 1, so |S_j| = j.
    """
    delta = read_value(Field("delta", _DISTANCE), delta)
    phases = np.exp(1j * delta * rope_frequencies(config))
    return np.abs(np.cumsum(phases))


def abel_bound_check(q, k, delta: int, config: RopeConfig) -> AbelReport:
    """Evaluate both sides of the summation-by-parts inequality.

    The left side is |sum_i h_i exp(1j*delta*freq_i)| where h_i pairs the
    i-th complex coordinates of q and k (conjugate on the q side, so the
    real part of the sum is exactly the rotated inner product at relative
    distance delta).  The right side pads h with a trailing zero and
    multiplies the largest successive difference max|h_{i+1} - h_i| by
    the summed partial-sum magnitudes.  The inequality is algebraic;
    a violation beyond rounding means a bug, and raises.
    """
    delta = read_value(Field("delta", _DISTANCE), delta)
    qv = read_array(q, "q", (config.dim,))
    kv = read_array(k, "k", (config.dim,))
    h = np.conj(_pair_complex(qv)) * _pair_complex(kv)
    phases = np.exp(1j * delta * rope_frequencies(config))
    lhs = float(np.abs(np.sum(h * phases)))
    diffs = np.abs(np.diff(np.concatenate([h, [0.0]])))
    sums = abel_partial_sums(delta, config)
    bound = float(np.max(diffs) * np.sum(sums))
    if lhs > bound + 1e-9:
        raise ArithmeticError(
            f"summation-by-parts bound violated: lhs={lhs!r} > bound={bound!r} at delta={delta}"
        )
    return AbelReport(
        relative_distance=delta,
        lhs_magnitude=lhs,
        bound_value=bound,
        partial_sum_mean=float(np.mean(sums)),
    )


def expected_dot_closed_form(mu_q, mu_k, m: int, config: RopeConfig) -> float:
    """E[q . R_m k] for q ~ N(mu_q, I), k ~ N(mu_k, I) independent.

    Expands per pair to A_i cos(m*freq_i) + B_i sin(m*freq_i) with
    A_i = mu_q[2i] mu_k[2i] + mu_q[2i+1] mu_k[2i+1] and
    B_i = mu_q[2i+1] mu_k[2i] - mu_q[2i] mu_k[2i+1].
    Equals mu_q . apply_rope(mu_k, m); the noise terms vanish in
    expectation because the covariance is the identity.
    """
    m = read_value(Field("m", POSITION), m)
    mq = read_array(mu_q, "mu_q", (config.dim,))
    mk = read_array(mu_k, "mu_k", (config.dim,))
    a = mq[0::2] * mk[0::2] + mq[1::2] * mk[1::2]
    b = mq[1::2] * mk[0::2] - mq[0::2] * mk[1::2]
    angles = m * rope_frequencies(config)
    return float(np.sum(a * np.cos(angles) + b * np.sin(angles)))


def _merge(a: tuple, b: tuple) -> tuple:
    """The (count, mean, m2) of two sample sets joined, from each set's
    own: Chan, Golub and LeVeque's pairwise update (1983).  A zero count
    on the left, with zero moments, gives the right set's moments."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def _shared_sample_moments(
    mu_q, mu_k, distances: list[int], samples: int, base: int, config: RopeConfig, max_workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stderr of q . R_m k for each m in ``distances``, on shared samples.

    A sample is q . R_m k with k = mu_k + z_k.  R_m z_k has the law of z_k
    (isotropic noise), so it is q . z_k + q . R_m mu_k with only the second
    term depending on m.  Given q, q . z_k is N(0, |q|^2), so each block of
    at most ``_ROWS`` samples draws its rows of q, then one normal g a row,
    and takes q . z_k = |q| g: dim + 1 normals a sample instead of 2 dim,
    with the joint law over all distances unchanged.  A chunk makes one
    pass over its substream.  Each block, while in cache, is projected
    onto up to ``_GROUP`` rotated means at once, and each distance is
    reduced to the block's mean and m2 on its own.  ``_merge`` folds each
    block into its chunk's moments as it is drawn, and each chunk's into
    the total in chunk order, so neither the grid nor ``max_workers``
    changes a value.  A chunk holds one block of rows, one (group x block)
    buffer of projections and one moment pair, whatever its grid, and at
    most ``max_workers`` chunks are in flight.  Moments that overflow
    float64 are a ValueError, and so are chunk seeds, or a grid's rotated
    means or moments, that cannot be allocated (``codec.allocating``): the
    error names the sample count, or the grid's size and dim.
    """
    samples = read_value(Field("samples", IntRange(2)), samples)
    mq = read_array(mu_q, "mu_q", (config.dim,))
    mk = read_array(mu_k, "mu_k", (config.dim,))
    n_chunks = -(-samples // _MC_CHUNK)
    with allocating(f"samples {samples}: {n_chunks} chunk seeds", n_chunks):
        chunk_seeds = np.random.SeedSequence(base).generate_state(n_chunks, dtype=np.uint64)

    def chunk(c: int) -> tuple[int, np.ndarray, np.ndarray]:
        n = min(_MC_CHUNK, samples - c * _MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(int(chunk_seeds[c])))
        block = np.empty((min(_ROWS, n), config.dim))
        proj = np.empty((min(_GROUP, len(rotated)), len(block)))
        moments = (0, *np.zeros((2, len(rotated))))
        # Set in the worker thread, which a caller's errstate does not reach:
        # an overflow is reported once, as the ValueError below.
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(0, n, _ROWS):
                q = rng.standard_normal(out=block[: min(_ROWS, n - r)])
                q += mq
                u = np.sqrt(np.einsum("ij,ij->i", q, q)) * rng.standard_normal(len(q))
                mean, m2 = np.empty((2, len(rotated)))
                for lo in range(0, len(rotated), _GROUP):
                    hi = min(lo + _GROUP, len(rotated))
                    # einsum, not BLAS: a BLAS product's bits vary with its thread count.
                    out = np.einsum("ij,kj->ki", q, rotated[lo:hi], out=proj[: hi - lo, : len(q)])
                    out += u
                    mean[lo:hi] = out.mean(axis=1)
                    out -= mean[lo:hi, None]
                    m2[lo:hi] = np.square(out, out=out).sum(axis=1)
                moments = _merge(moments, (len(q), mean, m2))
        return moments

    grid = f"distances: a grid of {len(distances)} points at dim {config.dim}"
    with allocating(grid, len(distances) * config.dim):  # in this thread or a worker's
        rotated = apply_rope_many(np.tile(mk, (len(distances), 1)), distances, config)
        moments = (0, *np.zeros((2, len(distances))))
        with ThreadPoolExecutor(max_workers) as pool, np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n_chunks, max_workers):  # at most max_workers chunks in flight
                batch = range(lo, min(lo + max_workers, n_chunks))
                moments = reduce(_merge, pool.map(chunk, batch), moments)
            _count, mean, m2 = moments
            stderr = np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)
    for d, m, s in zip(distances, mean.tolist(), stderr.tolist()):
        if not (math.isfinite(m) and math.isfinite(s)):
            raise ValueError(f"mean_dot and stderr must be finite, got {m} and {s} at distance {d}")
    return mean, stderr


def monte_carlo_expected_dot(
    mu_q, mu_k, m: int, samples: int, seed: int, config: RopeConfig
) -> tuple[float, float]:
    """Sample mean and standard error of q . R_m k under shifted normals.

    Draws ``samples`` independent (q, k) pairs with identity covariance,
    chunk c from the Philox substream keyed by word c of
    ``SeedSequence(seed)``, in blocks of 1024 samples: a block's rows of
    q, then one normal g per sample, since q . R_m k = |q| g + q . R_m mu_k
    in law (given q, the key noise term q . R_m z_k is N(0, |q|^2)).  A
    chunk merges its blocks' moments, and chunks merge in chunk order.
    Deterministic for a fixed seed.
    """
    m = read_value(Field("m", POSITION), m)
    seed = read_value(Field("seed", IntRange(0)), seed)
    mean, stderr = _shared_sample_moments(mu_q, mu_k, [m], samples, seed, config, 1)
    return float(mean[0]), float(stderr[0])


def decay_profile(
    mu_q, mu_k, distances, samples: int, seed: int, config: RopeConfig, max_workers: int = 1
) -> DecayProfile:
    """Monte Carlo profile over a strictly increasing distance grid.

    Each chunk is drawn once and every distance is evaluated on it, so a
    point equals ``monte_carlo_expected_dot`` seeded with word 0 of
    ``SeedSequence(seed)``, whatever else is in the grid.  Chunks may run
    on ``max_workers`` threads without changing the result.
    """
    dist = read_array(distances, "distances", (None,), _DISTANCE)
    if not dist.size:
        raise ValueError("distances must be non-empty")
    if (dist[1:] <= dist[:-1]).any():
        raise ValueError("distances must be strictly increasing")
    max_workers = read_value(Field("max_workers", IntRange(1)), max_workers)
    seed = read_value(Field("seed", IntRange(0)), seed)
    base = int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])
    mean, stderr = _shared_sample_moments(mu_q, mu_k, dist, samples, base, config, max_workers)
    return DecayProfile(
        distances=dist, mean_dot=mean, stderr=stderr, sample_count=samples
    )
