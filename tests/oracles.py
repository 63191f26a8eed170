"""Reference implementations that the tests check the library against.

The package itself never calls these.  ``correspondence_oracle`` lists
every spatially overlapping (high-res cell, thumbnail cell) pair, which
the mapping soundness checks test each inherited ID against;
``attention_scores`` stacks the score walk into one dense matrix, which
the score and summary checks compare whole; ``whole_chunk_moments`` draws
each Monte Carlo chunk whole and projects it one distance at a time,
which the blocked chunk worker of ``decay_profile`` must match bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from ropealign import GridShape, PositionIdMap, RopeConfig, TokenPopulation, apply_rope_many, score_blocks
from ropealign.idalign import _axis_partners


@dataclass(frozen=True)
class CorrespondencePair:
    """A high-resolution cell and a thumbnail cell whose image regions
    overlap with positive area."""

    highres_cell: tuple[int, int]
    thumb_cell: tuple[int, int]


def correspondence_oracle(thumb: GridShape, high: GridShape) -> frozenset[CorrespondencePair]:
    """All (high cell, thumb cell) pairs with positive-area overlap.

    Both grids are uniform partitions of the same unit square; the
    per-axis interval test runs in exact integer arithmetic, and the
    pairs are its row pairs times its column pairs.
    """
    rows = list(zip(*(a.tolist() for a in _axis_partners(thumb.rows, high.rows))))
    cols = list(zip(*(a.tolist() for a in _axis_partners(thumb.cols, high.cols))))
    return frozenset(CorrespondencePair((r, c), (tr, tc)) for r, tr in rows for c, tc in cols)


def attention_scores(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
) -> np.ndarray:
    """The dense matrix of ``score_blocks``' scores; rows are queries,
    columns keys."""
    blocks = list(score_blocks(pop, idmap, config, normalize, scale))
    return np.concatenate(blocks) if blocks else np.empty((0, 0))


def whole_chunk_moments(mu_q, mu_k, distances, samples: int, seed: int, config: RopeConfig):
    """Mean and stderr per distance, as ``decay_profile(..., seed)`` gives
    them, with each chunk's (n, dim) block of q drawn at once and each
    distance projected by its own ``einsum``; chunk moments merge in
    chunk order by Chan's update."""
    chunk_size = 16384
    mq = np.asarray(mu_q, dtype=np.float64)
    mk = np.asarray(mu_k, dtype=np.float64)
    rotated = apply_rope_many(np.tile(mk, (len(distances), 1)), list(distances), config)
    base = int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])
    n_chunks = -(-samples // chunk_size)
    chunk_seeds = np.random.SeedSequence(base).generate_state(n_chunks, dtype=np.uint64)
    count, mean, m2 = 0, np.zeros(len(distances)), np.zeros(len(distances))
    for c in range(n_chunks):
        n = min(chunk_size, samples - c * chunk_size)
        rng = np.random.Generator(np.random.Philox(int(chunk_seeds[c])))
        q = mq + rng.standard_normal((n, config.dim))
        m_free = np.sqrt(np.einsum("ij,ij->i", q, q)) * rng.standard_normal(n)
        chunk_mean, chunk_m2 = np.empty((2, len(distances)))
        for i, r in enumerate(rotated):
            dots = m_free + np.einsum("ij,j->i", q, r)
            chunk_mean[i] = dots.mean()
            chunk_m2[i] = np.square(dots - chunk_mean[i]).sum()
        delta = chunk_mean - mean
        mean = mean + delta * (n / (count + n))
        m2 = m2 + chunk_m2 + delta * delta * (count * n / (count + n))
        count += n
    return mean, np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)
