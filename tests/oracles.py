"""Reference implementations that the tests check the library against.

The package itself never calls these.  ``correspondence_oracle`` lists
every spatially overlapping (high-res cell, thumbnail cell) pair, which
the mapping soundness checks test each inherited ID against;
``attention_scores`` stacks the score walk into one dense matrix, which
the score and summary checks compare whole; ``two_table_summary`` folds
each upper-triangle block twice, its square and the rectangle right of
it into two tables, which the one-table fold of ``attention_summary``
must match bit for bit; ``whole_chunk_moments`` walks each Monte Carlo
chunk's blocks in a plain loop and projects them one distance at a
time, which the grouped chunk worker of ``decay_profile`` must match bit
for bit.
"""

from dataclasses import dataclass

import numpy as np

from ropealign import GridShape, PositionIdMap, RopeConfig, TokenPopulation, apply_rope_many, score_blocks
from ropealign import harness
from ropealign.harness import _distance_blocks, _empty_table, _fold, _walk, _width
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


def two_table_summary(
    pop: TokenPopulation,
    idmap: PositionIdMap,
    config: RopeConfig,
    normalize: bool = False,
    scale: bool = True,
):
    """``attention_summary`` with each upper-triangle block folded twice:
    its square into one table, the rectangle right of it into a second,
    merged into the first at the end; ``normalize`` folds whole rows into
    the first table.  The bucketed rows come from ``harness._summary``."""
    ids = idmap.ids
    names, codes = np.unique(np.asarray(pop.roles, dtype=str), return_inverse=True)
    n_roles, width = len(names), _width(ids)
    size = n_roles * n_roles * width
    table, right = _empty_table(size), _empty_table(size)
    upper = not normalize
    walk = _walk(pop, idmap, config, normalize, scale, upper)
    for scores, dist, lo in zip(walk, _distance_blocks(ids, upper), range(0, len(ids), harness._BLOCK_ROWS)):
        n = len(dist)
        group = dist + codes[lo : lo + n, None] * (n_roles * width) + codes[lo if upper else 0 :] * width
        if upper:
            _fold(table, group[:, :n], scores[:, :n])
            _fold(right, group[:, n:], scores[:, n:])
        else:
            _fold(table, group, scores)
    if upper:
        for whole, part, merge in zip(table, right, (np.add, np.add, np.maximum)):
            merge(whole, part, out=whole)
            merge(whole, part.reshape(n_roles, n_roles, width).swapaxes(0, 1).ravel(), out=whole)
    return harness._summary(names, table, width)


def whole_chunk_moments(mu_q, mu_k, distances, samples: int, seed: int, config: RopeConfig):
    """Mean and stderr per distance, as ``decay_profile(..., seed)`` gives
    them, from a plain loop over each chunk's 1024-sample blocks: a block
    draws its rows of q, then one normal g a row, projects each distance
    by its own ``einsum`` and reduces it to the block's mean and m2 in two
    passes; block moments merge in stream order by Chan's update."""
    chunk_size, block_size = 16384, 1024
    mq = np.asarray(mu_q, dtype=np.float64)
    mk = np.asarray(mu_k, dtype=np.float64)
    rotated = apply_rope_many(np.tile(mk, (len(distances), 1)), list(distances), config)
    base = int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])
    n_chunks = -(-samples // chunk_size)
    chunk_seeds = np.random.SeedSequence(base).generate_state(n_chunks, dtype=np.uint64)
    count, mean, m2 = 0, np.zeros(len(distances)), np.zeros(len(distances))
    for c in range(n_chunks):
        rng = np.random.Generator(np.random.Philox(int(chunk_seeds[c])))
        chunk_end = min(samples, (c + 1) * chunk_size)
        for start in range(c * chunk_size, chunk_end, block_size):
            n = min(block_size, chunk_end - start)
            q = mq + rng.standard_normal((n, config.dim))
            m_free = np.sqrt(np.einsum("ij,ij->i", q, q)) * rng.standard_normal(n)
            block_mean, block_m2 = np.empty((2, len(distances)))
            for i, r in enumerate(rotated):
                dots = m_free + np.einsum("ij,j->i", q, r)
                block_mean[i] = dots.mean()
                block_m2[i] = np.square(dots - block_mean[i]).sum()
            delta = block_mean - mean
            mean = mean + delta * (n / (count + n))
            m2 = m2 + block_m2 + delta * delta * (count * n / (count + n))
            count += n
    return mean, np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)
