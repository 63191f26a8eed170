"""Reference implementations that the tests check the library against.

The package itself never calls these.  ``correspondence_oracle`` lists
every spatially overlapping (high-res cell, thumbnail cell) pair, which
the mapping soundness checks test each inherited ID against;
``attention_scores`` stacks the score walk into one dense matrix, which
the score and summary checks compare whole; ``two_table_summary`` folds
each upper-triangle block twice, its square and the rectangle right of
it into two tables, which the one-table fold of ``attention_summary``
must match bit for bit; ``histogram_summary`` gives the summary's
counts, distances and mean scores from per-role ID histograms, with no
rotation and no score walk; ``whole_chunk_moments`` walks each Monte
Carlo chunk's blocks in a plain loop, projects them one distance at a
time and merges blocks into chunks and chunks into the profile, which
the grouped chunk worker of ``decay_profile`` must match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ropealign import (
    GridShape, PositionIdMap, RopeConfig, TokenPopulation, apply_rope_many, rope_frequencies, score_blocks,
)  # fmt: skip
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


def histogram_summary(pop: TokenPopulation, idmap: PositionIdMap, config: RopeConfig, scale: bool = True):
    """The (query role, key role, bucket, count, mean distance, max
    distance, mean score) rows of ``attention_summary`` without
    ``normalize``, each with one more column, the group's mean
    |v_i| |v_j| (over sqrt(dim) with ``scale``), from per-role ID
    histograms alone.

    Rotary shift invariance (RoFormer) gives the score sum of the ordered
    role pair (a, b) at signed distance k = id_j - id_i as
    T_ab(k) = Re sum_p exp(1j k theta_p) sum_x conj(Z_ap(x)) Z_bp(x + k),
    where Z_ap(x) sums the complex pair p, v[2p] + 1j v[2p + 1], of role
    a's vectors at ID x.  A group at |delta id| = d sums T_ab(d) + T_ab(-d)
    for d > 0, and T_ab(0) at d = 0.  The counts are the same correlation
    of the per-role ID counts, exact in int64, and the last column that of
    the per-role summed norms.  Each correlation is a direct
    ``np.correlate`` per role pair and rotary pair, with no FFT; only
    ``rope_frequencies`` is shared with the walk."""
    if not len(idmap.ids):
        return []
    ids = idmap.ids - idmap.ids.min()
    width = int(ids.max()) + 1
    roles = np.asarray(pop.roles)
    theta = rope_frequencies(config)
    pairs = pop.vectors[:, 0::2] + 1j * pop.vectors[:, 1::2]
    norms = np.linalg.norm(pop.vectors, axis=1)
    phase = np.exp(1j * np.outer(np.arange(1 - width, width), theta))  # row width - 1 + k: lag k
    unit = math.sqrt(config.dim) if scale else 1.0

    def histograms(role):
        mine = roles == role
        z = np.zeros((width, len(theta)), dtype=complex)
        np.add.at(z, ids[mine], pairs[mine])
        return np.bincount(ids[mine], minlength=width), np.bincount(ids[mine], norms[mine], width), z

    def by_distance(c):  # c[width - 1 + k] at lag k, folded to |k|
        at = c[width - 1 :].copy()
        at[1:] += c[width - 2 :: -1]
        return at

    hist = {role: histograms(role) for role in sorted(set(pop.roles))}
    rows = []
    for a, (count_a, norm_a, z_a) in hist.items():
        for b, (count_b, norm_b, z_b) in hist.items():
            count = by_distance(np.correlate(count_b, count_a, "full"))
            assert count.dtype == np.int64
            norm = by_distance(np.correlate(norm_b, norm_a, "full")) / unit
            lagged = np.stack([np.correlate(z_b[:, p], z_a[:, p], "full") for p in range(len(theta))], axis=1)
            score = by_distance((phase * lagged).real.sum(axis=1)) / unit
            buckets: dict = {}
            for d, n in enumerate(count.tolist()):
                if n:
                    buckets.setdefault(0 if d == 0 else 1 << (d.bit_length() - 1), []).append(d)
            for lower, ds in buckets.items():
                n = sum(count[ds].tolist())
                mean_distance = sum(d * c for d, c in zip(ds, count[ds].tolist())) / n
                rows.append((a, b, lower, n, mean_distance, ds[-1], score[ds].sum() / n, norm[ds].sum() / n))
    return rows


def whole_chunk_moments(mu_q, mu_k, distances, samples: int, seed: int, config: RopeConfig):
    """Mean and stderr per distance, as ``decay_profile(..., seed)`` gives
    them, from a plain loop over each chunk's 1024-sample blocks: a block
    draws its rows of q, then one normal g a row, projects each distance
    by its own ``einsum`` and reduces it to the block's mean and m2 in two
    passes.  Chan's update merges a chunk's blocks in stream order into the
    chunk's moments, and the chunks' moments in chunk order."""
    chunk_size, block_size = 16384, 1024
    mq = np.asarray(mu_q, dtype=np.float64)
    mk = np.asarray(mu_k, dtype=np.float64)
    rotated = apply_rope_many(np.tile(mk, (len(distances), 1)), list(distances), config)
    base = int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])
    n_chunks = -(-samples // chunk_size)
    chunk_seeds = np.random.SeedSequence(base).generate_state(n_chunks, dtype=np.uint64)

    def chan(a, b):
        (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
        delta = mean_b - mean_a
        return na + nb, mean_a + delta * (nb / (na + nb)), m2_a + m2_b + delta * delta * (na * nb / (na + nb))

    total = (0, np.zeros(len(distances)), np.zeros(len(distances)))
    for c in range(n_chunks):
        rng = np.random.Generator(np.random.Philox(int(chunk_seeds[c])))
        chunk_end = min(samples, (c + 1) * chunk_size)
        moments = (0, np.zeros(len(distances)), np.zeros(len(distances)))
        for start in range(c * chunk_size, chunk_end, block_size):
            n = min(block_size, chunk_end - start)
            q = mq + rng.standard_normal((n, config.dim))
            m_free = np.sqrt(np.einsum("ij,ij->i", q, q)) * rng.standard_normal(n)
            block_mean, block_m2 = np.empty((2, len(distances)))
            for i, r in enumerate(rotated):
                dots = m_free + np.einsum("ij,j->i", q, r)
                block_mean[i] = dots.mean()
                block_m2[i] = np.square(dots - block_mean[i]).sum()
            moments = chan(moments, (n, block_mean, block_m2))
        total = chan(total, moments)
    _count, mean, m2 = total
    return mean, np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)
