"""Reference implementations that the tests check the library against.

The package itself never calls these.  ``correspondence_oracle`` lists
every spatially overlapping (high-res cell, thumbnail cell) pair, which
the mapping soundness checks test each inherited ID against;
``attention_scores`` stacks the score walk into one dense matrix, which
the score and summary checks compare whole.
"""

from dataclasses import dataclass

import numpy as np

from ropealign import GridShape, PositionIdMap, RopeConfig, TokenPopulation, score_blocks
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
