"""Initial agent placement — the paper's data-preparation stage.

Agents of each group are placed "randomly but kept confined to the
pre-defined number of rows". We realise the random choice with a keyed
Philox shuffle of the band's cells so placement is a pure function of
``(seed, group)`` and therefore identical for every engine.

Agent indexing follows the paper's Figure 2b: indices start at 1 and
increase in row-major order of the *occupied cells*, top group first, so
the index matrix ends up exactly like the paper's example (top agents
1..n_top in reading order, bottom agents n_top+1..n_top+n_bottom).
"""

from __future__ import annotations

import numpy as np

from ..errors import PlacementError
from ..rng import PhiloxKeyedRNG, Stream
from ..types import Group
from .environment import Environment

__all__ = ["place_groups", "band_cells"]


def band_cells(height: int, width: int, group: Group, band: int) -> np.ndarray:
    """All ``(row, col)`` cells of a group's starting band, row-major."""
    lo, hi = Group(group).start_row_range(height, band)
    rows = np.repeat(np.arange(lo, hi, dtype=np.int64), width)
    cols = np.tile(np.arange(width, dtype=np.int64), hi - lo)
    return np.stack([rows, cols], axis=1)


def _choose_cells(
    rng: PhiloxKeyedRNG,
    height: int,
    width: int,
    group: Group,
    band: int,
    n: int,
    blocked=None,
) -> np.ndarray:
    """Pick ``n`` distinct free band cells as ascending row-major flat ids.

    Each band cell draws one keyed uniform (its lane is its flat id); the
    ``n`` smallest draws win, ties at the threshold going to the cells
    first in row-major order. This is order-independent (no sequential
    shuffle state) and unbiased. ``blocked`` is an optional (H, W) bool
    mask of unavailable cells (obstacles).

    The winners are found by threshold, in linear time: ``np.partition``
    gives the ``n``-th smallest draw, every draw below it wins, and so do
    the first draws equal to it in band order until ``n`` are chosen —
    the set a stable sort's first ``n`` would give.
    """
    lo, hi = Group(group).start_row_range(height, band)
    cells = np.arange(lo * width, hi * width, dtype=np.int64)
    if blocked is not None:
        free = ~np.asarray(blocked, dtype=bool).reshape(-1)[lo * width : hi * width]
        cells = cells[free]
    if n > cells.size:
        raise PlacementError(
            f"cannot place {n} agents of group {group} in a band of "
            f"{cells.size} free cells"
        )
    if n == 0:
        return cells[:0]
    u = rng.uniform(Stream.PLACEMENT, step=int(group), lane=cells)
    threshold = np.partition(u, n - 1)[n - 1]
    keep = u < threshold
    ties = np.flatnonzero(u == threshold)
    keep[ties[: n - np.count_nonzero(keep)]] = True
    return cells[keep]


def place_groups(
    height: int,
    width: int,
    n_per_side: int,
    band: int,
    rng: PhiloxKeyedRNG,
    obstacles=None,
) -> Environment:
    """Build an :class:`Environment` with both groups placed in their bands.

    Returns the environment; agent ``i`` of the top group gets index ``i+1``
    (1-based), bottom agents follow after all top agents. ``obstacles`` is
    an optional (H, W) bool mask applied before placement.
    """
    env = Environment(height, width)
    if obstacles is not None:
        env.add_obstacles(obstacles)
    mat = env.mat.reshape(-1)
    index = env.index.reshape(-1)
    next_index = 1
    for group in (Group.TOP, Group.BOTTOM):
        chosen = _choose_cells(
            rng, height, width, group, band, n_per_side, blocked=obstacles
        )
        mat[chosen] = int(group)
        index[chosen] = np.arange(next_index, next_index + n_per_side, dtype=np.int32)
        next_index += n_per_side
    env.validate()
    return env
