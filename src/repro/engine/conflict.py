"""Conflict resolution helpers for the movement stage (paper IV.d, Figure 4).

Several agents may target the same empty cell in the same step. Instead of
serialising the writes with atomics, the paper inverts the problem: each
*empty cell* gathers the set of neighbouring agents whose FUTURE
coordinates point at it and picks one winner uniformly at random.

:func:`winner_rank` is that uniform pick, shared by every engine. The
whole-array engines reach the same per-cell choice agent-keyed:
:func:`group_by_cell` sorts the deciding agents by target cell, replacing
the per-cell gather. The tiled engines keep the per-cell gather (they
mirror the paper's CUDA kernel) and read neighbours through their
shared-memory tiles; :func:`shift` is that neighbour read over a whole
grid, kept for the tests.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..grid.neighborhood import ABSOLUTE_OFFSETS

__all__ = ["shift", "winner_rank", "group_by_cell", "DIRECTION_INDEX", "DIRECTION_TABLE"]

#: Map from (src - dst) offset to the absolute gather-direction index, i.e.
#: the position of the *source* cell relative to the destination.
DIRECTION_INDEX: Dict[Tuple[int, int], int] = {
    off: d for d, off in enumerate(ABSOLUTE_OFFSETS)
}

#: :data:`DIRECTION_INDEX` as a flat table indexed by ``(dr + 1) * 3 + (dc + 1)``
#: for the offset ``(dr, dc) = src - dst``; the centre entry (no move) is
#: never read.
DIRECTION_TABLE = np.array(
    [DIRECTION_INDEX.get((dr, dc), 0) for dr in (-1, 0, 1) for dc in (-1, 0, 1)],
    dtype=np.int64,
)


def shift(arr: np.ndarray, dr: int, dc: int, fill=0, xp=np) -> np.ndarray:
    """Return ``out`` with ``out[..., i, j] = arr[..., i + dr, j + dc]``.

    Cells whose source falls outside the array get ``fill``. This is the
    whole-array analogue of reading a neighbour through the shared-memory
    halo: direction ``d`` of the per-cell gather reads the agent standing
    at ``cell + offset[d]``. The grid occupies the last two axes; any
    leading axes (e.g. a batch axis) shift lane-wise. ``xp`` is the array
    namespace of ``arr``.
    """
    h, w = arr.shape[-2:]
    out = xp.full_like(arr, fill)
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    if r0 < r1 and c0 < c1:
        out[..., r0:r1, c0:c1] = arr[..., r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return out


def winner_rank(u: np.ndarray, counts: np.ndarray, xp=np) -> np.ndarray:
    """Uniform winner index in ``[0, counts)`` from uniforms in ``(0, 1)``.

    ``floor(u * k)`` clamped to ``k - 1`` (the clamp only matters in the
    measure-zero limit ``u -> 1``); identical arithmetic on scalar and
    vector paths (and across array backends). The clamp runs in place on
    the intermediate ``k - 1`` array (fresh by construction), so the call
    performs no allocating namespace dispatch beyond the gather itself.
    """
    k = xp.asarray(counts, dtype=np.int64)
    pick = (xp.asarray(u, dtype=np.float64) * k).astype(np.int64)
    hi = k - 1
    if getattr(hi, "ndim", 0) == 0:
        # 0-d inputs: numpy arithmetic on 0-d arrays returns scalars,
        # which cannot be ``out=`` targets. The engines always pass
        # vectors, so this path only serves scalar callers.
        return xp.minimum(pick, xp.maximum(hi, 0))
    xp.maximum(hi, 0, out=hi)
    xp.minimum(pick, hi, out=hi)
    return hi


def group_by_cell(cell: np.ndarray, direction: np.ndarray, xp=np):
    """Group candidate moves by target cell, in gather-direction order.

    ``cell[i]`` is candidate ``i``'s target-cell key and ``direction[i]``
    its gather direction (:data:`DIRECTION_INDEX` of source minus target).
    Returns ``(order, start, count)``: ``order`` sorts the candidates by
    cell, then by direction (the per-cell gather's candidate order);
    ``start[j]`` is the position in ``order`` of distinct cell ``j``'s
    first candidate and ``count[j]`` its number of candidates. Distinct
    cells come out in ascending key order.

    One agent stands at each source cell, so a cell's candidates have
    distinct directions and the single sort key ``cell * 8 + direction``
    is unique: any sort algorithm yields the same order.
    """
    order = xp.argsort(cell * 8 + direction.astype(cell.dtype, copy=False))
    sorted_cell = cell[order]
    head = xp.empty(sorted_cell.shape, dtype=bool)
    head[:1] = True
    xp.not_equal(sorted_cell[1:], sorted_cell[:-1], out=head[1:])
    start = xp.nonzero(head)[0]
    return order, start, xp.diff(start, append=sorted_cell.size)
