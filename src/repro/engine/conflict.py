"""Conflict resolution helpers for the movement stage (paper IV.d, Figure 4).

Several agents may target the same empty cell in the same step. Instead of
serialising the writes with atomics, the paper inverts the problem: each
*empty cell* gathers the set of neighbouring agents whose FUTURE
coordinates point at it and picks one winner uniformly at random.

:func:`winner_rank` is that uniform pick, shared by every engine. A cell
with a single candidate has nothing to pick, so the sequential and
whole-array engines draw only for contested cells (2+ candidates); draws
are keyed by cell, so skipping a draw changes no other. The whole-array
engine reaches the same per-cell choice with no sort and no per-cell
gather, through the *claim masks* of :func:`claim_heads`: a cell's
candidates in gather-direction order are its mask's set bits in
ascending order, so the rank-``k`` winner is the ``k``-th set bit
(:data:`NTH_BIT`). :func:`shift` is the per-cell gather's neighbour read
over a whole grid, kept for the tests. The tables are module constants,
built once at import.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..grid.neighborhood import ABSOLUTE_OFFSETS, offsets_array
from ..types import Group

__all__ = ["shift", "winner_rank", "claim_heads", "DIRECTION_INDEX", "DIRECTION_TABLE"]

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

#: Bit ``d`` of each 8-bit claim mask, ``(256, 8)``.
_MASK_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1

#: Number of set bits of each claim mask: its cell's candidate count.
POPCOUNT = _MASK_BITS.sum(axis=1)

#: ``NTH_BIT[m * 8 + k]`` is the ``k``-th set bit of claim mask ``m``
#: (ascending) for ``k < POPCOUNT[m]``: the direction of its cell's
#: rank-``k`` candidate. A stable sort puts the set bits first, in order.
NTH_BIT = np.argsort(1 - _MASK_BITS, axis=1, kind="stable").ravel()

#: Neighbour offsets ``(drow, dcol)`` by 16-way slot code
#: ``group_slot * 8 + slot`` (TOP frame first, then BOTTOM).
SLOT_OFFSETS16 = np.concatenate([offsets_array(g) for g in (Group.TOP, Group.BOTTOM)])

#: Gather direction of each slot code's target cell back to its source:
#: the mover stands at ``target - offset``.
SLOT_DIRECTION16 = DIRECTION_TABLE[
    (1 - SLOT_OFFSETS16[:, 0]) * 3 + (1 - SLOT_OFFSETS16[:, 1])
]


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
    measure-zero limit ``u -> 1``). A count of 1 gives rank 0 for every
    ``u``, so callers skip the draw for single-candidate cells and pass
    only contested ones. Identical arithmetic on scalar and
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


def claim_heads(target, direction, claim, backend):
    """Each target cell's claim mask, once, at the cell's head candidate.

    Candidate ``i`` targets cell ``target[i]`` from gather
    ``direction[i]``; ``claim`` is a zeroed integer buffer indexed by
    cell, which is left zeroed. One agent stands on each source cell, so
    a cell's candidates have distinct directions, and one scatter-add of
    their claim bits ``1 << direction`` ORs them into the cell's mask.
    Returns ``(mask, heads)``: ``heads`` are the candidates with no lower
    claim bit in their cell — one per distinct cell, in candidate order —
    and ``mask`` their cells' claim masks. The work is proportional to
    the candidates, not the cells.
    """
    bit = 1 << direction
    backend.scatter_add(claim, target, bit.astype(claim.dtype))
    mask = claim.take(target)
    claim[target] = 0
    heads = backend.xp.nonzero((mask & (bit - 1)) == 0)[0]
    return mask.take(heads), heads
