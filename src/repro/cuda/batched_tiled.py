"""Tiled engines: the shared-memory-faithful GPU emulation, one or many lanes.

:class:`BatchedTiledEngine` executes the per-cell stages (initial
calculation and movement) tile by tile, each tile reading only its
18x18 shared-memory image loaded through
:meth:`repro.cuda.tiling.Tile.load_shared` — the exact data flow of the
paper's kernels, including the halo ring and the out-of-grid sentinel.
Each tile loads *every lane's* image in one cut (``(B, 18, 18)`` for the
grid matrices, ``(2, B, 18, 18)`` for the fused pheromone stack), so a
replication sweep launches one tile pass for the whole batch instead of
one per lane. :class:`TiledEngine` is the one-lane case, the solo
``tiled`` engine.

Bit-identity: the scan/select kernels are row-independent and the movement
winner draw is keyed per (lane, cell), so the tile partition only reorders
independent work. Every lane's trajectory equals the sequential engine's
and :class:`~repro.engine.batched.BatchedEngine`'s bit for bit — pinned by
the golden-digest parity tests — which is the correctness argument for the
paper's tiled shared-memory implementation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..config import SimulationConfig
from ..engine.batched import BatchedEngine
from ..engine.conflict import winner_rank
from ..engine.vectorized import OneLane
from ..errors import LaunchConfigError
from ..grid.neighborhood import ABSOLUTE_OFFSETS
from ..rng import Stream
from ..types import Group
from .tiling import DEFAULT_TILE, OUT_OF_GRID, TileDecomposition

__all__ = ["BatchedTiledEngine", "TiledEngine"]


class BatchedTiledEngine(BatchedEngine):
    """Per-tile execution of the batched scan and movement kernels."""

    platform = "batched_tiled"

    def __init__(
        self,
        config: Union[SimulationConfig, Sequence[SimulationConfig]],
        seeds: Sequence[int],
        tile_size: int = DEFAULT_TILE,
    ) -> None:
        super().__init__(config, seeds)
        for cfg in self.configs:
            if cfg.height % tile_size or cfg.width % tile_size:
                raise LaunchConfigError(
                    f"tiled engine requires grid edges that are multiples "
                    f"of {tile_size} (paper Section IV.a); got "
                    f"{cfg.height}x{cfg.width}"
                )
        # Lane edges are all multiples of the tile, so the padded maxima
        # are too; tiles covering padding see only occupied sentinels.
        self.tiles = TileDecomposition(self.h_max, self.w_max, tile_size)
        #: Lane index broadcast over a tile, for the per-cell future gathers.
        self._bidx = self.xp.arange(self.n_lanes)[:, None, None]

    # ------------------------------------------------------------------
    # Stage 1: per-tile initial calculation (all lanes per tile)
    # ------------------------------------------------------------------
    def _stage_scan(self, t: int):
        xp = self.xp
        # The tiles write scan rows, forward flags and has-a-candidate
        # flags in agent order; the stage hands select the deciding fused
        # rows and keeps none of them.
        size = self.n_agents + 1
        scan = xp.zeros((self.n_lanes, size, 8), dtype=np.float64)
        front = xp.zeros((self.n_lanes, size), dtype=bool)
        movable = xp.zeros((self.n_lanes, size), dtype=bool)
        for tile in self.tiles:
            shared_mat = tile.load_shared(self.mats, fill=OUT_OF_GRID, xp=xp)
            shared_idx = tile.load_shared(self.index, fill=0, xp=xp)
            shared_tau = None
            if self.tau is not None:
                # One (2, B, 18, 18) image: both groups, every lane.
                shared_tau = tile.load_shared(self.tau.stack, fill=0.0, xp=xp)
            interior_mat = shared_mat[:, 1:-1, 1:-1]
            sel = (interior_mat == int(Group.TOP)) | (
                interior_mat == int(Group.BOTTOM)
            )
            bb, lr, lc = xp.nonzero(sel)
            if bb.size == 0:
                continue
            gslot = (interior_mat[bb, lr, lc] == int(Group.BOTTOM)).astype(
                np.int64
            )
            agent = shared_idx[:, 1:-1, 1:-1][bb, lr, lc].astype(np.int64)
            # Local coordinates within the shared image.
            slr = lr + 1
            slc = lc + 1
            off = self._offsets_stack[gslot]  # (n, 8, 2)
            nr = slr[:, None] + off[:, :, 0]
            nc = slc[:, None] + off[:, :, 1]
            # Halo sentinels and padding cells both read non-zero, so the
            # emptiness test is the only bounds check needed.
            candidates = shared_mat[bb[:, None], nr, nc] == 0
            # Each agent's (group slot, lane, row) entry of the slot tables.
            table_rows = (gslot * self.n_lanes + bb) * self.h_max + self.rows[
                bb, agent
            ]
            tau = (
                shared_tau[gslot[:, None], bb[:, None], nr, nc]
                if shared_tau is not None
                else None
            )
            scan[bb, agent, :] = self._scan_values(bb, table_rows, candidates, tau)
            front[bb, agent] = candidates[:, 0]
            movable[bb, agent] = candidates.any(axis=1)
        # Select sees only the deciding rows with an empty neighbour, as in
        # the whole-array scan; the other deciding rows are stuck.
        slot = self._slot_all
        rows = self._deciding_rows(front.reshape(-1).take(slot))
        _, rows, stuck = self._split_stuck(
            rows, movable.reshape(-1).take(slot.take(rows))
        )
        return scan.reshape(-1, 8).take(slot.take(rows), axis=0), rows, stuck

    # ------------------------------------------------------------------
    # Stage 3: per-tile movement (all lanes per tile)
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> np.ndarray:
        xp = self.xp
        ts = self.tiles.tile_size
        moved = xp.zeros(self.n_lanes, dtype=np.int64)
        self._evaporate()

        # Kernel-launch snapshot: every tile reads the start-of-stage state.
        mats0 = self.mats.copy()
        index0 = self.index.copy()

        for tile in self.tiles:
            shared_idx = tile.load_shared(index0, fill=0, xp=xp)
            interior_empty = (
                tile.load_shared(mats0, fill=OUT_OF_GRID, xp=xp)[:, 1:-1, 1:-1]
                == 0
            )
            grow = tile.row0 + xp.arange(ts)[:, None]  # (ts, 1)
            gcol = tile.col0 + xp.arange(ts)[None, :]  # (1, ts)

            counts = xp.zeros((self.n_lanes, ts, ts), dtype=np.int16)
            matches: List[np.ndarray] = []
            for dr, dc in ABSOLUTE_OFFSETS:
                nidx = shared_idx[
                    :, 1 + dr : 1 + ts + dr, 1 + dc : 1 + ts + dc
                ]
                fr = self.future_rows[self._bidx, nidx]
                fc = self.future_cols[self._bidx, nidx]
                match = (
                    interior_empty
                    & (nidx > 0)
                    & (fr == grow[None])
                    & (fc == gcol[None])
                )
                matches.append(match)
                counts += match
            bb, rr, cc = xp.nonzero(counts > 0)
            if bb.size == 0:
                continue
            dst_r = tile.row0 + rr
            dst_c = tile.col0 + cc
            # Winner draws key by each lane's *real* width — the same
            # (lane, cell) address the whole-array engine uses.
            cell_lanes = dst_r.astype(np.uint64) * self._widths_u64[
                bb
            ] + dst_c.astype(np.uint64)
            u = self.rng.uniform_at(Stream.MOVE_WINNER, t, bb, cell_lanes)
            pick = winner_rank(u, counts[bb, rr, cc], xp=xp)

            cum = xp.zeros(bb.size, dtype=np.int64)
            winners = xp.full(bb.size, -1, dtype=np.int64)
            windir = xp.zeros(bb.size, dtype=np.int64)
            for d in range(8):
                m = matches[d][bb, rr, cc]
                hit = m & (cum == pick)
                # Unconditional where-select: each contested cell hits in
                # exactly one direction, so this equals the masked write —
                # without a per-direction any() host sync.
                drr, dcc = ABSOLUTE_OFFSETS[d]
                src = shared_idx[bb, 1 + rr + drr, 1 + cc + dcc]
                winners = xp.where(hit, src, winners)
                windir = xp.where(hit, d, windir)
                cum += m
            self._commit_moves(
                bb, bb * (self.n_agents + 1) + winners, dst_r, dst_c,
                self._padded_cell(bb, dst_r, dst_c), windir, moved,
            )
        return moved


class TiledEngine(OneLane, BatchedTiledEngine):
    """The solo tiled engine: a one-lane :class:`BatchedTiledEngine`."""

    platform = "tiled"

    def __init__(
        self,
        config: SimulationConfig,
        seed: Optional[int] = None,
        tile_size: int = DEFAULT_TILE,
    ) -> None:
        super().__init__(config, seed, tile_size=tile_size)
