"""Batched tiled engine: shared-memory-faithful sweeps over many lanes.

:class:`BatchedTiledEngine` is to :class:`repro.cuda.tiled_engine.TiledEngine`
what :class:`repro.engine.batched.BatchedEngine` is to the vectorized
engine: ``B`` replications advance in lock-step, and the per-cell stages
execute tile by tile — but each tile now loads *every lane's* image in one
cut (``(B, 18, 18)`` for the grid matrices, ``(2, B, 18, 18)`` for the
fused pheromone stack), so a replication sweep launches one tile pass for
the whole batch instead of one per lane.

Bit-identity: the scan/select kernels are row-independent and the movement
winner draw is keyed per (lane, cell), so the tile partition only reorders
independent work. Every lane's trajectory equals the solo engines' (and
:class:`BatchedEngine`'s) bit for bit — pinned by the golden-digest parity
tests.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..config import SimulationConfig
from ..engine.batched import BatchedEngine
from ..errors import LaunchConfigError
from ..grid.neighborhood import ABSOLUTE_OFFSETS
from ..rng import Stream
from ..types import Group
from ..engine.conflict import winner_rank
from .tiling import DEFAULT_TILE, OUT_OF_GRID, TileDecomposition

__all__ = ["BatchedTiledEngine"]

#: Padding sentinel of the batched grid (mirrors ``engine.batched._PAD_CELL``):
#: any non-zero value reads as "occupied", so padding cells behave exactly
#: like the tiled engine's out-of-grid halo sentinel.
_PAD_CELL = -1


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
    def _stage_scan(self, t: int) -> None:
        xp = self.xp
        for tile in self.tiles:
            shared_mat = tile.load_shared(self.mats, fill=OUT_OF_GRID, xp=xp)
            shared_idx = tile.load_shared(self.index, fill=0, xp=xp)
            shared_tau = None
            if self.pher is not None:
                # One (2, B, 18, 18) image: both groups, every lane.
                shared_tau = tile.load_shared(self.pher.stack, fill=0.0, xp=xp)
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
            # emptiness test is the only bounds check needed (exactly the
            # solo tiled engine's data flow).
            candidates = shared_mat[bb[:, None], nr, nc] == 0
            rows = self.rows[bb, agent]
            dist = self._dist_stack[gslot, bb, rows]  # (n, 8)
            tau = (
                shared_tau[gslot[:, None], bb[:, None], nr, nc]
                if shared_tau is not None
                else None
            )
            if self._homogeneous:
                values = self.model.scan_values(dist, candidates, tau)
            else:
                # Partition by parameter group, as the batched engine does:
                # scan_values is row-independent, so per-group calls over
                # row subsets are bit-identical to one shared call.
                values = xp.empty(dist.shape, dtype=np.float64)
                pg = self._lane_pg[bb]
                for gid, (_params, model, _lanes) in enumerate(
                    self._param_groups
                ):
                    gsel = pg == gid
                    if not bool(xp.any(gsel)):
                        continue
                    values[gsel] = model.scan_values(
                        dist[gsel],
                        candidates[gsel],
                        tau[gsel] if tau is not None else None,
                    )
            self.scan[bb, agent, :] = values
            self.front_empty[bb, agent] = candidates[:, 0]

    # ------------------------------------------------------------------
    # Stage 3: per-tile movement (all lanes per tile)
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> np.ndarray:
        xp = self.xp
        ts = self.tiles.tile_size
        moved = xp.zeros(self.n_lanes, dtype=np.int64)

        if self.pher is not None:
            if self._homogeneous:
                self.pher.evaporate()
            else:
                for _params, _model, lanes in self._param_groups:
                    self.pher.evaporate_lanes(lanes, _params)

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
            # (lane, cell) address the batched/vectorized engines use.
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
            costs = self._step_costs[windir]
            src_r = self.rows[bb, winners]
            src_c = self.cols[bb, winners]
            self.mats[bb, dst_r, dst_c] = self.ids[bb, winners]
            self.index[bb, dst_r, dst_c] = winners
            self.mats[bb, src_r, src_c] = 0
            self.index[bb, src_r, src_c] = 0
            self.rows[bb, winners] = dst_r
            self.cols[bb, winners] = dst_c
            self.tour[bb, winners] += costs
            if self.pher is not None:
                # Fused deposit into the (2, B, H, W) stack (see
                # BatchedEngine._stage_move for the clamp argument).
                gslot = (self.ids[bb, winners] == int(Group.BOTTOM)).astype(
                    np.int64
                )
                if self._homogeneous:
                    amounts = self.pher.params.deposit_q / self.tour[bb, winners]
                    self.pher.deposit_stacked(gslot, bb, dst_r, dst_c, amounts)
                else:
                    amounts = self._deposit_q[bb] / self.tour[bb, winners]
                    self.pher.deposit_raw_stacked(
                        gslot, bb, dst_r, dst_c, amounts
                    )
                    for _params, _model, lanes in self._param_groups:
                        self.pher.clamp_max(lanes, _params.tau_max)
            self.backend.scatter_add(moved, bb, 1)
        return moved
