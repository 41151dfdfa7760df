"""Tiled engine: the shared-memory-faithful GPU emulation.

Executes the per-cell stages (initial calculation and movement) tile by
tile, each tile reading only its 18x18 shared-memory image loaded through
:meth:`repro.cuda.tiling.Tile.load_shared` — the exact data flow of the
paper's kernels, including the halo ring and the out-of-grid sentinel. The
results are bit-identical to :class:`repro.engine.vectorized.VectorizedEngine`
(property-tested), which is the correctness argument for the paper's tiled
shared-memory implementation. All array math routes through the engine's
resolved backend (``self.xp``), so the tile sweep runs unchanged on NumPy
or CuPy device arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimulationConfig
from ..engine.vectorized import VectorizedEngine
from ..grid.neighborhood import ABSOLUTE_OFFSETS
from ..errors import LaunchConfigError
from ..rng import Stream
from ..types import Group
from .tiling import DEFAULT_TILE, OUT_OF_GRID, TileDecomposition
from ..engine.conflict import winner_rank

__all__ = ["TiledEngine"]


class TiledEngine(VectorizedEngine):
    """Per-tile execution of the scan and movement kernels."""

    platform = "tiled"

    def __init__(
        self,
        config: SimulationConfig,
        seed: Optional[int] = None,
        tile_size: int = DEFAULT_TILE,
    ) -> None:
        if config.height % tile_size or config.width % tile_size:
            raise LaunchConfigError(
                f"tiled engine requires grid edges that are multiples of "
                f"{tile_size} (paper Section IV.a); got "
                f"{config.height}x{config.width}"
            )
        super().__init__(config, seed)
        self.tiles = TileDecomposition(config.height, config.width, tile_size)

    # ------------------------------------------------------------------
    # Stage 1: per-tile initial calculation
    # ------------------------------------------------------------------
    def _stage_scan(self, t: int) -> None:
        xp = self.xp
        env, pop = self.env, self.pop
        mat = env.mat
        index = env.index
        for tile in self.tiles:
            shared_mat = tile.load_shared(mat, fill=OUT_OF_GRID, xp=xp)
            shared_idx = tile.load_shared(index, fill=0, xp=xp)
            shared_tau = None
            if self.pher is not None:
                # The paper loads both group fields into one 36x18 local
                # array; the (2, tile+2, tile+2) stack cut is equivalent.
                shared_tau = tile.load_shared(self.pher.stack, fill=0.0, xp=xp)
            # Fused per-tile scan: both groups' agents in one launch.
            # gslot follows the pheromone-stack slot order (TOP=0,
            # BOTTOM=1); the scan rows are disjoint per agent, so the
            # fused write order matches the per-group passes bit for bit.
            interior_mat = shared_mat[1:-1, 1:-1]
            sel = (interior_mat == int(Group.TOP)) | (
                interior_mat == int(Group.BOTTOM)
            )
            lr, lc = xp.nonzero(sel)
            if lr.size == 0:
                continue
            gslot = (interior_mat[lr, lc] == int(Group.BOTTOM)).astype(np.int64)
            idx = shared_idx[1:-1, 1:-1][lr, lc].astype(np.int64)
            # Local coordinates within the shared image.
            slr = lr + 1
            slc = lc + 1
            off = self._offsets_stack[gslot]  # (n, 8, 2)
            nr = slr[:, None] + off[:, :, 0]
            nc = slc[:, None] + off[:, :, 1]
            candidates = shared_mat[nr, nc] == 0
            rows = pop.rows[idx]
            dist = self._dist_stack[gslot, rows]
            tau = (
                shared_tau[gslot[:, None], nr, nc]
                if shared_tau is not None
                else None
            )
            self.scan[idx] = self.model.scan_values(dist, candidates, tau)
            pop.front_empty[idx] = candidates[:, 0]

    # ------------------------------------------------------------------
    # Stage 3: per-tile movement
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> int:
        xp = self.xp
        env, pop = self.env, self.pop
        mat, index = env.mat, env.index
        ts = self.tiles.tile_size

        if self.pher is not None:
            self.pher.evaporate()

        # Kernel-launch snapshot: every tile reads the start-of-stage state.
        mat0 = mat.copy()
        index0 = index.copy()

        moved = 0
        for tile in self.tiles:
            shared_idx = tile.load_shared(index0, fill=0, xp=xp)
            interior_empty = (
                tile.load_shared(mat0, fill=OUT_OF_GRID, xp=xp)[1:-1, 1:-1] == 0
            )
            grow = tile.row0 + xp.arange(ts)[:, None]
            gcol = tile.col0 + xp.arange(ts)[None, :]

            counts = xp.zeros((ts, ts), dtype=np.int16)
            matches = []
            for dr, dc in ABSOLUTE_OFFSETS:
                nidx = shared_idx[1 + dr : 1 + ts + dr, 1 + dc : 1 + ts + dc]
                fr = pop.future_rows[nidx]
                fc = pop.future_cols[nidx]
                match = interior_empty & (nidx > 0) & (fr == grow) & (fc == gcol)
                matches.append(match)
                counts += match
            rr, cc = xp.nonzero(counts > 0)
            if rr.size == 0:
                continue
            dst_r = grow[rr, 0]
            dst_c = gcol[0, cc]
            lanes = env.cell_lane(dst_r, dst_c)
            u = self.rng.uniform(Stream.MOVE_WINNER, t, lanes)
            pick = winner_rank(u, counts[rr, cc], xp=xp)

            cum = xp.zeros(rr.size, dtype=np.int64)
            winners = xp.full(rr.size, -1, dtype=np.int64)
            windir = xp.zeros(rr.size, dtype=np.int64)
            for d in range(8):
                m = matches[d][rr, cc]
                hit = m & (cum == pick)
                # Unconditional where-select: each contested cell hits in
                # exactly one direction, so this equals the masked write —
                # without a per-direction any() host sync.
                drr, dcc = ABSOLUTE_OFFSETS[d]
                src = shared_idx[1 + rr + drr, 1 + cc + dcc]
                winners = xp.where(hit, src, winners)
                windir = xp.where(hit, d, windir)
                cum += m
            agents = winners
            costs = self._step_costs[windir]
            src_r = pop.rows[agents]
            src_c = pop.cols[agents]
            mat[dst_r, dst_c] = pop.ids[agents]
            index[dst_r, dst_c] = agents
            mat[src_r, src_c] = 0
            index[src_r, src_c] = 0
            pop.rows[agents] = dst_r
            pop.cols[agents] = dst_c
            pop.tour[agents] += costs
            if self.pher is not None:
                # Fused deposit (see VectorizedEngine._stage_move): one
                # scatter into the (2, H, W) stack for both groups.
                amounts = self.params_deposit(agents)
                gslot = (pop.ids[agents] == int(Group.BOTTOM)).astype(np.int64)
                self.pher.deposit_stacked(gslot, dst_r, dst_c, amounts)
            moved += int(agents.size)
        return moved
