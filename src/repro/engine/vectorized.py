"""Whole-array data-parallel engine — the GPU stand-in.

Each NumPy array lane plays the role of one CUDA thread: the scan and tour
construction stages vectorize over agents (the paper launches 8x agents
threads for tour construction; we fuse the 8 slot lanes into the trailing
axis). The movement stage is agent-keyed: one sort over the deciding
agents groups them by target cell, and each contested cell then picks its
winner exactly as the paper's per-cell movement kernel does (same
candidate order, same keyed draw), at O(N log N) in the population
instead of O(H·W) in the grid. All stages read only the synchronous state
from the start of the step, so the semantics match a kernel launch
boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..agents.population import NO_FUTURE
from ..rng import Stream
from ..types import Group
from .base import ABS_STEP_COSTS, BaseEngine
from .conflict import DIRECTION_TABLE, group_by_cell
# Traced benchmark runs patch both names on this module (perfbench/paper.py).
from .conflict import shift, winner_rank  # noqa: F401

__all__ = ["VectorizedEngine"]


class VectorizedEngine(BaseEngine):
    """Data-parallel engine over whole-grid / whole-population arrays."""

    platform = "vectorized"

    def __init__(self, config, seed: Optional[int] = None) -> None:
        super().__init__(config, seed)
        #: Gather-direction and tour-increment tables, resident on the device.
        self._direction_table = self.backend.from_host(DIRECTION_TABLE)
        self._step_costs = self.backend.from_host(np.asarray(ABS_STEP_COSTS))

    # ------------------------------------------------------------------
    # Stage 1: initial calculation (per-agent scan)
    # ------------------------------------------------------------------
    def _stage_scan(self, t: int) -> None:
        # One fused launch over the concatenated TOP+BOTTOM rows: the
        # per-group offset/distance/pheromone tables are gathered through
        # the ``[gslot, ...]`` stacks, and the model kernel (row-independent
        # by construction) sees both groups in one call.
        xp = self.xp
        env, pop = self.env, self.pop
        h, w = env.shape
        mat = env.mat
        idx = self._fused_idx
        if idx.size == 0:
            return
        gslot = self._fused_gslot
        rows = pop.rows[idx]
        cols = pop.cols[idx]
        off = self._offsets_stack[gslot]  # (N, 8, 2)
        nr = rows[:, None] + off[:, :, 0]
        nc = cols[:, None] + off[:, :, 1]
        inb = (nr >= 0) & (nr < h) & (nc >= 0) & (nc < w)
        # nr/nc are fresh operator results and unneeded unclipped once the
        # bounds mask exists, so the clips run in place (no allocation).
        nrc = xp.clip(nr, 0, h - 1, out=nr)
        ncc = xp.clip(nc, 0, w - 1, out=nc)
        candidates = inb & (mat[nrc, ncc] == 0)
        dist = self._dist_stack[gslot, rows]  # (N, 8)
        tau = None
        if self.pher is not None:
            tau = self.pher.stack[gslot[:, None], nrc, ncc]
        self.scan[idx] = self.model.scan_values(dist, candidates, tau)
        pop.front_empty[idx] = candidates[:, 0]

    # ------------------------------------------------------------------
    # Stage 2: tour construction (per-agent decision)
    # ------------------------------------------------------------------
    def _stage_select(self, t: int) -> int:
        # Fused tour construction: one model.select over both groups (the
        # RNG keys each row by its agent index, so the draws match the
        # per-group passes exactly). The decided count stays on-device —
        # the base step() syncs it once at the recording boundary.
        xp = self.xp
        pop = self.pop
        idx = self._fused_idx
        if idx.size == 0:
            return 0
        slots = self.model.select(self.scan[idx], self.rng, t, idx)
        if self.config.forward_priority:
            # Paper modification: the forward cell, when empty, wins
            # outright (slot 0 in 0-based numbering). ``slots`` is fresh
            # from the model kernel, so the override writes in place.
            slots[pop.front_empty[idx]] = 0
        if self._any_slow:
            valid = (slots >= 0) & self.eligible_mask(t)[idx]
        else:
            # Homogeneous velocities (the default): everyone is eligible,
            # so the all-true mask and its gather are dead dispatches.
            valid = slots >= 0
        invalid = ~valid
        # In-place masked writes on the fresh intermediates replace three
        # xp.where calls; the resulting values are identical element-wise.
        slots[invalid] = 0
        off = self._offsets_stack[self._fused_gslot, slots]  # (N, 2)
        fr = pop.rows[idx] + off[:, 0]
        fc = pop.cols[idx] + off[:, 1]
        fr[invalid] = NO_FUTURE
        fc[invalid] = NO_FUTURE
        pop.future_rows[idx] = fr
        pop.future_cols[idx] = fc
        return xp.count_nonzero(valid)

    # ------------------------------------------------------------------
    # Stage 3: movement (agent-keyed conflict resolution)
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> int:
        xp = self.xp
        env, pop = self.env, self.pop
        mat, index = env.mat, env.index

        if self.pher is not None:
            self.pher.evaporate()

        # Deciding agents whose target cell is empty: the candidates the
        # per-cell gather would find (the sentinel row 0 carries NO_FUTURE).
        agent = xp.nonzero(pop.future_rows != NO_FUTURE)[0]
        agent = agent[mat[pop.future_rows[agent], pop.future_cols[agent]] == 0]
        if agent.size == 0:
            return 0
        fut_r = pop.future_rows[agent]
        fut_c = pop.future_cols[agent]
        direction = self._direction_table[
            (pop.rows[agent] - fut_r + 1) * 3 + (pop.cols[agent] - fut_c + 1)
        ]
        cell = env.cell_lane(fut_r, fut_c)  # also the cell's winner-draw lane
        order, start, count = group_by_cell(cell, direction, xp=xp)
        u = self.rng.uniform(Stream.MOVE_WINNER, t, cell[order[start]])
        pick = order[start + winner_rank(u, count, xp=xp)]
        winners = agent[pick]
        dst_r = fut_r[pick]
        dst_c = fut_c[pick]
        move_cost = self._step_costs[direction[pick]]
        src_r = pop.rows[winners]
        src_c = pop.cols[winners]

        # Execute the exchanges: destinations were empty, sources occupied,
        # and the two sets are disjoint, so plain fancy indexing is safe.
        mat[dst_r, dst_c] = pop.ids[winners]
        index[dst_r, dst_c] = winners
        mat[src_r, src_c] = 0
        index[src_r, src_c] = 0
        pop.rows[winners] = dst_r
        pop.cols[winners] = dst_c
        pop.tour[winners] += move_cost

        if self.pher is not None:
            # Fused deposit: one scatter into the (2, H, W) stack covers
            # both groups (winners hold disjoint cells; the tau_max clamp
            # is idempotent) — and drops the per-group any() host syncs.
            amounts = self.params_deposit(winners)
            gslot = (pop.ids[winners] == int(Group.BOTTOM)).astype(np.int64)
            self.pher.deposit_stacked(gslot, dst_r, dst_c, amounts)
        return int(winners.size)

    def params_deposit(self, winners: np.ndarray) -> np.ndarray:
        """Eq. 5 deposit amounts ``q / L_k`` for the winning agents.

        Reads the *live* pheromone parameters so mid-run model swaps
        (panic alarm) take effect immediately.
        """
        q = self.pher.params.deposit_q
        return q / self.pop.tour[winners]
