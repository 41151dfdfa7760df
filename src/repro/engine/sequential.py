"""Sequential reference engine — the single-threaded CPU stand-in.

Processes agents and contested cells one at a time in plain Python loops,
the way the paper's CPU baseline does, with two deliberate properties:

* **bit-identical trajectories** — the decision arithmetic is a scalar
  transcription of the vectorized kernels (IEEE-754 doubles reproduce the
  exact same bits when the same operation sequence is replayed), and the
  keyed Philox draws are pre-generated per step with the same
  ``(stream, step, lane)`` keys the vectorized engine uses;
* **scalar execution character** — every agent decision and every contested
  cell is resolved inside a Python loop, making this the slow per-agent
  platform against which the data-parallel engine's speedup (Fig. 5b/5c)
  is measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..agents.population import NO_FUTURE
from ..backend import resolve_backend
from ..config import SimulationConfig
from ..errors import EngineError
from ..rng import Stream
from ..types import Group
from .base import ABS_STEP_COSTS, BaseEngine
from .conflict import DIRECTION_INDEX

__all__ = ["SequentialEngine"]


class SequentialEngine(BaseEngine):
    """Scalar per-agent / per-cell reference implementation."""

    platform = "sequential"

    def __init__(self, config: SimulationConfig, seed: Optional[int] = None) -> None:
        # The scalar loops read every cell and agent one element at a time;
        # on a device backend each read would be a host round-trip, so this
        # reference engine is host-only by design.
        if resolve_backend(config.backend).capabilities.is_gpu:
            raise EngineError(
                "the sequential reference engine is host-only; use "
                "backend='numpy' or a whole-array engine for device backends"
            )
        super().__init__(config, seed)
        # Python-native lookup tables: identical float values (tolist is
        # exact), much cheaper to index from interpreted loops.
        self._dist_list = {
            g: self.dist[g].table.tolist() for g in (Group.TOP, Group.BOTTOM)
        }
        self._off_list = {
            g: [tuple(map(int, off)) for off in self._offsets[g]]
            for g in (Group.TOP, Group.BOTTOM)
        }
        n = self.pop.n_agents
        #: Scan rows as Python lists (mirrored into ``self.scan`` for API
        #: parity with the other engines).
        self._scan_rows: List[List[float]] = [[0.0] * 8 for _ in range(n + 1)]

    def _on_model_swapped(self) -> None:
        """Refresh the Python-native distance lookup after a model swap."""
        self._dist_list = {
            g: self.dist[g].table.tolist() for g in (Group.TOP, Group.BOTTOM)
        }

    # ------------------------------------------------------------------
    # Stage 1: initial calculation
    # ------------------------------------------------------------------
    def _stage_scan(self, t: int) -> None:
        env, pop = self.env, self.pop
        h, w = env.shape
        mat_l = env.mat.tolist()
        tau_l = None
        if self.pher is not None:
            tau_l = {
                g: self.pher.field(g).tolist() for g in (Group.TOP, Group.BOTTOM)
            }
        ids_l = pop.ids.tolist()
        rows_l = pop.rows.tolist()
        cols_l = pop.cols.tolist()
        front: List[bool] = [False] * (pop.n_agents + 1)
        model = self.model

        for a in range(1, pop.n_agents + 1):
            group = Group(ids_l[a])
            row = rows_l[a]
            col = cols_l[a]
            offsets = self._off_list[group]
            dist_row = self._dist_list[group][row]
            tau_field = tau_l[group] if tau_l is not None else None
            scan_row = self._scan_rows[a]
            for s in range(8):
                dr, dc = offsets[s]
                r = row + dr
                c = col + dc
                if 0 <= r < h and 0 <= c < w and mat_l[r][c] == 0:
                    tau = tau_field[r][c] if tau_field is not None else 0.0
                    scan_row[s] = model.scan_value_scalar(dist_row[s], tau)
                    if s == 0:
                        front[a] = True
                else:
                    scan_row[s] = 0.0
        pop.front_empty[:] = front
        # Mirror into the shared scan matrix so cross-engine inspection and
        # the support-stage reset behave uniformly.
        self.scan[1:] = self._scan_rows[1:]

    # ------------------------------------------------------------------
    # Stage 2: tour construction
    # ------------------------------------------------------------------
    def _stage_select(self, t: int) -> int:
        pop = self.pop
        model = self.model
        variates = model.scalar_prepare(self.rng, t, pop.n_agents)
        ids_l = pop.ids.tolist()
        rows_l = pop.rows.tolist()
        cols_l = pop.cols.tolist()
        front_l = pop.front_empty.tolist()
        forward_priority = self.config.forward_priority

        fut_r: List[int] = [NO_FUTURE] * (pop.n_agents + 1)
        fut_c: List[int] = [NO_FUTURE] * (pop.n_agents + 1)
        eligible = self.eligible_mask(t).tolist()
        decided = 0
        for a in range(1, pop.n_agents + 1):
            if not eligible[a]:
                continue
            if forward_priority and front_l[a]:
                slot = 0
            else:
                slot = model.select_scalar(self._scan_rows[a], a, variates)
            if slot >= 0:
                dr, dc = self._off_list[Group(ids_l[a])][slot]
                fut_r[a] = rows_l[a] + dr
                fut_c[a] = cols_l[a] + dc
                decided += 1
        pop.future_rows[:] = fut_r
        pop.future_cols[:] = fut_c
        return decided

    # ------------------------------------------------------------------
    # Stage 3: movement
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> int:
        env, pop = self.env, self.pop
        w = env.width
        mat, index = env.mat, env.index

        if self.pher is not None:
            self.pher.evaporate()

        # Gather phase: group candidate agents per destination cell. Every
        # future cell was empty when scanned and nothing has moved since, so
        # each key below is an empty cell; candidates are kept in absolute
        # gather-direction order, matching the whole-array engines' sort.
        fut_r = pop.future_rows.tolist()
        fut_c = pop.future_cols.tolist()
        rows_l = pop.rows.tolist()
        cols_l = pop.cols.tolist()
        pending: Dict[int, List[Tuple[int, int]]] = {}
        for a in range(1, pop.n_agents + 1):
            fr = fut_r[a]
            if fr == NO_FUTURE:
                continue
            fc = fut_c[a]
            d = DIRECTION_INDEX[(rows_l[a] - fr, cols_l[a] - fc)]
            key = fr * w + fc
            if key in pending:
                pending[key].append((d, a))
            else:
                pending[key] = [(d, a)]

        if not pending:
            return 0
        # One batched draw for all contested cells, keyed by cell lane —
        # the same keys the vectorized engine uses.
        lanes = np.fromiter(pending.keys(), dtype=np.uint64, count=len(pending))
        uniforms = self.rng.uniform(Stream.MOVE_WINNER, t, lanes).tolist()

        deposit_q = self.pher.params.deposit_q if self.pher is not None else 0.0
        moved = 0
        for (key, cands), u in zip(pending.items(), uniforms):
            cands.sort()  # ascending direction index
            k = len(cands)
            pick = int(u * k)
            if pick >= k:  # u -> 1 rounding guard, same clamp as winner_rank
                pick = k - 1
            d, a = cands[pick]
            fr, fc = divmod(key, w)
            src_r = rows_l[a]
            src_c = cols_l[a]
            mat[fr, fc] = pop.ids[a]
            index[fr, fc] = a
            mat[src_r, src_c] = 0
            index[src_r, src_c] = 0
            pop.rows[a] = fr
            pop.cols[a] = fc
            tour = float(pop.tour[a]) + ABS_STEP_COSTS[d]
            pop.tour[a] = tour
            if self.pher is not None:
                self.pher.deposit_scalar(
                    Group(int(pop.ids[a])), fr, fc, deposit_q / tour
                )
            moved += 1
        return moved
