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

from ..agents import Population
from ..backend import resolve_backend
from ..config import SimulationConfig
from ..errors import EngineError
from ..grid import build_distance_tables, offsets_array
from ..models import PheromoneField, build_model
from ..rng import PhiloxKeyedRNG, Stream
from ..types import Group
from .base import ABS_STEP_COSTS, SoloEngine, StepReport, place_config, require_float64
from .conflict import DIRECTION_INDEX

__all__ = ["SequentialEngine"]


class SequentialEngine(SoloEngine):
    """Scalar per-agent / per-cell reference implementation."""

    platform = "sequential"

    def __init__(self, config: SimulationConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.seed = int(config.seed if seed is None else seed)
        self.backend = resolve_backend(config.backend)
        # The scalar loops read every cell and agent one element at a time;
        # on a device backend each read would be a host round-trip, so this
        # reference engine is host-only by design.
        if self.backend.capabilities.is_gpu:
            raise EngineError(
                "the sequential reference engine is host-only; use "
                "backend='numpy' or a whole-array engine for device backends"
            )
        require_float64(self.backend)
        self.xp = self.backend.xp
        self.rng = PhiloxKeyedRNG(self.seed, backend=self.backend)
        self.model = build_model(config.params, backend=self.backend)

        # Data preparation stage (paper IV.a): environment + index matrix,
        # property matrix, distance tables (constant memory) and pheromone
        # field. Obstacles (extension) are carved out before agents are
        # placed; placement draws only from the seed (see place_config).
        self.env = place_config(config, self.seed).to_backend(self.backend)
        self.pop = Population.from_environment(self.env)
        self.pher: Optional[PheromoneField] = (
            PheromoneField(config.height, config.width, config.params, self.backend)
            if self.model.uses_pheromone
            else None
        )
        self.dist = None
        self._build_tables(getattr(config.params, "scan_range", 1))
        self.t = 0
        # A step draws at most one value per agent lane (sentinel included).
        self.rng.reserve(self.pop.n_agents + 1)

        # Neighbour offsets per group as Python tuples, cheap to index from
        # interpreted loops.
        self._off_list = {
            g: [tuple(map(int, off)) for off in offsets_array(g)]
            for g in (Group.TOP, Group.BOTTOM)
        }

        # Heterogeneous-velocity extension (paper Section VII future work):
        # a keyed draw per agent marks the slow class; slow agents are
        # movement-eligible only every ``slow_period``-th step (staggered by
        # agent index so the crowd does not pulse in lockstep).
        self._slow_mask = self.xp.zeros(self.pop.n_agents + 1, dtype=bool)
        if config.slow_fraction > 0.0:
            lanes = self.xp.arange(self.pop.n_agents + 1, dtype=np.uint64)
            u = self.rng.uniform(Stream.SPEED_CLASS, 0, lanes)
            self._slow_mask = u < config.slow_fraction
            self._slow_mask[0] = False
        # The mask is static; the host flag spares a per-step device sync.
        self._any_slow = bool(self._slow_mask.any())

        # Step-hook schedule (components framework): hooks fire once,
        # before their firing step executes, in (fire_step, config-order)
        # order — a pure function of the step counter, so hooked runs are
        # bit-identical across engines.
        self._pending_hooks = sorted(
            ((hook.fire_step(), idx, hook) for idx, hook in enumerate(config.hooks)),
            key=lambda entry: entry[:2],
        )

    def _build_tables(self, scan_range: int) -> None:
        """The distance tables (built again only for a new ``scan_range``)
        and the model's slot tables as Python lists.

        The scan reads the model's per-slot term
        (:meth:`~repro.models.MovementModel.slot_table`) — the same table
        the whole-array engines gather from — so the scalar and vector
        paths share one evaluation of it.
        """
        if self.dist is None or self.dist[Group.TOP].scan_range != scan_range:
            self.dist = build_distance_tables(
                self.config.height, scan_range, backend=self.backend
            )
        # tolist is exact: identical float values, cheaper to index from
        # the scalar loops.
        self._slot_list = {
            g: self.model.slot_table(self.dist[g].table).tolist()
            for g in (Group.TOP, Group.BOTTOM)
        }

    def _apply_due_hooks(self, t: int) -> None:
        """Fire every scheduled hook whose firing step has arrived."""
        while self._pending_hooks and self._pending_hooks[0][0] <= t:
            _, _, hook = self._pending_hooks.pop(0)
            hook.apply(self)

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def eligible_mask(self, t: int) -> np.ndarray:
        """Movement eligibility per agent at step ``t`` (velocity classes).

        Fast agents are always eligible; slow agents only when
        ``(t + index) % slow_period == 0``. With ``slow_fraction = 0``
        (default) everyone is always eligible.
        """
        if not self._any_slow:
            return self.xp.ones(self.pop.n_agents + 1, dtype=bool)
        idx = self.xp.arange(self.pop.n_agents + 1, dtype=np.int64)
        on_beat = (t + idx) % self.config.slow_period == 0
        return ~self._slow_mask | on_beat

    def swap_model(self, params) -> None:
        """Swap the movement model mid-run (panic-alarm extension).

        The environment, populations and — when both models use it — the
        pheromone field carry over; switching to a pheromone-free model
        discards the field (a subsequent switch back starts from tau0).
        The scan's slot tables are rebuilt for the new bundle.
        """
        params.validate()
        model = build_model(params, backend=self.backend)
        if model.uses_pheromone:
            if self.pher is None:
                self.pher = PheromoneField(
                    self.config.height, self.config.width, params, self.backend
                )
            else:
                self.pher.params = params
        else:
            self.pher = None
        self.model = model
        self._build_tables(getattr(params, "scan_range", 1))

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Run one synchronous simulation step (scan, select, move)."""
        t = self.t
        if self._pending_hooks:
            self._apply_due_hooks(t)
        decided, pending = self._stage_select(t, *self._stage_scan(t))
        moved = self._stage_move(t, pending)
        new_crossings = self.pop.record_crossings(
            self.config.height, self.config.cross_rows, t
        )
        self.t += 1
        return StepReport(
            step=t,
            decided=int(decided),
            moved=int(moved),
            new_crossings=int(new_crossings),
        )

    def validate_state(self) -> None:
        """Cross-check env/pop invariants (used liberally in tests)."""
        self.env.validate()
        self.pop.validate_against(self.env)

    # ------------------------------------------------------------------
    # Stage 1: initial calculation
    # ------------------------------------------------------------------
    def _stage_scan(self, t: int) -> Tuple[List[List[float]], List[bool]]:
        """Scan rows (one per agent, sentinel row 0 included) and forward flags.

        ``front[a]`` is True when agent ``a``'s forward cell is empty; both
        go straight to :meth:`_stage_select`.
        """
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
        scan: List[List[float]] = [[0.0] * 8 for _ in range(pop.n_agents + 1)]
        front: List[bool] = [False] * (pop.n_agents + 1)
        model = self.model

        for a in range(1, pop.n_agents + 1):
            group = Group(ids_l[a])
            row = rows_l[a]
            col = cols_l[a]
            offsets = self._off_list[group]
            term_row = self._slot_list[group][row]
            tau_field = tau_l[group] if tau_l is not None else None
            scan_row = scan[a]
            for s in range(8):
                dr, dc = offsets[s]
                r = row + dr
                c = col + dc
                if 0 <= r < h and 0 <= c < w and mat_l[r][c] == 0:
                    tau = tau_field[r][c] if tau_field is not None else 0.0
                    scan_row[s] = model.scan_value_scalar(term_row[s], tau)
                    if s == 0:
                        front[a] = True
        return scan, front

    # ------------------------------------------------------------------
    # Stage 2: tour construction
    # ------------------------------------------------------------------
    def _stage_select(
        self, t: int, scan: List[List[float]], front: List[bool]
    ) -> Tuple[int, Dict[int, List[Tuple[int, int]]]]:
        """Decide every agent's move; returns ``(decided, pending)``.

        ``pending`` maps each target cell ``row * width + col`` to its
        candidates ``(gather direction, agent)`` in agent order: the
        per-cell gather of the movement stage, handed over directly.
        Every target was empty when scanned and nothing has moved since.
        """
        pop = self.pop
        model = self.model
        variates = model.scalar_prepare(self.rng, t, pop.n_agents)
        ids_l = pop.ids.tolist()
        rows_l = pop.rows.tolist()
        cols_l = pop.cols.tolist()
        forward_priority = self.config.forward_priority
        w = self.env.width

        pending: Dict[int, List[Tuple[int, int]]] = {}
        eligible = self.eligible_mask(t).tolist()
        decided = 0
        for a in range(1, pop.n_agents + 1):
            if not eligible[a]:
                continue
            if forward_priority and front[a]:
                slot = 0
            else:
                slot = model.select_scalar(scan[a], a, variates)
            if slot >= 0:
                dr, dc = self._off_list[Group(ids_l[a])][slot]
                key = (rows_l[a] + dr) * w + cols_l[a] + dc
                pending.setdefault(key, []).append((DIRECTION_INDEX[(-dr, -dc)], a))
                decided += 1
        return decided, pending

    # ------------------------------------------------------------------
    # Stage 3: movement
    # ------------------------------------------------------------------
    def _stage_move(self, t: int, pending: Dict[int, List[Tuple[int, int]]]) -> int:
        env, pop = self.env, self.pop
        w = env.width
        mat, index = env.mat, env.index

        if self.pher is not None:
            self.pher.evaporate()

        rows_l = pop.rows.tolist()
        cols_l = pop.cols.tolist()
        if not pending:
            return 0
        # One batched draw for the contested cells (2+ candidates), keyed
        # by cell lane — the same keys the whole-array engines use. A cell
        # with one candidate takes it without a draw (winner_rank(u, 1) is
        # 0 for every u); the draws come back in ``pending`` order.
        contested = [key for key, cands in pending.items() if len(cands) > 1]
        uniforms = iter(())
        if contested:
            lanes = np.array(contested, dtype=np.uint64)
            uniforms = iter(self.rng.uniform(Stream.MOVE_WINNER, t, lanes).tolist())

        deposit_q = self.pher.params.deposit_q if self.pher is not None else 0.0
        moved = 0
        for key, cands in pending.items():
            pick = 0
            k = len(cands)
            if k > 1:
                # Ascending gather direction: the whole-array engine's
                # claim-mask bit order.
                cands.sort()
                pick = int(next(uniforms) * k)
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
