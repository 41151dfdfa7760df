"""Whole-array engine — every stage one launch over every agent of every lane.

The paper runs each stage of a step as one GPU launch over all agents.
:class:`BatchedEngine` does the same with whole-array NumPy stages and
lifts them to a leading lane axis, so ``B`` independent replications
advance through a single set of launches per step — the same
data-parallel move the paper makes across agents, applied across runs.
A solo run is the one-lane case: the ``vectorized`` engine
(:class:`~repro.engine.vectorized.VectorizedEngine`) is a
``BatchedEngine`` with B=1.

Lanes need not share a scenario: per-agent arrays are padded to the
largest lane's population and the grids to the largest lane's shape, with
an ``active`` mask (and obstacle-sentinel padding cells) guaranteeing that
padding slots never scan, decide, move, deposit or cross. Lane ``b`` draws
its randomness with the Philox key of ``seeds[b]`` (see
:class:`repro.rng.batched.BatchedPhiloxRNG`), which makes each lane
**bit-identical** to a :class:`~repro.engine.sequential.SequentialEngine`
run with the same config and seed — the property
``tests/test_engine_batched.py`` pins down trajectory-for-trajectory, over
mixed-scenario batches too.

Every stage addresses the batched state through flat linear indices.
Agent ``i`` of lane ``b`` is element ``b * (n + 1) + i`` of the raveled
property arrays. The grids are stored with a one-cell halo ring around
every lane, ``(B, H + 2, W + 2)`` with ``Hp = H + 2`` and ``Wp = W + 2``
— the halo ring of the paper's shared-memory tiles (Sec. IV.a) — so cell
``(r, c)`` of lane ``b`` is element ``(b * Hp + r + 1) * Wp + c + 1`` of
the raveled padded grids, and the pheromone stack adds
``gslot * B * Hp * Wp`` for the group slot. The halo reads as an obstacle
in ``mats`` (0 in ``index``), so the scan reads all eight neighbours of
every agent through one static linear-offset table with no bounds test.
Every gather is a 1-D ``take`` and every scatter a 1-D index write, so the
one-lane engine costs what a solo layout would and there is one indexing
scheme for every lane count. ``mats``, ``index`` and ``tau.stack`` are
interior views, so every reader outside the stages sees the unpadded
``(B, H, W)`` grids.

Under forward priority (the paper's modification, on by default) an
agent whose forward cell is empty moves forward without evaluating eq. 1
/ eq. 2, so the scan and select stages run the neighbour gather, the
model and its random draws only on the fused rows whose forward cell is
blocked (or whose lane has forward priority off); every other row takes
slot 0 with no model or RNG work. Of the deciding rows, only those with an
empty neighbour go on to the slot-table/τ gathers and the model; the rest
take -1 ("no move"), which is what every model returns for them. Philox
draws are keyed by (seed, stream, step, agent), so skipping rows changes
no other row's variates. The scan gathers each row's entry of its
parameter group's slot table (:meth:`~repro.models.MovementModel.slot_table`
of the distance stack, built at construction and on every lane swap),
so eq. 2 needs no division or power per row.

Batching wins because a small-grid simulation step is dominated by the
fixed overhead of its few dozen NumPy kernel dispatches (budgeted per
step, in free flow and jammed, by ``tests/test_dispatch_budget.py``);
fusing ``B`` replications into one dispatch sequence amortises that
overhead ``B`` ways (see ``benchmarks/test_bench_batched_sweep.py`` for
same-shape lanes and ``benchmarks/test_bench_padded_sweep.py`` for
padded mixed-scenario lanes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..agents.population import Population
from ..backend import resolve_backend
from ..backend.heap import pin_heap_thresholds
from ..backend.profiling import ProfilingBackend
from ..config import SimulationConfig
from ..errors import EngineError
from ..grid import absolute_offsets_array, build_distance_tables
from ..grid.environment import Environment
from ..models import PheromoneField, build_model
from ..models.pheromone import deposit_at, evaporate_field, group_slot
from ..rng import BatchedPhiloxRNG, RaggedLaneRNG, Stream
from ..types import CellState, Group
from .base import ABS_STEP_COSTS, RunResult, place_config, require_float64
from .conflict import (
    NTH_BIT,
    POPCOUNT,
    SLOT_DIRECTION16,
    SLOT_OFFSETS16,
    claim_heads,
    winner_rank,
)

__all__ = [
    "BatchedEngine",
    "BatchedStepReport",
    "BatchedTimedResult",
    "run_batched",
]

#: Cell label written into grid padding (cells beyond a lane's real extent).
#: Any non-zero value reads as "unavailable" to every kernel, exactly like
#: a static obstacle, so padding needs no special-casing on the hot paths.
_PAD_CELL = int(CellState.OBSTACLE)

#: Padding-slot values of the property-matrix fields that are not 0/False.
_FIELD_PAD = {
    "crossed_step": -1,
    "crossed_tour": np.nan,
}


def _stack_padded(
    arrays: Sequence[np.ndarray], shape: Tuple[int, ...], fill, halo: int = 0
) -> np.ndarray:
    """Per-lane host arrays stacked into one ``(B, *shape)`` array.

    Each lane's array fills the leading corner of its slot and ``fill``
    pads the rest. ``halo`` adds that many ``fill`` cells before and
    after every axis of ``shape`` (one allocation, one write per lane).
    A single lane that needs no padding is returned as a view, which
    spares a solo run the copy.
    """
    if halo == 0 and len(arrays) == 1 and arrays[0].shape == tuple(shape):
        return arrays[0][None]
    padded = tuple(n + 2 * halo for n in shape)
    out = np.full((len(arrays), *padded), fill, dtype=arrays[0].dtype)
    for b, arr in enumerate(arrays):
        out[(b, *(slice(halo, halo + n) for n in arr.shape))] = arr
    return out


@dataclass(frozen=True)
class BatchedStepReport:
    """Per-step outcome counts, one entry per replication lane."""

    step: int
    decided: np.ndarray
    moved: np.ndarray
    new_crossings: np.ndarray


@dataclass
class BatchedTimedResult:
    """Per-lane :class:`RunResult` list plus shared wall-clock timing."""

    results: List[RunResult]
    wall_seconds: float
    #: The shared lane config for homogeneous batches; ``None`` when the
    #: lanes were padded over heterogeneous scenarios (see ``configs``).
    config: Optional[SimulationConfig] = field(repr=False, default=None)
    seeds: Tuple[int, ...] = ()
    #: Per-lane configs, aligned with ``seeds`` (always populated).
    configs: Tuple[SimulationConfig, ...] = field(repr=False, default=())

    @property
    def n_lanes(self) -> int:
        """Number of replication lanes in the batch."""
        return len(self.results)

    @property
    def wall_seconds_per_lane(self) -> float:
        """Amortised wall time attributable to one replication."""
        return self.wall_seconds / max(1, self.n_lanes)


class BatchedEngine:
    """Run ``B`` independent replications in lock-step whole-array stages.

    ``config`` is either one :class:`~repro.config.SimulationConfig` shared
    by every lane (the homogeneous case — lanes differ only in their seed)
    or a sequence of per-lane configs aligned with ``seeds`` (the padded
    heterogeneous case). Lanes may differ in population, grid shape,
    placement band and extension knobs; they must share the movement-model
    parameters and the step budget (the batch advances in lock-step).

    State is a solo run's state with a leading lane axis, padded to the
    largest lane: ``mats``/``index`` are ``(B, Hmax, Wmax)`` views of
    halo-ringed ``(B, Hmax + 2, Wmax + 2)`` arrays whose halo and padding
    cells hold the obstacle sentinel (``mats``) and 0 (``index``), and the
    property-matrix fields are ``(B, n_max + 1)``. The ``active`` mask
    marks each lane's live agent slots; padding slots carry the sentinel
    ID 0 and never enter any stage. Scan values of the rows that decide
    pass from scan to select with those rows' fused indices and are not
    kept between steps.
    """

    platform = "batched"

    def __init__(
        self,
        config: Union[SimulationConfig, Sequence[SimulationConfig]],
        seeds: Sequence[int],
    ) -> None:
        pin_heap_thresholds()
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise EngineError("BatchedEngine needs at least one seed")
        if isinstance(config, SimulationConfig):
            if len(set(seeds)) != len(seeds):
                raise EngineError(f"replication seeds must be distinct, got {seeds}")
            configs: Tuple[SimulationConfig, ...] = tuple(config for _ in seeds)
        else:
            configs = tuple(config)
            if not all(isinstance(c, SimulationConfig) for c in configs):
                raise EngineError("per-lane configs must be SimulationConfig")
            if len(configs) != len(seeds):
                raise EngineError(
                    f"need one config per lane, got {len(configs)} configs "
                    f"for {len(seeds)} seeds"
                )
            for i in range(len(seeds)):
                for j in range(i):
                    if seeds[i] == seeds[j] and configs[i] == configs[j]:
                        raise EngineError(
                            f"replication lanes must be distinct (config, seed) "
                            f"pairs; lanes {j} and {i} repeat seed {seeds[i]}"
                        )
        rep_cfg = configs[0]
        for c in configs[1:]:
            if c.params != rep_cfg.params:
                raise EngineError(
                    "batched lanes must share the movement-model parameters"
                )
            if c.steps != rep_cfg.steps:
                raise EngineError(
                    "batched lanes must share the step budget "
                    f"(got {rep_cfg.steps} and {c.steps})"
                )
            if c.backend != rep_cfg.backend:
                raise EngineError(
                    "batched lanes must share the array backend "
                    f"(got {rep_cfg.backend!r} and {c.backend!r})"
                )
        self.config = rep_cfg
        self.configs = configs
        self.seeds = seeds
        self.n_lanes = len(seeds)
        self.backend = resolve_backend(rep_cfg.backend)
        require_float64(self.backend)
        xp = self.xp = self.backend.xp
        self.rng = BatchedPhiloxRNG(seeds, backend=self.backend)
        self.model = build_model(rep_cfg.params, backend=self.backend)
        self.t = 0

        # Per-lane geometry, padded to the largest lane. Host copies drive
        # the (pure-Python) setup logic; device mirrors feed the kernels.
        heights_host = np.array([c.height for c in configs], dtype=np.int64)
        widths_host = np.array([c.width for c in configs], dtype=np.int64)
        self._heights_host = heights_host
        self._widths_u64 = self.backend.from_host(widths_host.astype(np.uint64))
        cross_host = np.array([c.cross_rows for c in configs], dtype=np.int64)
        #: Per lane, the first row of the TOP group's crossing band and the
        #: end of the BOTTOM group's.
        self._cross_top = self.backend.from_host(heights_host - cross_host)
        self._cross_bottom = self.backend.from_host(cross_host)
        self.h_max = int(heights_host.max())
        self.w_max = int(widths_host.max())

        # Placement is a pure function of (config, seed, group); build each
        # lane's environment with a solo keyed RNG on the host (setup cost
        # only), stack into padded host arrays, and upload the whole batch
        # in one transfer. Padding and halo cells read as obstacles.
        envs = [place_config(cfg, seed) for cfg, seed in zip(configs, seeds)]
        pops = [Population.from_environment(env) for env in envs]
        grid = (self.h_max, self.w_max)
        #: Padded grid extents: every lane carries a one-cell halo ring.
        self._hp = self.h_max + 2
        self._wp = self.w_max + 2
        #: ``(B, Hmax + 2, Wmax + 2)`` grids, which the stages read and
        #: write by padded flat index.
        self._mats_p = self.backend.from_host(
            _stack_padded([env.mat for env in envs], grid, _PAD_CELL, halo=1)
        )
        self._index_p = self.backend.from_host(
            _stack_padded([env.index for env in envs], grid, 0, halo=1)
        )
        #: ``(B, Hmax, Wmax)`` interior views for every reader outside the
        #: stages.
        self.mats = self._mats_p[:, 1:-1, 1:-1]
        self.index = self._index_p[:, 1:-1, 1:-1]

        lane_agents_host = np.array([p.n_agents for p in pops], dtype=np.int64)
        self.lane_agents = self.backend.from_host(lane_agents_host)
        self.n_agents = int(lane_agents_host.max())
        size = self.n_agents + 1
        #: Live-slot mask: ``active[b, i]`` iff agent ``i`` exists in lane
        #: ``b`` (the sentinel row 0 and padding slots are inactive).
        self.active = (
            xp.arange(size)[None, :] <= self.lane_agents[:, None]
        ) & (xp.arange(size)[None, :] > 0)

        # The property-matrix fields, ``(B, n_max + 1)`` each; padding
        # slots hold a fresh Population's values (no ID, no tour, never
        # crossed).
        for name in Population.FIELDS:
            setattr(self, name, self.backend.from_host(_stack_padded(
                [getattr(p, name) for p in pops], (size,), _FIELD_PAD.get(name, 0)
            )))

        # Group membership, flattened into fused rows: the TOP agents of
        # every lane, then the BOTTOM agents of every lane. Scan and select
        # run as ONE whole-batch launch over these rows — the model kernels
        # are row-independent and the ragged RNG keys row i by
        # (seeds[rep[i]], agent[i]), so row order never changes a draw.
        # Agent indexing is top group first within each lane, so membership
        # is ragged across lanes as soon as populations differ.
        members = [p.members(g) for g in (Group.TOP, Group.BOTTOM) for p in pops]
        rep_host = np.concatenate([
            np.full(m.size, i % self.n_lanes, dtype=np.int64)
            for i, m in enumerate(members)
        ])
        agent_host = np.concatenate(members).astype(np.int64, copy=False)
        #: Fused rows ``[0, _n_top)`` are TOP agents, the rest BOTTOM.
        self._n_top = int(sum(m.size for m in members[: self.n_lanes]))
        gslot_host = (np.arange(rep_host.size) >= self._n_top).astype(np.int64)
        self._rep_all = self.backend.from_host(rep_host)
        self._agent_all = self.backend.from_host(agent_host)
        #: Flat index of each fused row into the raveled ``(B, n+1)`` arrays.
        self._slot_all = self.backend.from_host(rep_host * size + agent_host)
        #: Padded flat cell of each fused row's lane origin ``(0, 0)``; a
        #: row's cell is this plus ``r * Wp + c``.
        self._cell_base_all = self.backend.from_host(
            (rep_host * self._hp + 1) * self._wp + 1
        )
        #: Offset of each fused row's group slot into the raveled padded
        #: pheromone stack (its lane is already in the cell),
        self._tau_base_all = self.backend.from_host(
            gslot_host * (self.n_lanes * self._hp * self._wp)
        )
        #: ... and of its (group slot, lane) rows into the slot tables.
        self._dist_base_all = self.backend.from_host(
            (gslot_host * self.n_lanes + rep_host) * self.h_max
        )
        self._ragged_rng_all: Optional[RaggedLaneRNG] = (
            self.rng.ragged(self._rep_all) if rep_host.size else None
        )
        # Select and winner draws are at most one per fused row.
        self.rng.reserve(rep_host.size)
        #: Padded linear offset ``dr * Wp + dc`` of each 16-way slot code
        #: ``gslot * 8 + slot`` (int16 keeps the static tables small; the
        #: sums with int64 positions are int64) ...
        lin16 = (SLOT_OFFSETS16[:, 0] * self._wp + SLOT_OFFSETS16[:, 1]).astype(
            np.int16
        )
        self._code_lin = self.backend.from_host(lin16)
        #: ... and as each fused row's ``(N, 8)`` neighbour offsets.
        self._nbr_lin = self.backend.from_host(np.repeat(
            lin16.reshape(2, 8), [self._n_top, rep_host.size - self._n_top], axis=0
        ))
        #: Gather direction of each slot code's target back to its mover.
        self._code_dir = self.backend.from_host(SLOT_DIRECTION16)
        #: Claim-mask buffer over the padded cells, zero between steps
        #: (int32: the narrowest type every backend's scatter-add takes).
        self._claim = xp.zeros(self.n_lanes * self._hp * self._wp, dtype=np.int32)
        self._popcount = self.backend.from_host(POPCOUNT)
        self._nth_bit = self.backend.from_host(NTH_BIT)
        #: Padded linear offset of each absolute gather direction: a
        #: winner's source cell is its destination plus this.
        directions = absolute_offsets_array()
        self._dir_lin = self.backend.from_host(
            directions[:, 0] * self._wp + directions[:, 1]
        )

        self._build_dist_stack(int(getattr(rep_cfg.params, "scan_range", 1)))
        #: Both groups' pheromone fields for every lane, ``(2, B, H, W)``
        #: (halo-ringed like the grids).
        self.tau: Optional[PheromoneField] = (
            self._new_pheromone(rep_cfg.params) if self.model.uses_pheromone else None
        )

        #: Tour-increment table, resident on the device.
        self._step_costs = self.backend.from_host(np.asarray(ABS_STEP_COSTS))

        # Paper modification, per lane: see _deciding_rows.
        fwd_host = np.array([c.forward_priority for c in configs], dtype=bool)
        #: Per fused row, whether its lane applies forward priority
        #: (``None`` when every lane does).
        self._forward_rows = (
            None if fwd_host.all() else self.backend.from_host(fwd_host[rep_host])
        )

        # Heterogeneous-velocity extension: per-lane keyed draws, identical
        # to each solo engine's mask under the matching seed.
        self._slow_mask = xp.zeros((self.n_lanes, size), dtype=bool)
        slow_fractions = np.array([c.slow_fraction for c in configs])
        self._any_slow = bool(np.any(slow_fractions > 0.0))
        self._slow_periods = self.backend.from_host(
            np.array([c.slow_period for c in configs], dtype=np.int64)
        )
        if self._any_slow:
            lanes = xp.arange(size, dtype=np.uint64)
            u = self.rng.uniform(Stream.SPEED_CLASS, 0, lanes)
            self._slow_mask = (
                u < self.backend.from_host(slow_fractions)[:, None]
            ) & self.active

        # Per-lane movement-model partitioning (step-hook support). Lanes
        # start homogeneous (the constructor enforces shared params); a
        # hook's swap_lane_model may split them into parameter groups,
        # after which each stage runs the shared fast path per group over
        # that group's rows — bit-identical because every model kernel is
        # row-independent and the ragged RNG keys each row by its own
        # lane.
        self._lane_params: List = [c.params for c in configs]
        self._models = {rep_cfg.params: self.model}
        self._refresh_param_groups()

        # Step-hook schedule: (fire_step, lane, config-order) — each hook
        # mutates only its own lane, so cross-lane order is immaterial and
        # per-lane order matches the solo engine's.
        self._pending_hooks = sorted(
            ((hook.fire_step(), lane, idx, hook)
             for lane, cfg in enumerate(configs)
             for idx, hook in enumerate(cfg.hooks)),
            key=lambda entry: entry[:3],
        )

    def _new_pheromone(self, params) -> PheromoneField:
        return PheromoneField(
            self.h_max, self.w_max, params, self.backend,
            n_lanes=self.n_lanes, halo=1,
        )

    def _build_dist_stack(self, scan_range: int) -> None:
        """Per-lane distance tables stacked to ``(2, B, Hmax, 8)``.

        Group slot leading, matching the pheromone stack; rows beyond a
        lane's height carry inf (never candidates). Tables are pure
        functions of (height, scan_range), so duplicate heights share one
        host build; the stack uploads once. The scan reads each parameter
        group's slot table built from it (:meth:`_refresh_param_groups`).
        """
        heights = self._heights_host
        by_height = {
            int(h): build_distance_tables(int(h), scan_range)
            for h in np.unique(heights)
        }
        dist_host = np.full(
            (2, self.n_lanes, self.h_max, 8), np.inf, dtype=np.float64
        )
        for g in (Group.TOP, Group.BOTTOM):
            for b, h in enumerate(heights):
                dist_host[group_slot(g), b, : int(h)] = by_height[int(h)][g].table
        self._dist_stack = self.backend.from_host(dist_host)
        self._scan_range = int(scan_range)

    def _refresh_param_groups(self) -> None:
        """Rebuild the params → lanes partition and each group's slot table.

        A group's table is its model's :meth:`~repro.models.MovementModel.slot_table`
        of the distance stack, ``(2, B, Hmax, 8)``, rebuilt here after a
        lane swap or a distance-stack rebuild so a new bundle's scan never
        reads another bundle's terms.
        """
        gids: Dict = {}  # params -> group id, in first-lane order
        lane_gid = np.array(
            [gids.setdefault(p, len(gids)) for p in self._lane_params], dtype=np.int64
        )
        #: ``(params, model, slot table as (rows, 8))`` per group.
        self._param_groups = [
            (
                params,
                self._models[params],
                self._models[params].slot_table(self._dist_stack).reshape(-1, 8),
            )
            for params in gids
        ]
        self._lane_pg = self.backend.from_host(lane_gid)
        self._homogeneous = len(gids) == 1
        if self._homogeneous:
            # All lanes share one bundle again (possibly after every lane
            # swapped to the same variant): restore the single-model fast
            # path exactly as the constructor set it up.
            params, model, self._table = self._param_groups[0]
            self.model = model
            if self.tau is not None:
                self.tau.params = params
        if self.tau is not None:
            # Each lane's eq. 3 / eq. 5 constants, so lanes on different
            # bundles evaporate, deposit and clamp with their own.
            table = np.array([
                (1.0 - p.rho, p.tau_min, p.deposit_q, p.tau_max)
                for p in self._lane_params
            ])
            self._tau_keep, self._tau_min, self._deposit_q, self._tau_max = (
                self.backend.from_host(np.ascontiguousarray(col)) for col in table.T
            )

    # ------------------------------------------------------------------
    # Step hooks
    # ------------------------------------------------------------------
    def _apply_due_hooks(self, t: int) -> None:
        """Fire every scheduled hook whose firing step has arrived."""
        while self._pending_hooks and self._pending_hooks[0][0] <= t:
            _, lane, _, hook = self._pending_hooks.pop(0)
            hook.apply_lane(self, lane)

    def swap_lane_model(self, lane: int, params) -> None:
        """Swap one lane's movement model mid-run (panic-alarm extension).

        The environment, populations and — when old and new models both
        use it — the pheromone field carry over. When every lane ends on
        the same bundle (always, with one lane), the shared state follows
        the new bundle: the distance stack is rebuilt for a new
        ``scan_range`` (every bundle's slot table is rebuilt on each
        swap), and a pheromone-free model drops the pheromone
        stack (a later switch back starts from tau0). Otherwise the lanes
        would disagree on that shared state, so a swap that changes
        ``scan_range`` or pheromone use raises. The default
        :func:`~repro.components.hooks.panic_variant` bundles change
        neither.
        """
        lane = int(lane)
        if not (0 <= lane < self.n_lanes):
            raise EngineError(
                f"lane must be in [0, {self.n_lanes}), got {lane}"
            )
        params.validate()
        if params == self._lane_params[lane]:
            return
        model = self._models.get(params)
        if model is None:
            model = build_model(params, backend=self.backend)
            self._models[params] = model
        lane_params = list(self._lane_params)
        lane_params[lane] = params
        scan_range = int(getattr(params, "scan_range", 1))
        if all(p == params for p in lane_params):
            if scan_range != self._scan_range:
                self._build_dist_stack(scan_range)
            if not model.uses_pheromone:
                self.tau = None
            elif self.tau is None:
                self.tau = self._new_pheromone(params)
        elif scan_range != self._scan_range:
            raise EngineError(
                "batched lanes cannot disagree on scan_range "
                f"(lane {lane} wants {scan_range}, the others use "
                f"{self._scan_range})"
            )
        elif model.uses_pheromone != (self.tau is not None):
            raise EngineError(
                "batched lanes cannot disagree on pheromone use "
                f"(swap to {model.name!r} on a "
                f"{'pheromone' if self.tau is not None else 'pheromone-free'} "
                "batch)"
            )
        self._lane_params = lane_params
        self._refresh_param_groups()

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def _eligible(self, t: int) -> np.ndarray:
        """Movement eligibility ``(B, n+1)`` at step ``t`` (velocity classes)."""
        xp = self.xp
        if not self._any_slow:
            return xp.ones((self.n_lanes, self.n_agents + 1), dtype=bool)
        idx = xp.arange(self.n_agents + 1, dtype=np.int64)
        on_beat = (t + idx[None, :]) % self._slow_periods[:, None] == 0
        return ~self._slow_mask | on_beat

    # ------------------------------------------------------------------
    # Stage 1: initial calculation (per-agent scan, all lanes)
    # ------------------------------------------------------------------
    def _deciding_rows(self, front_empty) -> np.ndarray:
        """Fused rows that evaluate eq. 1 / eq. 2 this step.

        Under forward priority (the paper's modification) a row whose
        forward cell is empty takes slot 0 outright, so it neither scans
        its neighbours nor draws. Every other row decides: its forward
        cell is blocked, or its lane has forward priority off.
        """
        forward = front_empty
        if self._forward_rows is not None:
            forward = forward & self._forward_rows
        return self.xp.nonzero(~forward)[0]

    def _split_stuck(self, rows, has_candidate):
        """Split deciding rows into those with an empty neighbour and the rest.

        Returns ``(keep, rows[keep], stuck)``. A stuck row has no empty
        neighbour, so eq. 1 / eq. 2 would give it no move (every model
        returns -1 on an all-false candidate row); it skips the model and
        its draws, which are keyed per agent, so no other draw changes.
        ``keep`` and ``stuck`` are ``None`` when no row is stuck, so a
        launch without stuck rows pays no compaction.
        """
        if bool(has_candidate.all()):
            return None, rows, None
        keep = self.xp.nonzero(has_candidate)[0]
        return keep, rows.take(keep), rows[~has_candidate]

    def _stage_scan(self, t: int):
        """Scan values ``(n, 8)`` of the deciding fused rows that can move.

        One fused launch over every lane's TOP+BOTTOM rows finds each
        row's padded cell and forward-empty flag; only the rows
        :meth:`_deciding_rows` picks go on to the eight-neighbour gather,
        and only those with an empty neighbour to eq. 1 / eq. 2. Returns
        ``(values, rows, stuck, cell)``: ``rows`` are the fused rows
        ``values`` belong to, ``stuck`` the deciding rows with no empty
        neighbour (``None`` when there are none) and ``cell`` every fused
        row's padded cell. ``values`` is ``None`` when ``rows`` is empty,
        and all four are ``None`` when the batch has no agents.
        """
        slot = self._slot_all
        if slot.size == 0:
            return None, None, None, None
        rows = self.rows.reshape(-1).take(slot)
        # Each row's padded cell. Halo and padding cells read as
        # obstacles, so no neighbour needs a bounds test.
        cell = rows * self._wp
        cell += self.cols.reshape(-1).take(slot)
        cell += self._cell_base_all
        mats = self._mats_p.reshape(-1)
        deciding = self._deciding_rows(mats.take(cell + self._nbr_lin[:, 0]) == 0)
        if deciding.size == 0:
            return None, deciding, None, cell
        nbr = cell.take(deciding)[:, None] + self._nbr_lin.take(deciding, axis=0)
        candidates = mats.take(nbr) == 0
        # A contiguous (n, 8) bool row is one 8-byte word: non-zero iff
        # the row has a candidate.
        keep, deciding, stuck = self._split_stuck(
            deciding, candidates.view(np.uint64).reshape(-1) != 0
        )
        if keep is not None:
            if deciding.size == 0:
                return None, deciding, stuck, cell
            nbr = nbr.take(keep, axis=0)
            candidates = candidates.take(keep, axis=0)
        table_rows = self._dist_base_all.take(deciding) + rows.take(deciding)
        tau = None
        if self.tau is not None:
            nbr += self._tau_base_all.take(deciding)[:, None]
            tau = self.tau.padded.reshape(-1).take(nbr)
        rep = self._rep_all.take(deciding)
        values = self._scan_values(rep, table_rows, candidates, tau)
        return values, deciding, stuck, cell

    def _scan_values(self, rep, table_rows, candidates, tau) -> np.ndarray:
        """Eq. 1/2 scan values for rows of lanes ``rep``, per parameter group.

        ``table_rows`` index each row's ``(group slot, lane, row)`` entry
        of the slot tables; every parameter group reads its own.
        """
        if self._homogeneous:
            term = self._table.take(table_rows, axis=0)
            return self.model.scan_values(term, candidates, tau)
        # scan_values is row-independent, so per-group calls over row
        # subsets are bit-identical to one shared call.
        xp = self.xp
        values = xp.empty(candidates.shape, dtype=np.float64)
        pg = self._lane_pg[rep]
        for gid, (_params, model, table) in enumerate(self._param_groups):
            sel = pg == gid
            if not bool(xp.any(sel)):
                continue
            values[sel] = model.scan_values(
                table.take(table_rows[sel], axis=0),
                candidates[sel],
                tau[sel] if tau is not None else None,
            )
        return values

    # ------------------------------------------------------------------
    # Stage 2: tour construction (per-agent decision, all lanes)
    # ------------------------------------------------------------------
    def _stage_select(self, t: int, values, rows, stuck, cell):
        """Each fused row's move, handed straight to the move stage.

        Returns ``(decided, movers)``: the per-lane count of rows that
        decided a move, and for those rows ``(lane, code, cell)`` — their
        lane, their 16-way slot code ``gslot * 8 + slot`` and the padded
        cell they stand on. ``movers`` is ``None`` when the batch has no
        agents.
        """
        # Fused tour construction over the whole batch. Every row starts
        # at slot 0 (forward); one model.select over the scan's rows
        # overwrites theirs (the ragged RNG subset keys row i with
        # replication rep[i], so each lane's rows see exactly the solo
        # draws), and the stuck rows write -1 (no move) without it.
        xp = self.xp
        slot = self._slot_all
        if slot.size == 0:
            return xp.zeros(self.n_lanes, dtype=np.int64), None
        slots = xp.zeros(slot.size, dtype=np.int64)
        if rows.size and self._homogeneous:
            slots[rows] = self.model.select(
                values, self._ragged_rng_all.subset(rows), t,
                self._agent_all.take(rows),
            )
        elif rows.size:
            # Per-group select over row subsets: the subset ragged RNG
            # still keys row i by rep[i], so every agent draws the
            # same variates as in the shared call (and the solo run).
            pg = self._lane_pg[self._rep_all.take(rows)]
            for gid, (_params, model, _table) in enumerate(self._param_groups):
                sel = pg == gid
                if not bool(xp.any(sel)):
                    continue
                sub = rows[sel]
                slots[sub] = model.select(
                    values[sel], self._ragged_rng_all.subset(sub), t,
                    self._agent_all.take(sub),
                )
        if stuck is not None:
            slots[stuck] = -1
        valid = slots >= 0
        if self._any_slow:
            # Homogeneous velocities (the default) make everyone eligible,
            # so the all-true mask and its gather are skipped.
            valid &= self._eligible(t).reshape(-1).take(slot)
        movers = xp.nonzero(valid)[0]
        # BOTTOM rows read the second half of the 16-way slot tables.
        slots[self._n_top :] += 8
        code = slots.take(movers)
        lane = self._rep_all.take(movers)
        return (
            xp.bincount(lane, minlength=self.n_lanes),
            (lane, code, cell.take(movers)),
        )

    # ------------------------------------------------------------------
    # Stage 3: movement (claim-mask conflict resolution, all lanes)
    # ------------------------------------------------------------------
    def _stage_move(self, t: int, movers) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve and execute the moves select handed over.

        Returns the per-lane ``(moved, new_crossings)`` counts. Each
        mover's target is its cell plus its slot code's offset, empty at
        the start of the step. :func:`~repro.engine.conflict.claim_heads`
        gives every target cell's claim mask once, at its head candidate.
        A cell with one candidate takes it (``winner_rank(u, 1)`` is 0 for
        every ``u``), so only contested cells draw, keyed by cell, and
        skipping the others changes no draw. The rank-``k`` winner is the
        mask's ``k``-th set bit, the same candidate the paper's per-cell
        gather picks in gather-direction order.
        """
        xp = self.xp
        self._evaporate()
        if movers is None or movers[0].size == 0:
            zero = xp.zeros(self.n_lanes, dtype=np.int64)
            return zero, zero
        lane, code, cell = movers
        target = cell + self._code_lin.take(code)
        direction = self._code_dir.take(code)
        mask, heads = claim_heads(target, direction, self._claim, self.backend)
        lane = lane.take(heads)
        dst = target.take(heads)
        direction = direction.take(heads)
        # Each cell's lane-local (row, col).
        rows, cols = xp.divmod(
            dst - lane * (self._hp * self._wp) - (self._wp + 1), self._wp
        )
        count = self._popcount.take(mask)
        contested = xp.nonzero(count > 1)[0]
        if contested.size:
            # Winner draws key each cell by its lane's *real* width,
            # matching ``Environment.cell_lane`` of a solo run.
            c_lane = lane.take(contested)
            cell_lanes = rows.take(contested).astype(np.uint64) * (
                self._widths_u64.take(c_lane)
            ) + cols.take(contested).astype(np.uint64)
            u = self.rng.uniform_at(Stream.MOVE_WINNER, t, c_lane, cell_lanes)
            rank = winner_rank(u, count.take(contested), xp=xp)
            direction[contested] = self._nth_bit.take(
                mask.take(contested) * 8 + rank
            )
        return self._commit_moves(t, lane, dst, rows, cols, direction)

    def _evaporate(self) -> None:
        """Eq. 3 on every lane, with each lane's own rate and floor."""
        if self.tau is not None:
            evaporate_field(
                self.tau.padded, self._tau_keep[:, None, None],
                self._tau_min[:, None, None], xp=self.xp,
            )

    def _commit_moves(self, t: int, lane, dst, dst_r, dst_c, direction):
        """Execute winning moves: grid, property matrix, tour, pheromone.

        ``dst`` are the winners' destinations as padded flat cells,
        ``(dst_r, dst_c)`` the same cells in their lanes and ``direction``
        their absolute gather directions; the winner stands at the
        destination plus that direction. Destinations were empty
        and sources occupied at the start of the stage, and each lane's
        winners hold disjoint cells, so plain index writes are safe.
        Returns the per-lane ``(moved, new_crossings)`` counts.
        """
        src = dst + self._dir_lin.take(direction)
        mats = self._mats_p.reshape(-1)
        index = self._index_p.reshape(-1)
        agent = index.take(src)
        slot = lane * (self.n_agents + 1) + agent
        ids = mats.take(src)
        mats[dst] = ids
        index[dst] = agent
        mats[src] = 0
        index[src] = 0
        self.rows.reshape(-1)[slot] = dst_r
        self.cols.reshape(-1)[slot] = dst_c
        tour = self.tour.reshape(-1)
        new_tour = tour.take(slot) + self._step_costs.take(direction)
        tour[slot] = new_tour
        if self.tau is not None:
            # Eq. 5 for both groups in one scatter: BOTTOM winners deposit
            # into the stack's second group slot.
            cells = dst + (ids == int(Group.BOTTOM)) * (
                self.n_lanes * self._hp * self._wp
            )
            if self._homogeneous:
                self.tau.deposit_stacked(cells, self.tau.params.deposit_q / new_tour)
            else:
                # Lanes on different bundles: each winner's own lane's
                # deposit scale and clamp.
                deposit_at(
                    self.tau.padded.reshape(-1), cells,
                    self._deposit_q.take(lane) / new_tour,
                    self._tau_max.take(lane), backend=self.backend,
                )
        moved = self.xp.bincount(lane, minlength=self.n_lanes)
        return moved, self._record_crossings(t, lane, slot, ids, dst_r, new_tour)

    def _record_crossings(self, step: int, lane, slot, ids, rows, tour) -> np.ndarray:
        """Latch the winners ``slot`` whose new ``rows`` are in their
        crossing band; returns the per-lane count of new crossings.

        Only a move can make an agent cross, because placement never
        starts one inside its own crossing band: ``SimulationConfig``
        keeps both bands within half the grid.
        """
        top = ids == int(Group.TOP)
        newly = (top & (rows >= self._cross_top.take(lane))) | (
            ~top & (rows < self._cross_bottom.take(lane))
        )
        crossed = self.crossed.reshape(-1)
        newly &= ~crossed.take(slot)
        hit = slot[newly]
        crossed[hit] = True
        self.crossed_step.reshape(-1)[hit] = step
        self.crossed_tour.reshape(-1)[hit] = tour[newly]
        return self.xp.bincount(lane[newly], minlength=self.n_lanes)

    # ------------------------------------------------------------------
    # Template step / run
    # ------------------------------------------------------------------
    def step(self) -> BatchedStepReport:
        """Advance every lane one synchronous step (scan, select, move)."""
        t = self.t
        if self._pending_hooks:
            self._apply_due_hooks(t)
        decided, movers = self._stage_select(t, *self._stage_scan(t))
        moved, new_crossings = self._stage_move(t, movers)
        self.t += 1
        return BatchedStepReport(
            step=t, decided=decided, moved=moved, new_crossings=new_crossings
        )

    def run(
        self,
        steps: Optional[int] = None,
        record_timeline: bool = True,
        callback=None,
    ) -> List[RunResult]:
        """Run all lanes for ``steps`` steps; one :class:`RunResult` per lane.

        With ``record_timeline=True`` the per-step counters stream into a
        preallocated ``(steps, B)`` buffer on the compute device (no
        per-step Python list growth, no end-of-run re-stack — peak memory
        is one buffer, written once) and transfer to the host in a single
        round-trip when the results are assembled — the recording
        boundary. ``record_timeline=False`` skips the buffers entirely;
        sweeps that only need totals should use it.

        ``callback(engine, report)`` is invoked after every step with the
        :class:`BatchedStepReport` (per-lane count arrays) — the hook the
        metric-streaming layer attaches to. Callbacks must treat engine
        state as read-only (the bit-identity guarantee assumes it); on a
        GPU backend a callback that reads the report's arrays forces a
        per-step device sync, so leave it unset on hot paths.
        """
        n = self.config.steps if steps is None else int(steps)
        xp = self.xp
        if record_timeline and n > 0:
            moved_buf = xp.zeros((n, self.n_lanes), dtype=np.int64)
            cross_buf = xp.zeros((n, self.n_lanes), dtype=np.int64)
        else:
            moved_buf = cross_buf = None
        for i in range(n):
            report = self.step()
            if moved_buf is not None:
                moved_buf[i] = report.moved
                cross_buf[i] = report.new_crossings
            if callback is not None:
                callback(self, report)
        if moved_buf is not None:
            # One batched transfer at the recording boundary; on backends
            # with stream support (CuPy) both copies overlap on a side
            # stream into pinned staging buffers behind a single fence.
            moved_host, cross_host = self.backend.to_host_many(
                (moved_buf, cross_buf)
            )
            moved_mat = moved_host.T  # (B, steps)
            cross_mat = cross_host.T
        else:
            moved_mat = np.zeros((self.n_lanes, 0), dtype=np.int64)
            cross_mat = np.zeros((self.n_lanes, 0), dtype=np.int64)
        results = []
        for b, seed in enumerate(self.seeds):
            results.append(
                RunResult(
                    platform=self.platform,
                    seed=seed,
                    steps_run=n,
                    throughput_total=self.throughput(b),
                    throughput_top=self.throughput(b, Group.TOP),
                    throughput_bottom=self.throughput(b, Group.BOTTOM),
                    moved_per_step=moved_mat[b] if record_timeline else None,
                    crossings_per_step=cross_mat[b] if record_timeline else None,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    @property
    def padded_fraction(self) -> float:
        """Fraction of agent slots that are padding (0.0 when homogeneous)."""
        total = self.n_lanes * self.n_agents
        return 1.0 - float(self.lane_agents.sum()) / total if total else 0.0

    def lane_config(self, lane: int) -> SimulationConfig:
        """The :class:`SimulationConfig` backing one lane."""
        return self.configs[lane]

    def throughput(self, lane: int, group: Group = None) -> int:
        """Crossed-agent count of one lane (optionally one group)."""
        xp = self.xp
        crossed = self.crossed[lane]
        if group is None:
            return int(xp.count_nonzero(crossed[1:]))
        return int(xp.count_nonzero(crossed & (self.ids[lane] == int(Group(group)))))

    def lane_environment(self, lane: int) -> Environment:
        """Host copy of one lane's environment (solo-engine comparable)."""
        cfg = self.configs[lane]
        env = Environment(cfg.height, cfg.width)
        env.mat[...] = self.backend.to_host(
            self.mats[lane, : cfg.height, : cfg.width]
        )
        env.index[...] = self.backend.to_host(
            self.index[lane, : cfg.height, : cfg.width]
        )
        return env

    def lane_population(self, lane: int) -> Population:
        """Host copy of one lane's property matrix (solo-engine comparable)."""
        n = int(self.lane_agents[lane])
        end = n + 1
        pop = Population(n)
        for name in Population.FIELDS:
            getattr(pop, name)[...] = self.backend.to_host(
                getattr(self, name)[lane, :end]
            )
        return pop

    def lane_pheromone(self, lane: int, group: Group) -> Optional[np.ndarray]:
        """Host copy of one lane's pheromone field (None when LEM)."""
        if self.tau is None:
            return None
        cfg = self.configs[lane]
        return self.backend.to_host(
            self.tau.field(group)[lane, : cfg.height, : cfg.width]
        ).copy()

    def validate_state(self) -> None:
        """Cross-check env/pop invariants on every lane (test support)."""
        xp = self.xp
        for b in range(self.n_lanes):
            env = self.lane_environment(b)
            env.validate()
            self.lane_population(b).validate_against(env)
            # Padding slots must stay inert: sentinel IDs, no tour, no
            # crossings.
            pad = ~self.active[b]
            pad[0] = False  # the sentinel row is legitimately inactive
            if bool(xp.any(self.ids[b, pad] != 0)):
                raise AssertionError("padding agent slot acquired an ID")
            if bool(xp.any(self.tour[b, pad] != 0.0)):
                raise AssertionError("padding agent slot accumulated tour length")
            if bool(xp.any(self.crossed[b, pad])):
                raise AssertionError("padding agent slot crossed")
            # Every padded cell outside the lane — its halo ring and the
            # padding up to the largest lane — reads as an obstacle with
            # no agent index.
            cfg = self.configs[b]
            outside = xp.ones((self._hp, self._wp), dtype=bool)
            outside[1 : cfg.height + 1, 1 : cfg.width + 1] = False
            if bool(xp.any(self._mats_p[b][outside] != _PAD_CELL)) or bool(
                xp.any(self._index_p[b][outside] != 0)
            ):
                raise AssertionError("grid halo or padding lost its sentinel label")


def run_batched(
    config: Union[SimulationConfig, Sequence[SimulationConfig]],
    seeds: Sequence[int],
    steps: Optional[int] = None,
    record_timeline: bool = True,
    callback=None,
) -> BatchedTimedResult:
    """Build a :class:`BatchedEngine`, run it, and time the whole batch.

    ``config`` may be one shared config or a per-lane sequence aligned with
    ``seeds`` (padded heterogeneous batching). ``callback`` is forwarded
    to :meth:`BatchedEngine.run` (per-step metrics hooks).
    """
    eng = BatchedEngine(config, seeds)
    if isinstance(eng.backend, ProfilingBackend):
        # Counting backend: start the measured region at the run loop so
        # the metric sink's per-step dispatch deltas are exact from step 0.
        eng.backend.reset()
    start = time.perf_counter()
    results = eng.run(
        steps=steps, record_timeline=record_timeline, callback=callback
    )
    # Fence queued device work so the wall time covers execution, not just
    # kernel launches (no-op on the CPU backend).
    eng.backend.synchronize()
    elapsed = time.perf_counter() - start
    homogeneous = all(c == eng.configs[0] for c in eng.configs[1:])
    return BatchedTimedResult(
        results=results,
        wall_seconds=elapsed,
        config=eng.configs[0] if homogeneous else None,
        seeds=eng.seeds,
        configs=eng.configs,
    )
