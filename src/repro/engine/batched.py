"""Multi-replication batched engine — whole-sweep data parallelism.

:class:`VectorizedEngine` plays one GPU launch per simulation; the paper's
evaluation, however, is a 40-scenario population sweep with repeated seeds
per point, i.e. many *independent replications*. :class:`BatchedEngine`
lifts the scan / select / move kernels to a leading batch axis so ``B``
replications advance through a single set of NumPy whole-array stages per
step — the same data-parallel move the paper makes across agents, applied
across runs.

Lanes need not share a scenario: per-agent arrays are padded to the
largest lane's population and the grids to the largest lane's shape, with
an ``active`` mask (and obstacle-sentinel padding cells) guaranteeing that
padding slots never scan, decide, move, deposit or cross. Ragged per-lane
group membership is flattened into ``(rep, agent)`` index vectors, so
every stage is element-wise or row-wise per lane and the movement scatter
touches disjoint ``(lane, cell)`` sets. Lane ``b`` draws its randomness
with the Philox key of ``seeds[b]`` (see
:class:`repro.rng.batched.BatchedPhiloxRNG`), which makes each lane
**bit-identical** to a solo :class:`VectorizedEngine` run with the same
config and seed — the property ``tests/test_engine_batched.py`` pins down
trajectory-for-trajectory, now over mixed-scenario batches too.

Batching wins because a small-grid simulation step is dominated by the
fixed overhead of its ~50 NumPy kernel dispatches; fusing ``B``
replications into one dispatch sequence amortises that overhead ``B``
ways (see ``benchmarks/test_bench_batched_sweep.py`` for same-shape lanes
and ``benchmarks/test_bench_padded_sweep.py`` for padded mixed-scenario
lanes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..agents.population import NO_FUTURE, Population
from ..backend import resolve_backend
from ..backend.profiling import ProfilingBackend
from ..config import SimulationConfig
from ..errors import EngineError
from ..grid import build_distance_tables, offsets_array
from ..grid.environment import Environment
from ..grid.neighborhood import ABSOLUTE_OFFSETS
from ..models import build_model
from ..models.pheromone import deposit_at, evaporate_field, group_slot
from ..rng import BatchedPhiloxRNG, RaggedLaneRNG, Stream
from ..types import CellState, Group
from .base import ABS_STEP_COSTS, RunResult, place_config, require_float64
from .conflict import shift, winner_rank

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


class _BatchedPheromone:
    """Both groups' batched pheromone fields as one ``(2, B, H, W)`` stack.

    The leading axis is the group slot (TOP=0, BOTTOM=1, per
    :func:`~repro.models.pheromone.group_slot`), so whole-field
    maintenance — evaporation, lane-block clamps — is a single launch over
    both groups, and mixed-group deposits scatter once through a
    ``(gslot, lane, row, col)`` fancy index.
    """

    def __init__(
        self, n_lanes: int, height: int, width: int, params, backend=None
    ) -> None:
        self.params = params
        self.backend = resolve_backend(backend)
        xp = self.backend.xp
        self.stack: np.ndarray = xp.full(
            (2, n_lanes, height, width), params.tau0, dtype=np.float64
        )

    def field(self, group: Group) -> np.ndarray:
        """One group's ``(B, H, W)`` fields (live stack view)."""
        return self.stack[group_slot(group)]

    def evaporate(self) -> None:
        evaporate_field(self.stack, self.params, xp=self.backend.xp)

    def evaporate_lanes(self, lanes, params) -> None:
        """Eq. 3 on one parameter group's lane block only (both groups).

        Element-wise, so running it on a fancy-indexed copy and writing
        back is bit-identical to evaporating those lanes in place.
        """
        sub = self.stack[:, lanes]
        evaporate_field(sub, params, xp=self.backend.xp)
        self.stack[:, lanes] = sub

    def deposit_stacked(self, gslots, lanes, rows, cols, amounts) -> None:
        """Eq. 5 for a mixed-group winner batch: one scatter, one clamp."""
        deposit_at(
            self.stack, (gslots, lanes, rows, cols), amounts, self.params,
            backend=self.backend,
        )

    def deposit_raw_stacked(self, gslots, lanes, rows, cols, amounts) -> None:
        """Eq. 5 scatter without the tau_max clamp (heterogeneous path).

        Lanes own disjoint ``(lane, row, col)`` cells, so one scatter over
        the full stack is exact; the caller clamps each parameter group's
        lane block afterwards with its own ``tau_max``.
        """
        self.backend.scatter_add(self.stack, (gslots, lanes, rows, cols), amounts)

    def clamp_max(self, lanes, tau_max: float) -> None:
        """Apply one parameter group's upper clamp to its lane block."""
        xp = self.backend.xp
        sub = self.stack[:, lanes]
        xp.minimum(sub, tau_max, out=sub)
        self.stack[:, lanes] = sub


class BatchedEngine:
    """Run ``B`` independent replications in lock-step whole-array stages.

    ``config`` is either one :class:`~repro.config.SimulationConfig` shared
    by every lane (the homogeneous case — lanes differ only in their seed)
    or a sequence of per-lane configs aligned with ``seeds`` (the padded
    heterogeneous case). Lanes may differ in population, grid shape,
    placement band and extension knobs; they must share the movement-model
    parameters and the step budget (the batch advances in lock-step).

    State mirrors :class:`VectorizedEngine` with a leading batch axis,
    padded to the largest lane: ``mats``/``index`` are ``(B, Hmax, Wmax)``
    with obstacle-sentinel padding cells, the property-matrix fields are
    ``(B, n_max + 1)`` and the scan matrix is ``(B, n_max + 1, 8)``. The
    ``active`` mask marks each lane's live agent slots; padding slots carry
    the sentinel ID 0 and never enter any stage.
    """

    platform = "batched"

    def __init__(
        self,
        config: Union[SimulationConfig, Sequence[SimulationConfig]],
        seeds: Sequence[int],
    ) -> None:
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
        #: Per-engine scratch arena for the fixed-shape step temporaries
        #: (see ScratchArena's overwrite contract).
        self.scratch = self.backend.scratch_arena()
        self.rng = BatchedPhiloxRNG(seeds, backend=self.backend)
        self.model = build_model(rep_cfg.params, backend=self.backend)
        self.t = 0

        # Per-lane geometry, padded to the largest lane. Host copies drive
        # the (pure-Python) setup logic; device mirrors feed the kernels.
        heights_host = np.array([c.height for c in configs], dtype=np.int64)
        widths_host = np.array([c.width for c in configs], dtype=np.int64)
        self._heights = self.backend.from_host(heights_host)
        self._widths = self.backend.from_host(widths_host)
        self._widths_u64 = self.backend.from_host(widths_host.astype(np.uint64))
        self._cross_rows = self.backend.from_host(
            np.array([c.cross_rows for c in configs], dtype=np.int64)
        )
        self.h_max = int(heights_host.max())
        self.w_max = int(widths_host.max())

        # Placement is a pure function of (config, seed, group); build each
        # lane's environment with a solo keyed RNG on the host (setup cost
        # only), stack into padded host arrays, and upload the whole batch
        # in one transfer. Padding cells read as obstacles.
        mats_host = np.full(
            (self.n_lanes, self.h_max, self.w_max), _PAD_CELL, dtype=np.int8
        )
        index_host = np.zeros((self.n_lanes, self.h_max, self.w_max), dtype=np.int32)
        pops: List[Population] = []
        for b, (cfg, seed) in enumerate(zip(configs, seeds)):
            env = place_config(cfg, seed)
            mats_host[b, : cfg.height, : cfg.width] = env.mat
            index_host[b, : cfg.height, : cfg.width] = env.index
            pops.append(Population.from_environment(env))
        self.mats = self.backend.from_host(mats_host)
        self.index = self.backend.from_host(index_host)

        lane_agents_host = np.array([p.n_agents for p in pops], dtype=np.int64)
        self.lane_agents = self.backend.from_host(lane_agents_host)
        self.n_agents = int(lane_agents_host.max())
        size = self.n_agents + 1
        #: Live-slot mask: ``active[b, i]`` iff agent ``i`` exists in lane
        #: ``b`` (the sentinel row 0 and padding slots are inactive).
        self.active = (
            xp.arange(size)[None, :] <= self.lane_agents[:, None]
        ) & (xp.arange(size)[None, :] > 0)

        ids_host = np.zeros((self.n_lanes, size), dtype=np.int8)
        rows_host = np.zeros((self.n_lanes, size), dtype=np.int64)
        cols_host = np.zeros((self.n_lanes, size), dtype=np.int64)
        for b, p in enumerate(pops):
            end = p.n_agents + 1
            ids_host[b, :end] = p.ids
            rows_host[b, :end] = p.rows
            cols_host[b, :end] = p.cols
        self.ids = self.backend.from_host(ids_host)
        self.rows = self.backend.from_host(rows_host)
        self.cols = self.backend.from_host(cols_host)
        self.future_rows = xp.full((self.n_lanes, size), NO_FUTURE, dtype=np.int64)
        self.future_cols = xp.full((self.n_lanes, size), NO_FUTURE, dtype=np.int64)
        self.front_empty = xp.zeros((self.n_lanes, size), dtype=bool)
        self.tour = xp.zeros((self.n_lanes, size), dtype=np.float64)
        self.crossed = xp.zeros((self.n_lanes, size), dtype=bool)
        self.crossed_step = xp.full((self.n_lanes, size), -1, dtype=np.int64)
        self.crossed_tour = xp.full((self.n_lanes, size), np.nan, dtype=np.float64)
        self.scan = xp.zeros((self.n_lanes, size, 8), dtype=np.float64)

        # Ragged group membership, flattened lane-major into parallel
        # (replication, agent-index) vectors. Agent indexing is top group
        # first within each lane, so membership is ragged across lanes as
        # soon as populations differ.
        self._rep: Dict[Group, np.ndarray] = {}
        self._agent: Dict[Group, np.ndarray] = {}
        self._ragged_rng: Dict[Group, RaggedLaneRNG] = {}
        for g in (Group.TOP, Group.BOTTOM):
            reps: List[np.ndarray] = []
            members: List[np.ndarray] = []
            for b, p in enumerate(pops):
                idx = p.members(g)
                reps.append(np.full(idx.size, b, dtype=np.intp))
                members.append(idx)
            self._rep[g] = self.backend.from_host(
                np.concatenate(reps) if reps else np.empty(0, np.intp)
            )
            self._agent[g] = self.backend.from_host(
                np.concatenate(members) if members else np.empty(0, np.int64)
            )
            if self._agent[g].size:
                self._ragged_rng[g] = self.rng.ragged(self._rep[g])
        self._offsets: Dict[Group, np.ndarray] = {
            g: self.backend.from_host(offsets_array(g))
            for g in (Group.TOP, Group.BOTTOM)
        }

        # Fused-group vectors (TOP rows then BOTTOM rows): scan/select run
        # as ONE whole-batch launch over the concatenation — the model
        # kernels are row-independent and the ragged RNG keys row i by
        # (seeds[rep[i]], agent[i]), so the fused pass draws exactly the
        # per-group passes' variates (golden-parity pinned).
        xp_ = self.backend.xp
        self._rep_all = xp_.concatenate(
            [self._rep[Group.TOP], self._rep[Group.BOTTOM]]
        )
        self._agent_all = xp_.concatenate(
            [self._agent[Group.TOP], self._agent[Group.BOTTOM]]
        )
        self._gslot_all = xp_.concatenate(
            [
                xp_.zeros(int(self._rep[Group.TOP].size), dtype=np.int64),
                xp_.ones(int(self._rep[Group.BOTTOM].size), dtype=np.int64),
            ]
        )
        self._ragged_rng_all: Optional[RaggedLaneRNG] = (
            self.rng.ragged(self._rep_all) if self._rep_all.size else None
        )
        self._offsets_stack = xp_.stack(
            [self._offsets[Group.TOP], self._offsets[Group.BOTTOM]]
        )

        # Per-lane distance tables stacked to (2, B, Hmax, 8) — group slot
        # leading, matching the pheromone stack; rows beyond a lane's
        # height carry inf (never candidates). Tables are pure functions of
        # (height, scan_range), so duplicate heights share one host build;
        # the stack uploads once.
        scan_range = getattr(rep_cfg.params, "scan_range", 1)
        by_height = {
            int(h): build_distance_tables(int(h), scan_range)
            for h in np.unique(heights_host)
        }
        dist_host = np.full(
            (2, self.n_lanes, self.h_max, 8), np.inf, dtype=np.float64
        )
        for g in (Group.TOP, Group.BOTTOM):
            for b, h in enumerate(heights_host):
                dist_host[group_slot(g), b, : int(h)] = by_height[int(h)][g].table
        self._dist_stack = self.backend.from_host(dist_host)

        self.pher: Optional[_BatchedPheromone] = (
            _BatchedPheromone(
                self.n_lanes, self.h_max, self.w_max, rep_cfg.params, self.backend
            )
            if self.model.uses_pheromone
            else None
        )

        rows_idx, cols_idx = xp.indices((self.h_max, self.w_max))
        self._rowgrid = rows_idx.astype(np.int64)
        self._colgrid = cols_idx.astype(np.int64)
        self._bidx = xp.arange(self.n_lanes)[:, None, None]

        # Paper-modification flag, per lane (host bool short-circuits the
        # per-step branch without a device sync).
        fwd_host = np.array([c.forward_priority for c in configs], dtype=bool)
        self._forward_priority = self.backend.from_host(fwd_host)
        self._any_forward_priority = bool(fwd_host.any())

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
        self._scan_range = int(scan_range)
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

    def _refresh_param_groups(self) -> None:
        """Rebuild the params → lanes partition after a lane swap."""
        groups: List[Tuple] = []  # (params, model, host lane list)
        order: Dict = {}
        lane_gid = np.zeros(self.n_lanes, dtype=np.int64)
        for lane, params in enumerate(self._lane_params):
            gid = order.get(params)
            if gid is None:
                gid = order[params] = len(groups)
                groups.append((params, self._models[params], []))
            groups[gid][2].append(lane)
            lane_gid[lane] = gid
        self._param_groups = [
            (params, model, self.backend.from_host(np.array(lanes, dtype=np.intp)))
            for params, model, lanes in groups
        ]
        self._lane_pg = self.backend.from_host(lane_gid)
        self._homogeneous = len(groups) == 1
        if self._homogeneous:
            # All lanes share one bundle again (possibly after every lane
            # swapped to the same variant): restore the single-model fast
            # path exactly as the constructor set it up.
            params, model, _ = self._param_groups[0]
            self.model = model
            if self.pher is not None:
                self.pher.params = params
        if self.pher is not None:
            self._deposit_q = self.backend.from_host(
                np.array(
                    [getattr(p, "deposit_q", 0.0) for p in self._lane_params],
                    dtype=np.float64,
                )
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

        The batched counterpart of :meth:`BaseEngine.swap_model`,
        restricted to swaps that keep the batch's shared state valid: the
        new bundle must keep the constructor's ``scan_range`` (the
        distance stacks are shared) and the engine's pheromone mode (the
        ``(B, H, W)`` stacks exist for every lane or none). The default
        :func:`~repro.components.hooks.panic_variant` bundles satisfy
        both.
        """
        lane = int(lane)
        if not (0 <= lane < self.n_lanes):
            raise EngineError(
                f"lane must be in [0, {self.n_lanes}), got {lane}"
            )
        params.validate()
        if params == self._lane_params[lane]:
            return
        if int(getattr(params, "scan_range", 1)) != self._scan_range:
            raise EngineError(
                "batched lanes cannot change scan_range mid-run "
                f"(batch built with {self._scan_range}, swap wants "
                f"{getattr(params, 'scan_range', 1)})"
            )
        model = self._models.get(params)
        if model is None:
            model = build_model(params, backend=self.backend)
            self._models[params] = model
        if model.uses_pheromone != (self.pher is not None):
            raise EngineError(
                "batched lanes cannot change pheromone use mid-run "
                f"(swap to {model.name!r} on a "
                f"{'pheromone' if self.pher is not None else 'pheromone-free'} "
                "batch)"
            )
        self._lane_params[lane] = params
        self._refresh_param_groups()

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def eligible_mask(self, t: int) -> np.ndarray:
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
    def _stage_scan(self, t: int) -> None:
        # One fused launch over every lane's TOP+BOTTOM rows: per-group
        # tables are gathered through the group-slot stacks, so the whole
        # batch scans in a single dispatch sequence.
        xp = self.xp
        rep = self._rep_all
        agent = self._agent_all
        if rep.size == 0:
            return
        gslot = self._gslot_all
        rows = self.rows[rep, agent]  # (N,)
        cols = self.cols[rep, agent]
        off = self._offsets_stack[gslot]  # (N, 8, 2)
        nr = rows[:, None] + off[:, :, 0]  # (N, 8)
        nc = cols[:, None] + off[:, :, 1]
        h = self._heights[rep][:, None]
        w = self._widths[rep][:, None]
        inb = (nr >= 0) & (nr < h) & (nc >= 0) & (nc < w)
        # nr/nc are fresh operator results and unneeded unclipped once the
        # bounds mask exists, so the clips run in place (no allocation).
        nrc = xp.clip(nr, 0, self.h_max - 1, out=nr)
        ncc = xp.clip(nc, 0, self.w_max - 1, out=nc)
        rcol = rep[:, None]
        candidates = inb & (self.mats[rcol, nrc, ncc] == 0)
        dist = self._dist_stack[gslot, rep, rows]  # (N, 8)
        tau = None
        if self.pher is not None:
            tau = self.pher.stack[gslot[:, None], rcol, nrc, ncc]
        if self._homogeneous:
            values = self.model.scan_values(dist, candidates, tau)
        else:
            # Partition the concatenated rows by parameter group;
            # scan_values is row-independent, so per-group calls over
            # row subsets are bit-identical to one shared call.
            values = xp.empty(dist.shape, dtype=np.float64)
            pg = self._lane_pg[rep]
            for gid, (_params, model, _lanes) in enumerate(self._param_groups):
                sel = pg == gid
                if not bool(xp.any(sel)):
                    continue
                values[sel] = model.scan_values(
                    dist[sel],
                    candidates[sel],
                    tau[sel] if tau is not None else None,
                )
        self.scan[rep, agent, :] = values
        self.front_empty[rep, agent] = candidates[:, 0]

    # ------------------------------------------------------------------
    # Stage 2: tour construction (per-agent decision, all lanes)
    # ------------------------------------------------------------------
    def _stage_select(self, t: int) -> np.ndarray:
        # Fused tour construction over the whole batch: one model.select
        # (the fused ragged RNG keys row i with replication rep[i], so
        # each lane's rows see exactly the solo engine's draws), one
        # future-coordinate write, one per-lane bincount.
        xp = self.xp
        rep = self._rep_all
        agent = self._agent_all
        if rep.size == 0:
            return xp.zeros(self.n_lanes, dtype=np.int64)
        scan_rows = self.scan[rep, agent]  # (N, 8)
        if self._homogeneous:
            slots = self.model.select(scan_rows, self._ragged_rng_all, t, agent)
        else:
            # Per-group select over row subsets: the subset ragged RNG
            # still keys row i by rep[i], so every agent draws the
            # same variates as in the shared call (and the solo run).
            slots = xp.full(rep.size, -1, dtype=np.int64)
            pg = self._lane_pg[rep]
            for gid, (_params, model, _lanes) in enumerate(self._param_groups):
                sel = pg == gid
                if not bool(xp.any(sel)):
                    continue
                slots[sel] = model.select(
                    scan_rows[sel], self.rng.ragged(rep[sel]), t, agent[sel]
                )
        if self._any_forward_priority:
            # ``slots`` is fresh (model kernel output or the hetero fill
            # buffer), so the forward override writes in place.
            slots[self.front_empty[rep, agent] & self._forward_priority[rep]] = 0
        if self._any_slow:
            valid = (slots >= 0) & self.eligible_mask(t)[rep, agent]
        else:
            # Homogeneous velocities (the default): everyone is eligible,
            # so the all-true mask and its gather are dead dispatches.
            valid = slots >= 0
        invalid = ~valid
        # In-place masked writes on the fresh intermediates replace three
        # xp.where calls; the resulting values are identical element-wise.
        slots[invalid] = 0
        off = self._offsets_stack[self._gslot_all, slots]  # (N, 2)
        fr = self.rows[rep, agent] + off[:, 0]
        fc = self.cols[rep, agent] + off[:, 1]
        fr[invalid] = NO_FUTURE
        fc[invalid] = NO_FUTURE
        self.future_rows[rep, agent] = fr
        self.future_cols[rep, agent] = fc
        return xp.bincount(rep[valid], minlength=self.n_lanes)

    # ------------------------------------------------------------------
    # Stage 3: movement (per-cell scatter-to-gather, all lanes)
    # ------------------------------------------------------------------
    def _stage_move(self, t: int) -> np.ndarray:
        xp = self.xp
        moved = xp.zeros(self.n_lanes, dtype=np.int64)

        if self.pher is not None:
            if self._homogeneous:
                self.pher.evaporate()
            else:
                for _params, _model, lanes in self._param_groups:
                    self.pher.evaporate_lanes(lanes, _params)

        # Padding cells are never empty (obstacle sentinel), so neither the
        # destination set nor the candidate gathers can leave a lane's real
        # grid region.
        empty = self.mats == 0
        # Fixed-shape per-step temporaries come from the engine's scratch
        # arena: zero allocating dispatches once warm, identical contents
        # (every buffer is fully overwritten before it is read).
        counts = self.scratch.take_filled(
            "mv.counts", (self.n_lanes, self.h_max, self.w_max), np.int16, 0
        )
        nbuf = self.scratch.take("mv.shift", self.index.shape, self.index.dtype)
        matches: List[np.ndarray] = []
        for dr, dc in ABSOLUTE_OFFSETS:
            nidx = shift(self.index, dr, dc, fill=0, xp=xp, out=nbuf)
            fr = self.future_rows[self._bidx, nidx]
            fc = self.future_cols[self._bidx, nidx]
            match = empty & (nidx > 0) & (fr == self._rowgrid) & (fc == self._colgrid)
            matches.append(match)
            counts += match
        con_b, con_r, con_c = xp.nonzero(counts > 0)
        if con_b.size == 0:
            return moved

        # Cell lanes use each replication's *real* width so the winner draw
        # matches the solo engine's ``Environment.cell_lane`` keying.
        cell_lanes = con_r.astype(np.uint64) * self._widths_u64[con_b] + con_c.astype(
            np.uint64
        )
        u = self.rng.uniform_at(Stream.MOVE_WINNER, t, con_b, cell_lanes)
        pick = winner_rank(u, counts[con_b, con_r, con_c], xp=xp)
        pickmap = self.scratch.take_filled(
            "mv.pickmap", (self.n_lanes, self.h_max, self.w_max), np.int64, -1
        )
        pickmap[con_b, con_r, con_c] = pick

        cum = self.scratch.take_filled(
            "mv.cum", (self.n_lanes, self.h_max, self.w_max), np.int16, 0
        )
        lane_parts: List[np.ndarray] = []
        dst_rows: List[np.ndarray] = []
        dst_cols: List[np.ndarray] = []
        agents: List[np.ndarray] = []
        cost_runs: List[Tuple[float, int]] = []
        for d, (dr, dc) in enumerate(ABSOLUTE_OFFSETS):
            match = matches[d]
            sel = match & (cum == pickmap)
            cum += match
            bb, rr, cc = xp.nonzero(sel)
            if bb.size:
                lane_parts.append(bb)
                dst_rows.append(rr)
                dst_cols.append(cc)
                agents.append(self.index[bb, rr + dr, cc + dc].astype(np.int64))
                cost_runs.append((ABS_STEP_COSTS[d], int(bb.size)))
        bs = xp.concatenate(lane_parts)
        dst_r = xp.concatenate(dst_rows)
        dst_c = xp.concatenate(dst_cols)
        winners = xp.concatenate(agents)
        # Per-direction costs are constants, so the cost vector is built by
        # slice fills into one scratch run instead of 8 fulls + concatenate.
        move_cost = self.scratch.take("mv.cost", (int(winners.size),), np.float64)
        o = 0
        for cost, size in cost_runs:
            move_cost[o : o + size] = cost
            o += size
        src_r = self.rows[bs, winners]
        src_c = self.cols[bs, winners]

        # (lane, cell) destinations were empty, sources occupied, and the
        # two sets are disjoint per lane, so fancy indexing stays safe.
        self.mats[bs, dst_r, dst_c] = self.ids[bs, winners]
        self.index[bs, dst_r, dst_c] = winners
        self.mats[bs, src_r, src_c] = 0
        self.index[bs, src_r, src_c] = 0
        self.rows[bs, winners] = dst_r
        self.cols[bs, winners] = dst_c
        self.tour[bs, winners] += move_cost

        if self.pher is not None:
            # Fused deposit: one scatter into the (2, B, H, W) stack covers
            # both groups (winner cells are disjoint per lane, the tau_max
            # clamp is idempotent) — no per-group any() host syncs.
            gslot = (self.ids[bs, winners] == int(Group.BOTTOM)).astype(np.int64)
            if self._homogeneous:
                amounts = self.pher.params.deposit_q / self.tour[bs, winners]
                self.pher.deposit_stacked(gslot, bs, dst_r, dst_c, amounts)
            else:
                # Per-lane deposit scale, raw scatter (lanes own disjoint
                # cells), then each parameter group's own tau_max clamp on
                # its lane block — values only exceed tau_max through
                # deposits, so clamping after the scatter matches the
                # homogeneous (and solo) clamp-per-deposit behaviour.
                amounts = self._deposit_q[bs] / self.tour[bs, winners]
                self.pher.deposit_raw_stacked(gslot, bs, dst_r, dst_c, amounts)
                for _params, _model, lanes in self._param_groups:
                    self.pher.clamp_max(lanes, _params.tau_max)
        self.backend.scatter_add(moved, bs, 1)
        return moved

    # ------------------------------------------------------------------
    # Stage 4 + crossings bookkeeping
    # ------------------------------------------------------------------
    def _record_crossings(self, step: int) -> np.ndarray:
        heights = self._heights[:, None]
        band = self._cross_rows[:, None]
        top = self.ids == int(Group.TOP)
        bottom = self.ids == int(Group.BOTTOM)
        newly = (
            (top & (self.rows >= heights - band)) | (bottom & (self.rows < band))
        ) & ~self.crossed
        self.crossed |= newly
        self.crossed_step[newly] = step
        self.crossed_tour[newly] = self.tour[newly]
        return self.xp.count_nonzero(newly, axis=1)

    def _stage_support(self, t: int) -> None:
        self.future_rows.fill(NO_FUTURE)
        self.future_cols.fill(NO_FUTURE)
        self.front_empty.fill(False)
        self.scan.fill(0.0)

    # ------------------------------------------------------------------
    # Template step / run
    # ------------------------------------------------------------------
    def step(self) -> BatchedStepReport:
        """Advance every lane one synchronous step (all four stages)."""
        t = self.t
        if self._pending_hooks:
            self._apply_due_hooks(t)
        self._stage_scan(t)
        decided = self._stage_select(t)
        moved = self._stage_move(t)
        new_crossings = self._record_crossings(t)
        self._stage_support(t)
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
        to_host = self.backend.to_host
        pop.ids[...] = to_host(self.ids[lane, :end])
        pop.rows[...] = to_host(self.rows[lane, :end])
        pop.cols[...] = to_host(self.cols[lane, :end])
        pop.future_rows[...] = to_host(self.future_rows[lane, :end])
        pop.future_cols[...] = to_host(self.future_cols[lane, :end])
        pop.front_empty[...] = to_host(self.front_empty[lane, :end])
        pop.tour[...] = to_host(self.tour[lane, :end])
        pop.crossed[...] = to_host(self.crossed[lane, :end])
        pop.crossed_step[...] = to_host(self.crossed_step[lane, :end])
        pop.crossed_tour[...] = to_host(self.crossed_tour[lane, :end])
        return pop

    def lane_pheromone(self, lane: int, group: Group) -> Optional[np.ndarray]:
        """Host copy of one lane's pheromone field (None when LEM)."""
        if self.pher is None:
            return None
        cfg = self.configs[lane]
        return self.backend.to_host(
            self.pher.field(group)[lane, : cfg.height, : cfg.width]
        ).copy()

    def validate_state(self) -> None:
        """Cross-check env/pop invariants on every lane (test support)."""
        xp = self.xp
        for b in range(self.n_lanes):
            env = self.lane_environment(b)
            env.validate()
            self.lane_population(b).validate_against(env)
            # Padding slots must stay inert: sentinel IDs, no futures, no
            # tour, no crossings.
            pad = ~self.active[b]
            pad[0] = False  # the sentinel row is legitimately inactive
            if bool(xp.any(self.ids[b, pad] != 0)):
                raise AssertionError("padding agent slot acquired an ID")
            if bool(xp.any(self.future_rows[b, pad] != NO_FUTURE)) or bool(
                xp.any(self.future_cols[b, pad] != NO_FUTURE)
            ):
                raise AssertionError("padding agent slot decided a move")
            if bool(xp.any(self.tour[b, pad] != 0.0)):
                raise AssertionError("padding agent slot accumulated tour length")
            if bool(xp.any(self.crossed[b, pad])):
                raise AssertionError("padding agent slot crossed")
            cfg = self.configs[b]
            if bool(xp.any(self.mats[b, cfg.height :, :] != _PAD_CELL)) or bool(
                xp.any(self.mats[b, :, cfg.width :] != _PAD_CELL)
            ):
                raise AssertionError("grid padding lost its sentinel label")


def run_batched(
    config: Union[SimulationConfig, Sequence[SimulationConfig]],
    seeds: Sequence[int],
    steps: Optional[int] = None,
    record_timeline: bool = True,
    callback=None,
    engine: str = "batched",
) -> BatchedTimedResult:
    """Build a batched engine, run it, and time the whole batch.

    ``config`` may be one shared config or a per-lane sequence aligned with
    ``seeds`` (padded heterogeneous batching). ``callback`` is forwarded
    to :meth:`BatchedEngine.run` (per-step metrics hooks). ``engine``
    picks the execution strategy: ``"batched"`` (whole-array, the default)
    or ``"tiled"`` (the shared-memory-faithful
    :class:`~repro.cuda.batched_tiled.BatchedTiledEngine`); both produce
    bit-identical per-lane trajectories.
    """
    if engine == "batched":
        eng = BatchedEngine(config, seeds)
    elif engine == "tiled":
        # Deferred import: repro.cuda.batched_tiled subclasses this module.
        from ..cuda.batched_tiled import BatchedTiledEngine  # noqa: PLC0415

        eng = BatchedTiledEngine(config, seeds)
    else:
        raise EngineError(
            f"unknown batched engine {engine!r}; choose 'batched' or 'tiled'"
        )
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
