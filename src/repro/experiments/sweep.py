"""Parallel sweep runner: map a (scenario x seed x engine x model) grid
onto batched replication lanes and the shared executor pool.

The paper's evaluation is a population sweep with repeated seeds per
point. Two orthogonal axes of parallelism apply:

* **replication batching** — runs that share everything except the seed
  stack into one :class:`~repro.engine.batched.BatchedEngine` launch
  (bit-identical per lane, so sweep results match solo runs exactly);
* **process parallelism** — heterogeneous work units fan out over a
  :class:`repro.exec.ExecutorPool` (the same persistent worker pool the
  serving layer dispatches through).

With ``pad_lanes=True`` the planner additionally fuses points that differ
*only* in their scenario (same model/engine/scale/steps) into padded
heterogeneous batches: lanes are packed largest-population-first and a
chunk stops growing once the padded agent slots would exceed the waste
ceiling (explicit ``max_pad_waste``, or by default a ceiling derived per
pool from the cost model's dispatch-overhead estimate). This is the move the OpenCL social-field
and CALM batching literature make — pad heterogeneous work items to a
common shape so one launch covers them — and it lets a mixed-scenario
sweep with one seed per point (which same-shape batching cannot fuse at
all) still amortise dispatch overhead.

:class:`SweepRunner` composes all of it: it groups the requested points,
packs batchable lanes (chunked at ``max_lanes``), and executes the
resulting work units inline or across workers. Records come back in the
exact order of the requested points, keyed by request position (so
duplicated points each keep their own record).

Timing note: a batched unit reports ``wall_seconds`` as the batch wall
time divided by its lane count (the amortised per-replication cost).
Timing studies that need isolated per-run walls (Figure 5) should use
``max_lanes=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import resolve_backend
from ..errors import ExperimentError
from ..exec import (
    ExecutorPool,
    LaunchWork,
    execute_launch,
    launch_cost,
    warm_backend,
)
from ..obs import TraceSpec, Tracer
from ..planner import (
    LaneRequest,
    plan_lanes,
    validate_plan_parameters,
)
from .records import RunRecord, SweepReport
from .scenarios import scenario_config, scenario_spec

__all__ = [
    "SweepPoint",
    "SweepRunner",
    "sweep_grid",
    "named_sweep_points",
    "smoke_sweep_points",
]


@dataclass(frozen=True)
class SweepPoint:
    """One requested run of the sweep grid.

    A point is either one of the paper's index-driven scenarios
    (``scenario_index`` >= 1, the legacy form) or a *named* scenario from
    the component registry (``scenario="family:arg"``, e.g.
    ``"boarding:30x7"``); exactly one of the two selects the geometry.
    """

    scenario_index: int = 0
    model: str = "lem"
    engine: str = "vectorized"
    seed: int = 0
    scale: str = "standard"
    #: Optional step-budget override (timing studies shorten runs).
    steps: Optional[int] = None
    #: Named scenario ("family:arg"), resolved through
    #: :func:`repro.components.scenarios.build_scenario`.
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            if self.scenario_index:
                raise ExperimentError(
                    f"a sweep point names either a scenario_index or a "
                    f"scenario, not both (got index {self.scenario_index} "
                    f"and {self.scenario!r})"
                )
        elif self.scenario_index < 1:
            raise ExperimentError(
                f"scenario_index must be >= 1 (the paper's scenarios are "
                f"1-based), got {self.scenario_index}"
            )

    @property
    def batch_key(self) -> Tuple:
        """Runs sharing this key differ only in their seed."""
        return (
            self.scenario or self.scenario_index,
            self.model,
            self.engine,
            self.scale,
            self.steps,
        )

    @property
    def pad_key(self) -> Tuple:
        """Runs sharing this key can fuse into one *padded* batch.

        Named scenarios size their own step budget from their geometry,
        so their pad key carries the *resolved* steps — lanes of a padded
        batch must share the budget, which the legacy points guarantee
        per scale but named families do not.
        """
        if self.scenario is None:
            return (self.model, self.engine, self.scale, self.steps)
        steps = self.steps if self.steps is not None else self.config().steps
        return (self.model, self.engine, self.scale, int(steps))

    def config(self):
        """The scaled :class:`~repro.config.SimulationConfig` for this point."""
        if self.scenario is not None:
            # Lazy: repro.components.scenarios itself imports the paper's
            # scale table from this package, so a module-level import
            # here would be circular when components loads first.
            from ..components.scenarios import build_scenario

            cfg = build_scenario(
                self.scenario,
                model=self.model,
                scale=self.scale,
                seed=self.seed,
            )
        else:
            cfg = scenario_config(
                scenario_spec(self.scenario_index),
                model=self.model,
                scale=self.scale,
                seed=self.seed,
            )
        if self.steps is not None:
            cfg = cfg.replace(steps=int(self.steps))
        return cfg


def sweep_grid(
    scenario_indices: Sequence[int],
    seeds: Sequence[int],
    models: Sequence[str] = ("lem",),
    engines: Sequence[str] = ("vectorized",),
    scale: str = "standard",
    steps: Optional[int] = None,
) -> List[SweepPoint]:
    """Expand a full factorial grid, scenario-major then model/engine/seed."""
    return [
        SweepPoint(
            scenario_index=k,
            model=model,
            engine=engine,
            seed=seed,
            scale=scale,
            steps=steps,
        )
        for k in scenario_indices
        for model in models
        for engine in engines
        for seed in seeds
    ]


def named_sweep_points(
    scenarios: Sequence[str],
    seeds: Sequence[int] = (0,),
    models: Sequence[str] = ("lem",),
    engines: Sequence[str] = ("vectorized",),
    scale: str = "standard",
    steps: Optional[int] = None,
) -> List[SweepPoint]:
    """Expand a grid over *named* scenarios (``family:arg`` spellings).

    ``scenarios`` accepts concrete names and ``family:*`` wildcards
    (expanded through :func:`repro.components.scenarios.expand_scenarios`),
    scenario-major like :func:`sweep_grid`.
    """
    from ..components.scenarios import expand_scenarios

    return [
        SweepPoint(
            scenario=name,
            model=model,
            engine=engine,
            seed=seed,
            scale=scale,
            steps=steps,
        )
        for name in expand_scenarios(scenarios)
        for model in models
        for engine in engines
        for seed in seeds
    ]


def smoke_sweep_points() -> List[SweepPoint]:
    """The CI smoke grid: 2 scenarios x 2 models x 2 seeds on the tiny scale."""
    return sweep_grid(
        scenario_indices=(1, 2),
        seeds=(0, 1),
        models=("lem", "aco"),
        engines=("vectorized",),
        scale="tiny",
    )


# ----------------------------------------------------------------------
# Work units (planned groups, lowered to repro.exec.LaunchWork to run)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkUnit:
    """A batch of same-config seeds, a padded mixed batch, or a solo run."""

    point: SweepPoint  # representative point (seed = first of ``seeds``)
    seeds: Tuple[int, ...]
    batched: bool
    record_timeline: bool = False
    #: Positions of each lane in the caller's requested point list,
    #: aligned with ``seeds``. Records are keyed back by these.
    indices: Tuple[int, ...] = ()
    #: Per-lane points for padded heterogeneous batches; ``None`` when all
    #: lanes share ``point``'s config.
    points: Optional[Tuple[SweepPoint, ...]] = None
    #: Array-backend override applied to every lane config (None = as-is).
    backend: Optional[str] = None


def _record_from(point: SweepPoint, cfg, seed: int, result, wall: float) -> RunRecord:
    return RunRecord(
        scenario_index=point.scenario_index,
        total_agents=cfg.total_agents,
        model=point.model,
        engine=point.engine,
        seed=seed,
        steps=result.steps_run,
        throughput=result.throughput_total,
        wall_seconds=wall,
        scenario=point.scenario,
    )


def _unit_lanes(unit: _WorkUnit) -> Tuple[List[SweepPoint], List]:
    """Per-lane points and fully-resolved configs (seed + backend applied)."""
    if unit.points is not None:
        # Padded heterogeneous batch: one config per lane, seeds embedded.
        points = list(unit.points)
        configs = [p.config() for p in points]
    else:
        points = [unit.point] * len(unit.seeds)
        base = unit.point.config()
        configs = [base.replace(seed=s) for s in unit.seeds]
    if unit.backend is not None:
        configs = [c.replace(backend=unit.backend) for c in configs]
    return points, configs


def _unit_work(unit: _WorkUnit, configs: List) -> LaunchWork:
    """Lower a planned unit to the executable :class:`LaunchWork` payload."""
    return LaunchWork(
        configs=tuple(configs),
        engine=unit.point.engine,
        batched=unit.batched and len(configs) > 1,
        record_timeline=unit.record_timeline,
    )


def _unit_records(unit: _WorkUnit, points, configs, outcome) -> List[RunRecord]:
    """One record per lane, in ``unit.seeds`` order."""
    return [
        _record_from(point, cfg, seed, result, wall)
        for point, cfg, seed, result, wall in zip(
            points, configs, unit.seeds, outcome.results, outcome.wall_seconds
        )
    ]


class SweepRunner:
    """Execute a list of :class:`SweepPoint` via batched lanes + a pool.

    Parameters
    ----------
    max_lanes:
        Upper bound on replications per batched launch. ``1`` disables
        batching entirely (every run is a solo engine — use for timing).
    processes:
        Worker processes for heterogeneous work units. ``1`` (default)
        executes inline; larger values dispatch through a transient
        :class:`repro.exec.ExecutorPool` (persistent workers started via
        the forward-compatible ``forkserver``/``spawn`` method, never
        the deprecated ``fork``) that lives for one :meth:`run` call.
    executor:
        An existing :class:`repro.exec.ExecutorPool` to dispatch through
        instead of creating one — pass it to keep workers warm across
        several :meth:`run` calls (grid chunks) or to share one pool
        with the serving layer. The caller keeps ownership: the runner
        never closes a pool it was handed.
    tracer:
        Optional :class:`repro.obs.Tracer`. When set, planning is timed
        as a ``plan`` span, every launch rides out with a
        :class:`~repro.obs.TraceSpec`, and the worker-recorded phase
        spans are adopted back into the trace on return (the machinery
        behind ``repro sweep --trace``). Trajectories are unchanged.
    record_timeline:
        Forwarded to the engines; sweeps usually only need totals.
    pad_lanes:
        Fuse points that differ only in their scenario into padded
        heterogeneous batches (same model/engine/scale/steps). Lanes pack
        largest-population-first; a batch stops growing once padding would
        exceed the waste ceiling of its agent slots.
    max_pad_waste:
        Ceiling on the padded-slot fraction of a mixed batch, in [0, 1).
        ``None`` (default) derives the ceiling per pad pool from the cost
        model's dispatch-overhead estimate (:func:`repro.planner.derived_pad_waste`) —
        loose for tiny dispatch-bound scenarios, tight at paper scale.
    backend:
        Array-backend name applied to every executed config ("numpy",
        "cupy", ...). ``None`` leaves each point's config untouched. The
        runner resolves the name up front, so an unavailable backend
        fails fast with :class:`~repro.errors.BackendUnavailableError`
        instead of inside a pool worker.
    """

    def __init__(
        self,
        max_lanes: int = 8,
        processes: int = 1,
        record_timeline: bool = False,
        pad_lanes: bool = False,
        max_pad_waste: Optional[float] = None,
        backend: Optional[str] = None,
        executor: Optional[ExecutorPool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        validate_plan_parameters(max_lanes, max_pad_waste)
        if processes < 1:
            raise ExperimentError(f"processes must be >= 1, got {processes}")
        self.max_lanes = int(max_lanes)
        self.processes = int(processes)
        self.record_timeline = bool(record_timeline)
        self.pad_lanes = bool(pad_lanes)
        self.max_pad_waste = None if max_pad_waste is None else float(max_pad_waste)
        self.backend = None if backend is None else str(backend)
        self.executor = executor
        self.tracer = tracer
        if self.backend is not None:
            resolve_backend(self.backend)

    # ------------------------------------------------------------------
    def plan(self, points: Sequence[SweepPoint]) -> List[_WorkUnit]:
        """Group points into batched / padded / solo work units.

        The packing decisions live in :func:`repro.planner.plan_lanes`
        (shared with the serving layer's micro-batching scheduler):
        points sharing a full batch key on a batchable engine pack into
        lanes of at most ``max_lanes`` seeds; a seed repeated *within* a
        key demotes only the duplicate occurrences to solo runs; with
        ``pad_lanes`` enabled, lanes from different scenarios of the same
        ``pad_key`` additionally fuse into padded batches under the
        ``max_pad_waste`` bound.
        """
        points = list(points)
        requests: List[LaneRequest] = []
        # Scenario populations repeat across seeds; cache the built config
        # per (scenario, model, scale, steps) so planning a large grid does
        # not re-derive the same scaled geometry point by point. Configs
        # are only consulted for padding accounting and waste derivation
        # (model included because the derived bound prices the model's
        # dispatch overhead), so the cached copy's seed being the first
        # occurrence's is immaterial (and configs are skipped entirely
        # without ``pad_lanes``).
        sizing: Dict[Tuple, object] = {}
        for i, p in enumerate(points):
            agents = 0
            cfg = None
            if self.pad_lanes:
                size_key = (
                    p.scenario or p.scenario_index, p.model, p.scale, p.steps,
                )
                if size_key not in sizing:
                    sizing[size_key] = p.config()
                cfg = sizing[size_key]
                agents = cfg.total_agents
            requests.append(
                LaneRequest(
                    index=i,
                    seed=p.seed,
                    engine=p.engine,
                    batch_key=p.batch_key,
                    pad_key=p.pad_key,
                    agents=agents,
                    config=cfg,
                    scenario=p.scenario,
                )
            )
        planned = plan_lanes(
            requests,
            max_lanes=self.max_lanes,
            pad_lanes=self.pad_lanes,
            max_pad_waste=self.max_pad_waste,
        )

        units: List[_WorkUnit] = []
        for batch in planned:
            lane_points = [points[i] for i in batch.indices]
            units.append(
                _WorkUnit(
                    point=lane_points[0],
                    seeds=tuple(p.seed for p in lane_points),
                    batched=batch.batched,
                    record_timeline=self.record_timeline,
                    indices=batch.indices,
                    points=tuple(lane_points) if batch.mixed else None,
                    backend=self.backend,
                )
            )
        return units

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> List[RunRecord]:
        """Execute every point; records return in the requested order."""
        points = list(points)
        plan_span = None
        if self.tracer is not None:
            plan_span = self.tracer.start("plan", points=len(points))
        units = self.plan(points)
        lanes = [_unit_lanes(u) for u in units]
        works = [
            _unit_work(u, configs) for u, (_, configs) in zip(units, lanes)
        ]
        if plan_span is not None:
            plan_span.attrs["launches"] = len(units)
            self.tracer.finish(plan_span)
            works = [
                replace(w, trace=TraceSpec(dispatched_unix=time.time()))
                for w in works
            ]

        pool = self.executor
        transient: Optional[ExecutorPool] = None
        use_pool = len(units) > 1 and (pool is not None or self.processes > 1)
        if use_pool and pool is None:
            # A transient pool for this grid only. Workers pre-resolve the
            # runner's backend so the first launch is not the one paying
            # backend construction.
            initializer = None if self.backend is None else warm_backend
            initargs = () if self.backend is None else (self.backend,)
            transient = pool = ExecutorPool(
                self.processes, initializer=initializer, initargs=initargs
            )
        try:
            if use_pool:
                # Padding-aware LPT dispatch: submit heaviest-first by
                # *real* agent-steps. A padded batch's weight is the sum
                # of its lanes' real populations — lane count alone would
                # let one worker absorb every large-lane batch while the
                # others drain small fry. The pool's pending heap keeps
                # the greedy heaviest-first assignment as workers free up.
                costs = [launch_cost(w) for w in works]
                order = sorted(range(len(units)), key=lambda i: (-costs[i], i))
                futures = {
                    i: pool.submit(execute_launch, works[i], cost=costs[i])
                    for i in order
                }
                outcomes = [futures[i].result() for i in range(len(units))]
            else:
                outcomes = [execute_launch(w) for w in works]
        finally:
            if transient is not None:
                transient.close()

        if self.tracer is not None:
            # One container span per launch so the phase spans of
            # different launches stay distinguishable in the tree. Its
            # bounds come from the launch's own spans (unix clock).
            for unit, outcome in zip(units, outcomes):
                spans = outcome.spans
                if not spans:
                    continue
                start = min(s["start_unix"] for s in spans)
                end = max(
                    s["start_unix"] + (s["duration_s"] or 0.0) for s in spans
                )
                launch = self.tracer.add(
                    "launch",
                    start_unix=start,
                    duration_s=end - start,
                    lanes=len(unit.seeds),
                    batched=unit.batched,
                )
                self.tracer.adopt(spans, parent_id=launch.span_id)

        # Key by request position, not by (batch_key, seed): duplicated
        # points each keep their own record and wall time.
        by_index: Dict[int, RunRecord] = {}
        for unit, (unit_points, configs), outcome in zip(units, lanes, outcomes):
            records = _unit_records(unit, unit_points, configs, outcome)
            for idx, record in zip(unit.indices, records):
                by_index[idx] = record
        if len(by_index) != len(points):
            raise ExperimentError(
                f"sweep plan lost runs: {len(points)} requested, "
                f"{len(by_index)} executed"
            )
        return [by_index[i] for i in range(len(points))]

    # ------------------------------------------------------------------
    def run_report(self, points: Sequence[SweepPoint]) -> SweepReport:
        """Like :meth:`run`, wrapped with grid metadata and total wall time."""
        start = time.perf_counter()
        records = self.run(points)
        elapsed = time.perf_counter() - start
        return SweepReport(
            n_points=len(records),
            max_lanes=self.max_lanes,
            processes=self.processes,
            wall_seconds=elapsed,
            records=list(records),
            pad_lanes=self.pad_lanes,
        )
