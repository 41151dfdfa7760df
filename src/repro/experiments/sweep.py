"""Parallel sweep runner: map a (scenario x seed x engine x model) grid
onto batched replication lanes and the shared executor pool.

The paper's evaluation is a population sweep with repeated seeds per
point. Two orthogonal axes of parallelism apply:

* **replication batching** — runs that share everything except the seed
  stack into one :class:`~repro.engine.batched.BatchedEngine` launch
  (bit-identical per lane, so sweep results match solo runs exactly);
* **process parallelism** — launches fan out over a
  :class:`repro.exec.ExecutorPool` (the same persistent worker pool the
  serving layer dispatches through), heaviest first.

With ``pad_lanes=True`` points that differ *only* in their scenario (same
model parameters, steps, backend and engine) also fuse into padded
heterogeneous batches: lanes are packed largest-population-first and a
chunk stops growing once the padded agent slots would exceed the waste
ceiling (explicit ``max_pad_waste``, or by default a ceiling derived per
pool from the cost model's dispatch-overhead estimate). This is the move
the OpenCL social-field and CALM batching literature make — pad
heterogeneous work items to a common shape so one launch covers them —
and it lets a mixed-scenario sweep with one seed per point (which
same-shape batching cannot fuse at all) still amortise dispatch overhead.

:class:`SweepRunner` hands the grid to
:class:`repro.exec.scheduler.BatchScheduler`, the dispatch path the job
service uses too: each point becomes a job (its resolved config plus its
engine), and the scheduler plans, lowers and runs the launches inline or
across workers. Records come back in the exact order of the requested
points, keyed by request position (so duplicated points each keep their
own record).

Timing note: a batched launch reports ``wall_seconds`` as the batch wall
time divided by its lane count (the amortised per-replication cost).
Timing studies that need isolated per-run walls (Figure 5) should use
``max_lanes=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

from ..backend import resolve_backend
from ..config import SimulationConfig
from ..errors import ExperimentError
from ..exec import ExecutorPool, warm_backend
from ..exec.scheduler import BatchScheduler, SchedulerStats
from ..obs import Tracer
from ..planner import PlannedBatch, validate_plan_parameters
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


class _Job(NamedTuple):
    """One sweep point as a scheduler job: resolved config plus engine."""

    config: SimulationConfig
    engine: str


def _record_from(point: SweepPoint, cfg, outcome) -> RunRecord:
    return RunRecord(
        scenario_index=point.scenario_index,
        total_agents=cfg.total_agents,
        model=point.model,
        engine=point.engine,
        seed=point.seed,
        steps=outcome.result.steps_run,
        throughput=outcome.result.throughput_total,
        wall_seconds=outcome.wall_seconds,
        scenario=point.scenario,
    )


class SweepRunner:
    """Execute a list of :class:`SweepPoint` via batched lanes + a pool.

    Planning, lowering and dispatch belong to
    :class:`repro.exec.scheduler.BatchScheduler`; the runner turns points
    into jobs and scheduler outcomes back into :class:`RunRecord` rows.

    Parameters
    ----------
    max_lanes:
        Upper bound on replications per batched launch. ``1`` disables
        batching entirely (every run is a solo engine — use for timing).
    processes:
        Worker processes for the grid's launches. ``1`` (default)
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
        Optional :class:`repro.obs.Tracer`. When set, every launch rides
        out with a :class:`~repro.obs.TraceSpec`; the scheduler's
        ``plan`` span and one ``launch`` span per launch, holding the
        worker-recorded phase spans, are adopted into the trace (the
        machinery behind ``repro sweep --trace``); a transient pool's
        worker start-up is its own ``pool.start`` span, ahead of the
        plan. Trajectories are unchanged.
    record_timeline:
        Forwarded to the engines; sweeps usually only need totals.
    pad_lanes:
        Fuse points that differ only in their scenario into padded
        heterogeneous batches (same model parameters, steps, backend and
        engine). Lanes pack largest-population-first; a batch stops
        growing once padding would exceed the waste ceiling of its agent
        slots.
    max_pad_waste:
        Ceiling on the padded-slot fraction of a mixed batch, in [0, 1).
        ``None`` (default) derives the ceiling per pad pool from the cost
        model's dispatch-overhead estimate (:func:`repro.planner.derived_pad_waste`) —
        loose for tiny dispatch-bound scenarios, tight at paper scale.
    backend:
        Array-backend name applied to every executed config ("numpy",
        "profile", ...). ``None`` leaves each point's config untouched. The
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
    def _jobs(self, points: Sequence[SweepPoint]) -> List[_Job]:
        jobs = []
        for p in points:
            cfg = p.config()
            if self.backend is not None:
                cfg = cfg.replace(backend=self.backend)
            jobs.append(_Job(cfg, p.engine))
        return jobs

    def _scheduler(self, executor: Optional[ExecutorPool] = None) -> BatchScheduler:
        return BatchScheduler(
            max_lanes=self.max_lanes,
            pad_lanes=self.pad_lanes,
            max_pad_waste=self.max_pad_waste,
            record_timeline=self.record_timeline,
            executor=executor,
            trace=self.tracer is not None,
        )

    def plan(self, points: Sequence[SweepPoint]) -> List[PlannedBatch]:
        """The scheduler's launches for ``points`` (indices into the list)."""
        return self._scheduler().plan(self._jobs(points))

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> List[RunRecord]:
        """Execute every point; records return in the requested order.

        Records are keyed by request position, so duplicated points each
        keep their own record. The first failed lane raises
        :class:`~repro.errors.ExperimentError` naming its point.
        """
        points = list(points)
        jobs = self._jobs(points)
        records: List[Optional[RunRecord]] = [None] * len(points)
        pool = self.executor
        transient: Optional[ExecutorPool] = None
        if pool is None and self.processes > 1:
            # Workers pre-resolve the backend so the first launch is not
            # the one paying its construction.
            transient = pool = ExecutorPool(
                self.processes, initializer=warm_backend, initargs=(self.backend,)
            )
        try:
            if transient is not None:
                # Start the workers before the first batch is lowered, so
                # a launch's dispatch span times its queueing, not spawns.
                started, t0 = time.time(), time.perf_counter()
                transient.start()
                if self.tracer is not None:
                    self.tracer.add(
                        "pool.start",
                        start_unix=started,
                        duration_s=time.perf_counter() - t0,
                        workers=self.processes,
                    )
            launches = self._scheduler(pool).execute_iter(jobs, SchedulerStats())
            for n, (batch, outcomes) in enumerate(launches):
                for i, outcome in zip(batch.indices, outcomes):
                    if outcome.error is not None:
                        raise ExperimentError(
                            f"{points[i]} failed: {outcome.error}"
                        )
                    records[i] = _record_from(points[i], jobs[i].config, outcome)
                if self.tracer is not None:
                    self._adopt(batch, outcomes[0].spans, with_plan=n == 0)
        finally:
            if transient is not None:
                transient.close()
        return records

    def _adopt(self, batch: PlannedBatch, spans, with_plan: bool) -> None:
        """Graft one launch's spans under a ``launch`` container span.

        ``spans`` leads with the scheduler's ``plan`` span, which every
        launch of the pass shares, so only the first launch adopts it.
        """
        plan, launch = spans[0], spans[1:]
        if with_plan:
            self.tracer.adopt([plan])
        start = min(s["start_unix"] for s in launch)
        end = max(s["start_unix"] + (s["duration_s"] or 0.0) for s in launch)
        container = self.tracer.add(
            "launch",
            start_unix=start,
            duration_s=end - start,
            lanes=batch.n_lanes,
            batched=batch.batched,
        )
        self.tracer.adopt(launch, parent_id=container.span_id)

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
