"""Micro-batching scheduler: pack queued jobs into batched launches.

Whatever jobs are queued when a service tick fires are handed to
:func:`repro.planner.plan_lanes` — the same packer the sweep runner uses
offline — and executed with the fewest engine launches the compatibility
rules allow:

* jobs whose configs differ only in their seed stack into same-shape
  :func:`~repro.engine.run_batched` lanes;
* with ``pad_lanes`` (the serving default), jobs that agree on what the
  batched engine requires lanes to share — movement-model parameters,
  step budget, array backend, engine — fuse into *padded* heterogeneous
  batches under the cost-model waste ceiling, populations and grid
  shapes padded to the largest lane;
* everything else (the sequential engine, waste-bound overflow) falls
  back to solo :func:`~repro.engine.run_simulation` calls.

Execution goes through the shared :class:`repro.exec.LaunchWork` payload
either way. Serially (the default) launches run on the calling thread in
plan order — priority-first, because the service drains its queue in
priority order and the planner preserves it. With an
:class:`~repro.exec.ExecutorPool` attached, every launch of the tick is
submitted to the pool at once (priority, then heaviest-first by real
agent-steps) and completed batches surface *as they finish*, so a
multi-worker service resolves independent jobs concurrently instead of
strictly one launch at a time.

Every lane is bit-identical to a solo run of its config (the batched
engine's core guarantee) and a launch computes the same trajectories
wherever it runs, so serving from a batch, a pool worker, or both is
invisible to the requester except in latency.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..engine.base import RunResult
from ..errors import ReproError
from ..exec import ExecutorPool, LaunchWork, execute_launch, launch_cost
from ..obs import TraceSpec, mint_span_id, span_dict
from ..planner import (
    LaneRequest,
    PlannedBatch,
    plan_lanes,
    validate_plan_parameters,
)

__all__ = ["BatchScheduler", "SchedulerStats", "ExecutionOutcome"]


@dataclass
class SchedulerStats:
    """Launch accounting for one or more scheduler passes.

    ``engine_launches`` counts actual engine invocations (batched or
    solo); a burst of N compatible jobs served in fewer than N launches
    is the whole point of the scheduler, and ``multi_lane_batches``
    proves it happened. ``peak_concurrent_launches`` is the high-water
    mark of launches in flight at once — 1 on the serial path, up to
    ``workers`` when an executor pool is attached.
    """

    engine_launches: int = 0
    #: Launches that fused more than one job.
    multi_lane_batches: int = 0
    #: Multi-lane launches whose lanes spanned different configs (padded).
    padded_batches: int = 0
    lanes_executed: int = 0
    solo_runs: int = 0
    largest_batch: int = 0
    failed_launches: int = 0
    peak_concurrent_launches: int = 0

    def merge(self, other: "SchedulerStats") -> None:
        self.engine_launches += other.engine_launches
        self.multi_lane_batches += other.multi_lane_batches
        self.padded_batches += other.padded_batches
        self.lanes_executed += other.lanes_executed
        self.solo_runs += other.solo_runs
        self.largest_batch = max(self.largest_batch, other.largest_batch)
        self.failed_launches += other.failed_launches
        self.peak_concurrent_launches = max(
            self.peak_concurrent_launches, other.peak_concurrent_launches
        )

    def to_dict(self) -> dict:
        return {
            "engine_launches": self.engine_launches,
            "multi_lane_batches": self.multi_lane_batches,
            "padded_batches": self.padded_batches,
            "lanes_executed": self.lanes_executed,
            "solo_runs": self.solo_runs,
            "largest_batch": self.largest_batch,
            "failed_launches": self.failed_launches,
            "peak_concurrent_launches": self.peak_concurrent_launches,
        }


@dataclass
class ExecutionOutcome:
    """What happened to one job in a scheduler pass."""

    result: Optional[RunResult] = None
    error: Optional[str] = None
    #: Lanes in the launch that carried this job (1 = solo).
    lanes: int = 1
    #: Amortised wall seconds attributed to this job's lane.
    wall_seconds: float = 0.0
    #: Launch-level span tree (wire dicts): the tick's ``plan`` span plus
    #: whatever the executing side recorded. Shared by every lane of the
    #: launch — the committing side copies before rewriting ids.
    spans: Tuple[dict, ...] = ()


class BatchScheduler:
    """Plan and execute a drained queue of jobs in batched launches.

    Parameters
    ----------
    max_lanes, pad_lanes, max_pad_waste, record_timeline:
        Packing knobs, shared with the sweep runner via the planner.
    executor:
        Optional :class:`repro.exec.ExecutorPool`. When set, each pass
        submits all its launches to the pool concurrently and yields
        batches as they complete; when ``None``, launches run serially
        on the calling thread. Results are bit-identical either way.
        The scheduler does not own the pool — the service (or other
        caller) that created it closes it.
    metrics_for:
        Optional callable mapping one launch's lane jobs to a
        :class:`~repro.analytics.MetricStreamSpec` (or ``None``). When
        set, each :class:`~repro.exec.LaunchWork` carries the returned
        spec, so launches stream per-step metrics into the analytics
        store as they execute. The service supplies this when started
        with an analytics database.
    trace:
        When true (the serving default), every launch carries a
        :class:`~repro.obs.TraceSpec` stamped at submit-to-executor time
        and each :class:`ExecutionOutcome` returns the launch's span
        tree (plus the tick's ``plan`` span) for the service to graft
        onto its jobs' traces.
    """

    def __init__(
        self,
        max_lanes: int = 8,
        pad_lanes: bool = True,
        max_pad_waste: Optional[float] = None,
        record_timeline: bool = False,
        executor: Optional[ExecutorPool] = None,
        metrics_for: Optional[Callable[[Sequence], Optional[object]]] = None,
        trace: bool = False,
    ) -> None:
        validate_plan_parameters(max_lanes, max_pad_waste)
        self.max_lanes = int(max_lanes)
        self.pad_lanes = bool(pad_lanes)
        self.max_pad_waste = None if max_pad_waste is None else float(max_pad_waste)
        self.record_timeline = bool(record_timeline)
        self.executor = executor
        self.metrics_for = metrics_for
        self.trace = bool(trace)
        #: Concurrency-accounting tag on a (possibly borrowed) pool: this
        #: scheduler's ``peak_concurrent_launches`` must count only its
        #: own overlap, not other owners sharing the executor.
        self._owner = f"sched-{mint_span_id()}"

    # ------------------------------------------------------------------
    def plan(self, jobs: Sequence) -> List[PlannedBatch]:
        """Plan a job list into launches (indices into ``jobs``)."""
        requests = []
        for i, job in enumerate(jobs):
            cfg = job.config
            requests.append(
                LaneRequest(
                    index=i,
                    seed=cfg.seed,
                    engine=job.engine,
                    # Same batch key <=> same launch geometry and model;
                    # the config is hashable, so the config-minus-seed
                    # itself is the key.
                    batch_key=(job.engine, cfg.replace(seed=0)),
                    # Pad-fusable <=> agreement on what BatchedEngine
                    # requires lanes to share (params, steps, backend) on
                    # the same engine.
                    pad_key=(job.engine, cfg.params, cfg.steps, cfg.backend),
                    agents=cfg.total_agents,
                    config=cfg,
                    priority=getattr(job, "priority", 0),
                )
            )
        return plan_lanes(
            requests,
            max_lanes=self.max_lanes,
            pad_lanes=self.pad_lanes,
            max_pad_waste=self.max_pad_waste,
        )

    # ------------------------------------------------------------------
    def _work_for(self, batch: PlannedBatch, lane_jobs: Sequence) -> LaunchWork:
        """Lower one planned batch to the shared launch payload."""
        return LaunchWork(
            configs=tuple(j.config for j in lane_jobs),
            engine=lane_jobs[0].engine,
            batched=batch.batched,
            record_timeline=self.record_timeline,
            metrics=self.metrics_for(lane_jobs) if self.metrics_for else None,
            trace=TraceSpec(dispatched_unix=time.time()) if self.trace else None,
        )

    def _score(self, batch: PlannedBatch, stats: SchedulerStats) -> None:
        n = batch.n_lanes
        stats.engine_launches += 1
        stats.lanes_executed += n
        stats.largest_batch = max(stats.largest_batch, n)
        if batch.batched:
            stats.multi_lane_batches += 1
            stats.padded_batches += 1 if batch.mixed else 0
        else:
            stats.solo_runs += 1

    def _resolve(
        self,
        batch: PlannedBatch,
        outcome,
        extra_spans: Tuple[dict, ...] = (),
    ) -> List[ExecutionOutcome]:
        n = batch.n_lanes
        spans = extra_spans + tuple(getattr(outcome, "spans", ()))
        return [
            ExecutionOutcome(
                result=result, lanes=n, wall_seconds=wall, spans=spans
            )
            for result, wall in zip(outcome.results, outcome.wall_seconds)
        ]

    def _fail(
        self,
        batch: PlannedBatch,
        exc: BaseException,
        work: Optional[LaunchWork] = None,
        extra_spans: Tuple[dict, ...] = (),
    ) -> List[ExecutionOutcome]:
        spans = extra_spans
        if self.trace:
            # The launch never reported back (crashed worker, engine
            # error): stand in for its torn spans with one error span
            # covering dispatch → failure detection.
            started = (
                work.trace.dispatched_unix
                if work is not None and work.trace is not None
                else time.time()
            )
            spans = extra_spans + (
                span_dict(
                    "engine.run",
                    start_unix=started,
                    duration_s=time.time() - started,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                ),
            )
        return [
            ExecutionOutcome(error=str(exc), lanes=batch.n_lanes, spans=spans)
            for _ in batch.indices
        ]

    # ------------------------------------------------------------------
    def execute_iter(
        self, jobs: Sequence, stats: SchedulerStats
    ) -> Iterator[Tuple[PlannedBatch, List[ExecutionOutcome]]]:
        """Run every job, yielding ``(batch, outcomes)`` per launch.

        Outcomes align with ``batch.indices`` (positions in ``jobs``).
        ``stats`` is mutated as launches complete so a caller consuming
        incrementally always sees current counters. A launch that raises
        (engine/build errors, or a crashed pool worker) fails only its
        own lanes — the remaining launches still run.

        Serially, launches yield in plan order (priority-first). With an
        executor attached and more than one launch, all launches are
        submitted up front — priority first, then heaviest by real
        agent-steps — and yield in *completion* order, so the caller can
        resolve finished jobs while siblings are still running.
        """
        plan_started = time.time()
        plan_t0 = time.perf_counter()
        plan = self.plan(jobs)
        entries = []
        for batch in plan:
            lane_jobs = [jobs[i] for i in batch.indices]
            work = self._work_for(batch, lane_jobs)
            priority = max(getattr(j, "priority", 0) for j in lane_jobs)
            entries.append((batch, work, priority))
        # One plan span per tick, shared (by copy) across every launch:
        # planning + lowering happen once for the whole drained queue.
        extra: Tuple[dict, ...] = ()
        if self.trace:
            extra = (
                span_dict(
                    "plan",
                    start_unix=plan_started,
                    duration_s=time.perf_counter() - plan_t0,
                    jobs=len(jobs),
                    launches=len(entries),
                ),
            )

        pool = self.executor
        if pool is not None and len(entries) > 1:
            order = sorted(
                range(len(entries)),
                key=lambda i: (-entries[i][2], -launch_cost(entries[i][1]), i),
            )
            futures = {}
            for i in order:
                batch, work, priority = entries[i]
                future = pool.submit(
                    execute_launch,
                    work,
                    cost=launch_cost(work),
                    priority=priority,
                    owner=self._owner,
                )
                futures[future] = (batch, work)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    batch, work = futures[future]
                    exc = future.exception()
                    if exc is not None:
                        stats.failed_launches += 1
                        outcomes = self._fail(batch, exc, work, extra)
                    else:
                        self._score(batch, stats)
                        outcomes = self._resolve(batch, future.result(), extra)
                    stats.peak_concurrent_launches = max(
                        stats.peak_concurrent_launches,
                        pool.peak_busy_for(self._owner),
                    )
                    yield batch, outcomes
            return

        for batch, work, _ in entries:
            try:
                outcome = execute_launch(work)
            except Exception as exc:  # noqa: BLE001 - a launch must never
                # strand its jobs: anything an engine throws (ReproError,
                # numpy shape/memory errors, bugs) becomes a per-job
                # failure the service can report, not a lost tick.
                stats.failed_launches += 1
                yield batch, self._fail(batch, exc, work, extra)
                continue
            self._score(batch, stats)
            stats.peak_concurrent_launches = max(
                stats.peak_concurrent_launches, 1
            )
            yield batch, self._resolve(batch, outcome, extra)

    # ------------------------------------------------------------------
    def execute(self, jobs: Sequence) -> Tuple[List[ExecutionOutcome], SchedulerStats]:
        """Run every job; outcomes align with ``jobs`` by position."""
        outcomes: List[Optional[ExecutionOutcome]] = [None] * len(jobs)
        stats = SchedulerStats()
        for batch, batch_outcomes in self.execute_iter(jobs, stats):
            for i, outcome in zip(batch.indices, batch_outcomes):
                outcomes[i] = outcome
        # plan_lanes covers every index exactly once, so no slot is None;
        # guard anyway so a planner regression surfaces loudly here.
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if missing:
            raise ReproError(
                f"scheduler lost jobs at positions {missing}"
            )  # pragma: no cover - planner invariant
        return outcomes, stats
