"""The unit of pool work: one engine launch, described declaratively.

:class:`~repro.exec.scheduler.BatchScheduler` — the dispatch path of
the sweep runner's offline grids and the service's online micro-batches
— reduces each planned :class:`~repro.planner.PlannedBatch` to one
executable payload: a tuple of per-lane :class:`~repro.config.SimulationConfig`
(seeds included) plus how to launch them. :class:`LaunchWork` is that
payload, :func:`execute_launch` runs it (in-process or inside an
:class:`~repro.exec.pool.ExecutorPool` worker), and
:func:`launch_cost` prices it for LPT scheduling.

Because a work item is nothing but configs, results inherit the batched
engine's bit-identity guarantee unchanged: the same ``LaunchWork``
produces the same trajectories whether it runs on the caller's thread,
a pool worker, or is split differently across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..analytics import MetricStream, MetricStreamSpec
from ..backend import resolve_backend
from ..config import SimulationConfig
from ..engine import run_batched, run_simulation
from ..engine.base import RunResult
from ..obs import TraceSpec, Tracer

__all__ = ["LaunchWork", "LaunchOutcome", "execute_launch", "launch_cost", "warm_backend"]


@dataclass(frozen=True)
class LaunchWork:
    """One engine launch: per-lane configs plus launch shape.

    ``configs`` carries one fully-resolved config per lane — each lane's
    seed lives in its config, so the item is self-contained and pickles
    into a pool worker without side channels.

    ``batched`` selects :func:`~repro.engine.run_batched` (requires
    >= 2 lanes), which gets the whole per-lane config list: lanes that
    share a scenario and lanes padded over different ones take the same
    path. Non-batched work runs each config through a solo
    :func:`~repro.engine.run_simulation` on ``engine``.

    ``metrics`` optionally names a per-step metric stream (a picklable
    :class:`~repro.analytics.MetricStreamSpec`, one run id per lane).
    When set, the launch emits :class:`~repro.metrics.StepMetrics`
    records into the spec's analytics store *as steps execute* —
    wherever the launch runs, pool worker included. Metric emission is
    read-only over engine state, so results stay bit-identical to an
    unstreamed launch.

    ``trace`` optionally requests tracing spans (a picklable
    :class:`~repro.obs.TraceSpec` stamped when the launch was handed to
    the executor). The executing side records
    ``dispatch → warm_backend → engine.run → to_host`` spans and ships
    them back as wire dicts on :attr:`LaunchOutcome.spans`; the
    dispatching side grafts them onto each job's trace. Like metrics,
    tracing only reads clocks — results stay bit-identical.
    """

    configs: Tuple[SimulationConfig, ...]
    engine: str = "vectorized"
    batched: bool = False
    record_timeline: bool = False
    metrics: Optional[MetricStreamSpec] = None
    trace: Optional[TraceSpec] = None


@dataclass(frozen=True)
class LaunchOutcome:
    """Per-lane results of one executed :class:`LaunchWork`.

    ``wall_seconds`` aligns with ``results``: for a batched launch every
    lane reports the amortised batch wall (total / lanes); for solo runs
    each lane reports its own isolated wall.

    ``spans`` is the launch-level span tree as wire dicts (empty when
    the work carried no :class:`~repro.obs.TraceSpec`). Span ``trace_id``
    / ``parent_id`` are placeholders here — the committing side rewrites
    them into each job's own trace.
    """

    results: Tuple[RunResult, ...]
    lanes: int
    wall_seconds: Tuple[float, ...]
    spans: Tuple[dict, ...] = ()


def launch_cost(work: LaunchWork) -> int:
    """Real work of a launch in agent-steps (padding slots excluded).

    The LPT scheduling weight: a padded batch is priced by the sum of
    its lanes' *real* populations, not ``lane count x pad target``, so a
    worker that drew the large-lane batch is charged accordingly.
    """
    return sum(c.total_agents * c.steps for c in work.configs)


def warm_backend(name: str) -> None:
    """Worker initializer: resolve (and cache) an array backend up front.

    :func:`repro.backend.resolve_backend` memoises instances per process,
    so a persistent worker pays backend construction once — on the first
    launch without this, or at spawn with it. Passing this as an
    :class:`~repro.exec.pool.ExecutorPool` initializer just moves that
    cost off the first batch's critical path.
    """
    resolve_backend(name)


def execute_launch(work: LaunchWork) -> LaunchOutcome:
    """Run one work item; lane results return in ``work.configs`` order.

    With ``work.metrics`` set, a :class:`~repro.analytics.MetricStream`
    is built *here* — in whichever process the launch landed — and the
    engines' per-step callbacks stream records through it into the
    analytics store while the launch runs. The stream is closed (tail
    flushed) even when the launch raises, so a failed run keeps the
    steps it completed.
    """
    configs = list(work.configs)
    stream = (
        MetricStream(work.metrics, configs) if work.metrics is not None else None
    )
    tracer = None
    if work.trace is not None:
        tracer = Tracer()
        # The gap between the dispatcher's stamp and this process picking
        # the work up: queue-for-worker + pickling + transit (≈0 inline).
        now = time.time()
        tracer.add(
            "dispatch",
            start_unix=work.trace.dispatched_unix,
            duration_s=now - work.trace.dispatched_unix,
        )
    try:
        if work.batched and len(configs) > 1:
            seeds = [c.seed for c in configs]
            if tracer is not None:
                # Memoised per process — a warm worker's span is ~0,
                # a cold one shows the real backend construction cost.
                with tracer.span("warm_backend"):
                    resolve_backend(configs[0].backend)
            run_span = (
                tracer.start(
                    "engine.run", engine="batched", lanes=len(configs)
                )
                if tracer is not None
                else None
            )
            out = run_batched(
                configs,
                seeds,
                record_timeline=work.record_timeline,
                callback=stream.batched_callback if stream is not None else None,
            )
            if run_span is not None:
                run_span.attrs["steps"] = out.results[0].steps_run
                tracer.finish(run_span)
            per_lane_wall = out.wall_seconds_per_lane
            with _maybe_span(tracer, "to_host"):
                outcome = LaunchOutcome(
                    results=tuple(out.results),
                    lanes=len(configs),
                    wall_seconds=(per_lane_wall,) * len(configs),
                )
            return _with_spans(outcome, tracer)
        results = []
        walls = []
        for i, cfg in enumerate(configs):
            timed = run_simulation(
                cfg,
                engine=work.engine,
                record_timeline=work.record_timeline,
                callback=stream.solo_callback(i) if stream is not None else None,
                tracer=tracer,
            )
            results.append(timed.result)
            walls.append(timed.wall_seconds)
        with _maybe_span(tracer, "to_host"):
            outcome = LaunchOutcome(
                results=tuple(results), lanes=1, wall_seconds=tuple(walls)
            )
        return _with_spans(outcome, tracer)
    finally:
        if stream is not None:
            stream.close()


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


def _maybe_span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else _NULL_CONTEXT


def _with_spans(outcome: LaunchOutcome, tracer: Optional[Tracer]) -> LaunchOutcome:
    if tracer is None:
        return outcome
    return replace(outcome, spans=tracer.wire())
