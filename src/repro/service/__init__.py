"""Simulation-as-a-service: job queue, micro-batching, result cache.

The serving layer turns the one-shot simulator into a long-running
system: requests stream in (in-process or over HTTP), a micro-batching
scheduler packs whatever is queued into the fewest batched engine
launches the compatibility rules allow (the
:class:`~repro.exec.scheduler.BatchScheduler` the sweep runner also
dispatches through, here packing *online*), and a content-addressed
cache answers repeats without re-simulating. State is durable: a JSONL
job log replays on restart, so a killed server resumes its queue.

Quickstart::

    from repro import SimulationConfig
    from repro.service import SimulationService

    svc = SimulationService("service-state/")
    jobs = [svc.submit(SimulationConfig(height=24, width=24, n_per_side=32,
                                        steps=60, seed=s)) for s in range(8)]
    svc.run_until_idle()        # one padded batched launch, not 8 runs
    print(svc.stats_dict())

Or over HTTP: ``repro serve`` / ``repro submit`` / ``repro status``.
"""

from ..exec.scheduler import BatchScheduler, ExecutionOutcome, SchedulerStats
from .cache import ResultCache
from .client import (
    get_analytics_runs,
    get_fundamental_diagram,
    get_job,
    get_job_trace,
    get_metrics_text,
    get_stats,
    iter_job_stream,
    list_jobs,
    submit_jobs,
    wait_for_jobs,
)
from .http import DEFAULT_PORT, ROUTES, ServiceServer
from .jobs import Job, JobState, job_from_dict, job_to_dict
from .service import ServiceStats, SimulationService
from .store import JobStore

__all__ = [
    "SimulationService",
    "ServiceStats",
    "BatchScheduler",
    "SchedulerStats",
    "ExecutionOutcome",
    "Job",
    "JobState",
    "job_to_dict",
    "job_from_dict",
    "JobStore",
    "ResultCache",
    "ServiceServer",
    "DEFAULT_PORT",
    "ROUTES",
    "submit_jobs",
    "get_job",
    "list_jobs",
    "get_stats",
    "wait_for_jobs",
    "iter_job_stream",
    "get_analytics_runs",
    "get_fundamental_diagram",
    "get_job_trace",
    "get_metrics_text",
]
