"""Unified execution layer: one persistent worker pool for all dispatch.

``repro.exec`` is the subsystem both parallel callers share:

* :class:`ExecutorPool` — persistent forkserver/spawn worker processes
  with LPT + priority scheduling, per-launch failure isolation (a
  crashed worker fails only its own batch and is respawned) and
  future-based results;
* :class:`LaunchWork` / :func:`execute_launch` — the declarative engine
  launch payload (per-lane configs) that the sweep runner's planned
  units and the service scheduler's micro-batches both reduce to;
* :data:`MP_START_METHOD` — the forward-compatible start-method choice.

The sweep (:class:`repro.experiments.sweep.SweepRunner`) submits a whole
planned grid and gathers futures in request order; the service
(:class:`repro.service.scheduler.BatchScheduler` with ``workers > 1``)
submits each tick's launches concurrently and resolves jobs as batches
finish. Results are bit-identical either way — a work item is nothing
but configs, so where it runs cannot change what it computes.
"""

from .pool import MP_START_METHOD, ExecutorPool
from .work import (
    LaunchOutcome,
    LaunchWork,
    execute_launch,
    launch_cost,
    warm_backend,
)

__all__ = [
    "MP_START_METHOD",
    "ExecutorPool",
    "LaunchWork",
    "LaunchOutcome",
    "execute_launch",
    "launch_cost",
    "warm_backend",
]
