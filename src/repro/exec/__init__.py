"""Unified execution layer: one persistent worker pool, one dispatch path.

``repro.exec`` holds everything between a list of runs and their
results:

* :class:`ExecutorPool` — persistent forkserver/spawn worker processes
  with LPT + priority scheduling, per-launch failure isolation (a
  crashed worker fails only its own batch and is respawned) and
  future-based results;
* :class:`LaunchWork` / :func:`execute_launch` — the declarative engine
  launch payload (per-lane configs) every planned batch reduces to;
* :class:`repro.exec.scheduler.BatchScheduler` — plans runs into
  launches, lowers them to :class:`LaunchWork` and runs them inline or
  on a pool. The job service drives it once per tick, and
  :class:`repro.experiments.sweep.SweepRunner` once per grid;
* :data:`MP_START_METHOD` — the forward-compatible start-method choice.

Results are bit-identical however a launch is dispatched — a work item
is nothing but configs, so where it runs cannot change what it computes.
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
