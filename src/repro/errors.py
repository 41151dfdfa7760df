"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Validation helpers raise the most specific subclass available.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "PlacementError",
    "EngineError",
    "BackendUnavailableError",
    "LaunchConfigError",
    "OccupancyError",
    "StatsError",
    "ExperimentError",
    "ServiceError",
    "WorkerCrashError",
    "AnalyticsError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A simulation/model configuration value is invalid or inconsistent."""


class PlacementError(ReproError, ValueError):
    """Agents cannot be placed as requested (band too small, overlap...)."""


class EngineError(ReproError, RuntimeError):
    """An engine was driven through an invalid state transition."""


class BackendUnavailableError(ReproError, RuntimeError):
    """A requested array backend is unknown or cannot be imported here.

    Raised by :func:`repro.backend.resolve_backend` — e.g. a name no
    :func:`~repro.backend.register_backend` call registered. The CLI maps
    it (like every :class:`ReproError`) to a clean exit code 2.
    """


class LaunchConfigError(ReproError, ValueError):
    """A CUDA kernel launch configuration violates device limits."""


class OccupancyError(ReproError, ValueError):
    """Occupancy calculation received resources beyond device capability."""


class StatsError(ReproError, ValueError):
    """Statistical routine received degenerate or ill-shaped input."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment driver failed or was mis-parameterised."""


class WorkerCrashError(ReproError, RuntimeError):
    """A pool worker process died while executing a launch.

    Raised from the future of the batch the worker was running (OOM
    kills, segfaults, SIGKILL). The :class:`repro.exec.ExecutorPool`
    respawns the worker, so sibling batches and subsequent submissions
    are unaffected — the crash costs exactly one batch.
    """


class AnalyticsError(ReproError, RuntimeError):
    """The analytics store is unusable or was driven incorrectly.

    Raised by :class:`repro.analytics.RunStore` on corrupt database
    files, schema versions newer than this build understands, and
    queries against unknown runs. The CLI maps it (like every
    :class:`ReproError`) to a clean exit code 2.
    """


class ServiceError(ReproError, RuntimeError):
    """The simulation service was mis-used or an RPC to it failed.

    Raised by the job store on corrupt state, by the HTTP client on
    connection/protocol failures, and by :class:`repro.service.service.
    SimulationService` on unknown job ids. The CLI maps it (like every
    :class:`ReproError`) to a clean exit code 2.
    """
