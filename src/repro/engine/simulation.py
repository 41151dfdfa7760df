"""Simulation driver: engine registry, timed runs, and step hooks.

This is the highest-level entry point most users need::

    from repro import SimulationConfig, run_simulation
    result = run_simulation(SimulationConfig(height=64, width=64,
                                             n_per_side=200, steps=500))
    print(result.throughput_total)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Type


from ..backend import resolve_backend
from ..backend.profiling import (
    PROFILE_PREFIX,
    DispatchProfile,
    ProfilingBackend,
)
from ..config import SimulationConfig
from ..errors import EngineError
from .base import RunResult, SoloEngine, StepReport
from .sequential import SequentialEngine
from .vectorized import VectorizedEngine

__all__ = [
    "ENGINE_REGISTRY",
    "available_engines",
    "build_engine",
    "run_simulation",
    "TimedRunResult",
]


#: Engine name -> class. "sequential" is the CPU stand-in and
#: "vectorized" the GPU stand-in, a one-lane batched engine over the
#: whole-array stages.
ENGINE_REGISTRY: Dict[str, Type[SoloEngine]] = {
    "sequential": SequentialEngine,
    "vectorized": VectorizedEngine,
}


def available_engines() -> Dict[str, Type[SoloEngine]]:
    """Return the engine registry (name -> solo engine class)."""
    return ENGINE_REGISTRY


def build_engine(
    config: SimulationConfig,
    engine: str = "vectorized",
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> SoloEngine:
    """Instantiate an engine by name for ``config``.

    ``backend`` overrides ``config.backend`` (an array-backend name such
    as "numpy" or "cupy"); the engine resolves it through
    :func:`repro.backend.resolve_backend`, so an unavailable backend
    raises :class:`~repro.errors.BackendUnavailableError` here.
    """
    registry = available_engines()
    try:
        cls = registry[engine]
    except KeyError:
        raise EngineError(
            f"unknown engine {engine!r}; available: {sorted(registry)}"
        ) from None
    if backend is not None:
        config = config.replace(backend=str(backend))
    return cls(config, seed=seed)


@dataclass
class TimedRunResult:
    """A :class:`RunResult` plus wall-clock timing (paper Fig. 5 inputs).

    ``profile`` carries the run's dispatch profile when the run executed
    on a counting backend (``run_simulation(profile=True)`` or an
    explicit ``"profile[:inner]"`` backend name); ``None`` otherwise.
    """

    result: RunResult
    wall_seconds: float
    config: SimulationConfig = field(repr=False, default=None)
    profile: Optional[DispatchProfile] = field(repr=False, default=None)

    @property
    def seconds_per_step(self) -> float:
        """Mean wall time per simulation step."""
        return self.wall_seconds / max(1, self.result.steps_run)

    @property
    def throughput_total(self) -> int:
        """Convenience passthrough."""
        return self.result.throughput_total


def run_simulation(
    config: SimulationConfig,
    engine: str = "vectorized",
    seed: Optional[int] = None,
    steps: Optional[int] = None,
    callback: Optional[Callable[[SoloEngine, StepReport], None]] = None,
    record_timeline: bool = True,
    backend: Optional[str] = None,
    profile: bool = False,
    tracer=None,
) -> TimedRunResult:
    """Build an engine, run it, and return the result with wall timing.

    ``profile=True`` wraps the configured backend in the dispatch-counting
    :class:`~repro.backend.ProfilingBackend` (``"profile:<inner>"``) and
    returns the run's :class:`~repro.backend.DispatchProfile` on
    ``TimedRunResult.profile`` — construction-time dispatches land in the
    profile's ``setup``, the run loop in ``counts``. Counting does not
    perturb the trajectory: a profiled run is bit-identical to an
    unprofiled one.

    ``tracer`` (a :class:`repro.obs.Tracer`) records two spans around
    the same boundaries the wall clock already measures: ``warm_backend``
    over backend resolution + engine construction, and ``engine.run``
    over the run loop + device fence, with step/agent counts as attrs.
    Like profiling, tracing only *reads* timing — trajectories are
    bit-identical with or without it.
    """
    if profile:
        base = str(backend if backend is not None else config.backend)
        if base != PROFILE_PREFIX and not base.startswith(PROFILE_PREFIX + ":"):
            base = f"{PROFILE_PREFIX}:{base}"
        backend = base
        # Zero stale counters (the instance is cached per name) so the
        # setup snapshot below covers only this engine's construction.
        resolve_backend(base).reset()
    warm_span = tracer.start("warm_backend") if tracer is not None else None
    eng = build_engine(config, engine=engine, seed=seed, backend=backend)
    if warm_span is not None:
        tracer.finish(warm_span)
    setup = None
    if isinstance(eng.backend, ProfilingBackend):
        # Counting backend (whether via profile=True or an explicit
        # "profile[:inner]" config): the measured region is the run loop,
        # so per-step figures — and the metric sink's per-step deltas —
        # exclude one-off construction uploads.
        setup = eng.backend.snapshot()
        eng.backend.reset()
    run_span = (
        tracer.start("engine.run", engine=engine, agents=config.total_agents)
        if tracer is not None
        else None
    )
    start = time.perf_counter()
    result = eng.run(steps=steps, callback=callback, record_timeline=record_timeline)
    # Fence queued device work so the wall time covers execution, not just
    # kernel launches (no-op on the CPU backend).
    eng.backend.synchronize()
    elapsed = time.perf_counter() - start
    if run_span is not None:
        run_span.attrs["steps"] = result.steps_run
        tracer.finish(run_span)
    run_profile = None
    if isinstance(eng.backend, ProfilingBackend):
        run_profile = DispatchProfile(
            counts=eng.backend.snapshot(),
            steps=result.steps_run,
            setup=setup,
        )
    return TimedRunResult(
        result=result, wall_seconds=elapsed, config=config, profile=run_profile
    )
