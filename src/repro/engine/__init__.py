"""Simulation engines: sequential (CPU), whole-array batched (GPU) and the driver."""

from .base import ABS_STEP_COSTS, RunResult, SoloEngine, StepReport
from .batched import (
    BatchedEngine,
    BatchedStepReport,
    BatchedTimedResult,
    run_batched,
)
from .conflict import DIRECTION_INDEX, shift, winner_rank
from .sequential import SequentialEngine
from .simulation import (
    TimedRunResult,
    available_engines,
    build_engine,
    run_simulation,
)
from .vectorized import VectorizedEngine

__all__ = [
    "SoloEngine",
    "SequentialEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "StepReport",
    "BatchedStepReport",
    "RunResult",
    "TimedRunResult",
    "BatchedTimedResult",
    "run_batched",
    "ABS_STEP_COSTS",
    "DIRECTION_INDEX",
    "shift",
    "winner_rank",
    "available_engines",
    "build_engine",
    "run_simulation",
]
