"""repro — GPU-accelerated nature-inspired bi-directional pedestrian movement.

Full reproduction of Dutta, McLeod & Friesen, "GPU Accelerated Nature
Inspired Methods for Modelling Large Scale Bi-Directional Pedestrian
Movement" (IPPS 2014 workshops): the Least Effort Model and the modified
Ant Colony Optimization pedestrian models, the four-stage data-driven
kernel pipeline (sequential and vectorized engines), a Fermi
execution-model cost simulator, and the full Figure 5 / Figure 6
experiment harness.

Quickstart::

    from repro import SimulationConfig, run_simulation
    cfg = SimulationConfig(height=64, width=64, n_per_side=256,
                           steps=500).with_model("aco")
    out = run_simulation(cfg, engine="vectorized")
    print(out.result.throughput_total, "agents crossed")
"""

from ._version import __version__
from .analytics import MetricStreamSpec, RunStore, scenario_key
from .backend import (
    ArrayBackend,
    BackendCapabilities,
    available_backends,
    register_backend,
    resolve_backend,
)
from .components import (
    MODEL_PARAMS,
    Registry,
    register_model,
    register_model_params,
)
from .components.hooks import HOOKS, PanicHook, StepHook, register_hook
from .components.scenarios import (
    SCENARIOS,
    build_scenario,
    expand_scenarios,
    register_scenario,
)
from .config import SimulationConfig, paper_config
from .engine import (
    BatchedEngine,
    BatchedTimedResult,
    RunResult,
    SequentialEngine,
    StepReport,
    TimedRunResult,
    VectorizedEngine,
    available_engines,
    build_engine,
    run_batched,
    run_simulation,
)
from .errors import (
    AnalyticsError,
    BackendUnavailableError,
    ConfigurationError,
    EngineError,
    ExperimentError,
    LaunchConfigError,
    OccupancyError,
    PlacementError,
    ReproError,
    StatsError,
    WorkerCrashError,
)
from .exec import ExecutorPool
from .models import (
    ACOModel,
    ACOParams,
    GreedyParams,
    LEMModel,
    LEMParams,
    ModelParams,
    PheromoneField,
    RandomParams,
    build_model,
    params_from_name,
)
from .grid import ObstacleSpec
from .types import BOTTOM, EMPTY, TOP, CellState, Group, NeighborSlot

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "paper_config",
    # component framework
    "Registry",
    "MODEL_PARAMS",
    "HOOKS",
    "SCENARIOS",
    "register_model",
    "register_model_params",
    "register_hook",
    "register_scenario",
    "StepHook",
    "PanicHook",
    "build_scenario",
    "expand_scenarios",
    # backends
    "ArrayBackend",
    "BackendCapabilities",
    "available_backends",
    "register_backend",
    "resolve_backend",
    # engines
    "SequentialEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "build_engine",
    "available_engines",
    "run_simulation",
    "run_batched",
    "RunResult",
    "StepReport",
    "TimedRunResult",
    "BatchedTimedResult",
    # execution layer
    "ExecutorPool",
    # analytics
    "RunStore",
    "MetricStreamSpec",
    "scenario_key",
    # models
    "ModelParams",
    "LEMParams",
    "ACOParams",
    "RandomParams",
    "GreedyParams",
    "LEMModel",
    "ACOModel",
    "PheromoneField",
    "build_model",
    "params_from_name",
    # types
    "ObstacleSpec",
    "Group",
    "CellState",
    "NeighborSlot",
    "TOP",
    "BOTTOM",
    "EMPTY",
    # errors
    "ReproError",
    "AnalyticsError",
    "BackendUnavailableError",
    "ConfigurationError",
    "PlacementError",
    "EngineError",
    "LaunchConfigError",
    "OccupancyError",
    "StatsError",
    "ExperimentError",
    "WorkerCrashError",
]
