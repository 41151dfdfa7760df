"""Simulation configuration.

:class:`SimulationConfig` captures everything needed to reproduce a run:
grid geometry, populations, the movement model and its parameters, the RNG
seed and the step budget. The paper's reference configuration is a 480x480
grid, populations from 1,280 to 51,200 per side, and 25,000 steps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from .components.hooks import StepHook, hooks_from_specs
from .errors import ConfigurationError
from .grid.obstacles import ObstacleSpec
from .models.params import (
    LEMParams,
    ModelParams,
    params_from_dict,
    params_from_name,
    params_to_dict,
)

__all__ = ["SimulationConfig", "paper_config"]


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one bi-directional crossing simulation.

    Attributes
    ----------
    height, width:
        Grid dimensions in cells. The paper fixes 480x480 and requires
        multiples of the 16-cell tile edge for its shared-memory kernels;
        the engines here run whole-array stages and accept any size.
    n_per_side:
        Number of agents in each group (total agents = 2x this).
    steps:
        Number of synchronous simulation steps (paper: 25,000).
    seed:
        Philox master seed; every random decision in a run derives from it.
    params:
        Movement-model parameter bundle; its ``model_name`` selects the
        model ("lem", "aco", "random", "greedy").
    fill_fraction:
        Target occupancy of the initial placement band. The band height is
        ``ceil(n_per_side / (width * fill_fraction))`` unless ``init_rows``
        overrides it ("random but kept confined to a pre-defined number of
        rows").
    init_rows:
        Optional explicit band height in rows.
    cross_band:
        Rows from the far edge that count as "crossed" (paper: entering the
        opposite group's starting band). Defaults to the placement band.
    forward_priority:
        The paper's modification: an agent whose forward cell is empty
        targets it without evaluating eq. 1 / eq. 2.
    slow_fraction, slow_period:
        Heterogeneous-velocity extension (paper Section VII future work):
        a ``slow_fraction`` of agents, chosen by a keyed draw, may move
        only every ``slow_period``-th step. The default 0 reproduces the
        paper's constant-velocity crowds.
    backend:
        Array-backend name the engines execute on ("numpy" by default, or
        any name added with :func:`repro.backend.register_backend`). The
        name is resolved through :func:`repro.backend.resolve_backend`
        when an engine is built, so a config naming an unregistered backend
        stays constructible — only running it raises
        :class:`~repro.errors.BackendUnavailableError`.
        Trajectories are bit-identical across backends (keyed integer
        Philox randomness + transcendental-free decision arithmetic).
    """

    height: int = 480
    width: int = 480
    n_per_side: int = 1280
    steps: int = 25000
    seed: int = 0
    params: ModelParams = field(default_factory=LEMParams)
    fill_fraction: float = 0.8
    init_rows: Optional[int] = None
    cross_band: Optional[int] = None
    forward_priority: bool = True
    slow_fraction: float = 0.0
    slow_period: int = 2
    #: Optional static obstacle layout (walls, bottlenecks, pillars).
    obstacles: Optional[ObstacleSpec] = None
    #: Array backend the engines run on ("numpy" | "profile" | registered name).
    backend: str = "numpy"
    #: Optional named-scenario label ("family:arg", see
    #: :mod:`repro.components.scenarios`). Part of the wire format and the
    #: cache digest when set; ``None`` (legacy index-driven configs) keeps
    #: pre-existing digests unchanged.
    scenario: Optional[str] = None
    #: Scheduled engine mutations (:class:`repro.components.hooks.StepHook`),
    #: applied deterministically before their firing step by every engine,
    #: per-lane in the batched engine. Empty for plain runs (and then
    #: omitted from the wire format, keeping pre-existing digests).
    hooks: tuple = ()

    def __post_init__(self) -> None:
        if self.height < 4 or self.width < 4:
            raise ConfigurationError(
                f"grid must be at least 4x4, got {self.height}x{self.width}"
            )
        if self.n_per_side < 1:
            raise ConfigurationError(
                f"n_per_side must be positive, got {self.n_per_side}"
            )
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if not (0.0 < self.fill_fraction <= 1.0):
            raise ConfigurationError(
                f"fill_fraction must be in (0, 1], got {self.fill_fraction}"
            )
        if not isinstance(self.params, ModelParams):
            raise ConfigurationError(
                f"params must be a ModelParams bundle, got {type(self.params)!r}"
            )
        self.params.validate()
        band = self.band_rows
        if band > self.height // 2:
            raise ConfigurationError(
                f"placement band of {band} rows per side does not fit a grid of "
                f"height {self.height}; reduce n_per_side or raise fill_fraction"
            )
        if self.n_per_side > band * self.width:
            raise ConfigurationError(
                f"cannot place {self.n_per_side} agents in a band of "
                f"{band}x{self.width} cells"
            )
        cross = self.cross_rows
        if not (1 <= cross <= self.height // 2):
            raise ConfigurationError(
                f"cross_band must be in [1, {self.height // 2}], got {cross}"
            )
        if not (0.0 <= self.slow_fraction <= 1.0):
            raise ConfigurationError(
                f"slow_fraction must be in [0, 1], got {self.slow_fraction}"
            )
        if self.slow_period < 2:
            raise ConfigurationError(
                f"slow_period must be >= 2, got {self.slow_period}"
            )
        if self.obstacles is not None:
            if not isinstance(self.obstacles, ObstacleSpec):
                raise ConfigurationError(
                    f"obstacles must be an ObstacleSpec, got {type(self.obstacles)!r}"
                )
            self.obstacles.validate()
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"backend must be a non-empty backend name, got {self.backend!r}"
            )
        if self.scenario is not None:
            if not isinstance(self.scenario, str) or not self.scenario.strip():
                raise ConfigurationError(
                    f"scenario must be a non-empty name or None, "
                    f"got {self.scenario!r}"
                )
        if not isinstance(self.hooks, tuple):
            # Lists arrive from callers assembling hooks incrementally;
            # coerce so the config stays hashable (cache/pad keys).
            object.__setattr__(self, "hooks", tuple(self.hooks))
        for hook in self.hooks:
            if not isinstance(hook, StepHook):
                raise ConfigurationError(
                    f"hooks must contain StepHook components, got {hook!r}"
                )
            hook.validate()

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def model_name(self) -> str:
        """Name of the movement model ("lem", "aco", ...)."""
        return self.params.model_name

    @property
    def band_rows(self) -> int:
        """Height in rows of each group's initial placement band."""
        if self.init_rows is not None:
            if self.init_rows < 1:
                raise ConfigurationError(
                    f"init_rows must be positive, got {self.init_rows}"
                )
            return self.init_rows
        return max(1, math.ceil(self.n_per_side / (self.width * self.fill_fraction)))

    @property
    def cross_rows(self) -> int:
        """Rows from the far edge that count as having crossed."""
        return self.cross_band if self.cross_band is not None else self.band_rows

    @property
    def total_agents(self) -> int:
        """Total number of agents in the environment (both groups)."""
        return 2 * self.n_per_side

    @property
    def density(self) -> float:
        """Fraction of grid cells initially occupied."""
        return self.total_agents / float(self.height * self.width)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "SimulationConfig":
        """Return a copy with ``changes`` applied, revalidated."""
        return dataclasses.replace(self, **changes)

    def with_model(self, name_or_params) -> "SimulationConfig":
        """Return a copy running a different movement model.

        Accepts a model name ("lem", "aco", "random", "greedy") or a
        :class:`~repro.models.params.ModelParams` bundle.
        """
        if isinstance(name_or_params, ModelParams):
            params = name_or_params
        else:
            params = params_from_name(str(name_or_params))
        return self.replace(params=params)

    def scaled(
        self,
        divisor: int,
        *,
        time_scaling: str = "diffusive",
        steps_override: Optional[int] = None,
    ) -> "SimulationConfig":
        """Scale the scenario down by a linear ``divisor``.

        Grid edges shrink by ``divisor`` and populations by ``divisor**2``
        (constant density). The step budget scales according to
        ``time_scaling``:

        * ``"diffusive"`` (default) — ``steps / height**2`` is preserved.
          Transport through jammed bi-directional crowds is diffusive, so
          the time for a jam-limited crossing grows with the *square* of
          the grid height; preserving the diffusive time scale keeps the
          density knees of Figure 6a at the paper's positions on scaled
          grids (calibrated empirically, see EXPERIMENTS.md).
        * ``"ballistic"`` — ``steps / height`` (the number of free-flow
          crossing times, 25,000/480 ≈ 52 in the paper) is preserved.
          Appropriate for low densities where transport stays ballistic.

        ``steps_override`` forces an explicit step budget.
        """
        if divisor < 1:
            raise ConfigurationError(f"divisor must be >= 1, got {divisor}")
        height = max(4, self.height // divisor)
        width = max(4, self.width // divisor)
        if steps_override is not None:
            steps = int(steps_override)
        elif time_scaling == "diffusive":
            steps = int(round(self.steps * (height / self.height) ** 2))
        elif time_scaling == "ballistic":
            steps = int(round(self.steps * (height / self.height)))
        else:
            raise ConfigurationError(
                f"time_scaling must be 'diffusive' or 'ballistic', got {time_scaling!r}"
            )
        return self.replace(
            height=height,
            width=width,
            n_per_side=max(1, self.n_per_side // (divisor * divisor)),
            steps=max(1, steps),
        )

    # ------------------------------------------------------------------
    # Wire format (job specs, result cache keys)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict capturing the full configuration.

        The inverse of :meth:`from_dict`; the serving layer ships job
        specs through this and the content-addressed result cache hashes
        it (:func:`repro.io.config_digest`). ``params`` carries its
        ``model_name`` explicitly (it is a class attribute, not a
        dataclass field) so the bundle class can be rebuilt. ``scenario``
        and ``hooks`` are emitted only when set — configs without them
        serialize (and therefore digest) exactly as before they existed.
        """
        params = params_to_dict(self.params)
        out = {
            "height": self.height,
            "width": self.width,
            "n_per_side": self.n_per_side,
            "steps": self.steps,
            "seed": self.seed,
            "params": params,
            "fill_fraction": self.fill_fraction,
            "init_rows": self.init_rows,
            "cross_band": self.cross_band,
            "forward_priority": self.forward_priority,
            "slow_fraction": self.slow_fraction,
            "slow_period": self.slow_period,
            "obstacles": None,
            "backend": self.backend,
        }
        if self.obstacles is not None:
            obstacles = dataclasses.asdict(self.obstacles)
            obstacles["rects"] = [list(r) for r in self.obstacles.rects]
            out["obstacles"] = obstacles
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.hooks:
            out["hooks"] = [hook.to_dict() for hook in self.hooks]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (revalidated).

        Accepts plain JSON-decoded dicts (tuples arrive as lists) and
        raises :class:`~repro.errors.ConfigurationError` on unknown
        fields, unknown model names or invalid values — the error class
        the CLI and HTTP layers already map to clean failures.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config spec must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown config fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        params_spec = payload.pop("params", None)
        if params_spec is not None:
            payload["params"] = params_from_dict(params_spec)
        hooks_spec = payload.pop("hooks", None)
        if hooks_spec is not None:
            payload["hooks"] = hooks_from_specs(hooks_spec)
        obstacles_spec = payload.pop("obstacles", None)
        if obstacles_spec is not None:
            if not isinstance(obstacles_spec, dict):
                raise ConfigurationError(
                    f"obstacles must be an object, got {type(obstacles_spec).__name__}"
                )
            obstacles_spec = dict(obstacles_spec)
            obstacles_spec["rects"] = tuple(
                tuple(int(v) for v in rect)
                for rect in obstacles_spec.get("rects", ())
            )
            try:
                payload["obstacles"] = ObstacleSpec(**obstacles_spec)
            except TypeError as exc:
                raise ConfigurationError(f"bad obstacle spec: {exc}") from None
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"bad config spec: {exc}") from None

    def describe(self) -> str:
        """One-line human-readable description of the configuration."""
        return (
            f"{self.model_name.upper()} on {self.height}x{self.width}, "
            f"{self.n_per_side} agents/side ({self.density:.1%} density), "
            f"{self.steps} steps, band={self.band_rows}, seed={self.seed}"
        )


def paper_config(
    total_agents: int = 2560,
    model: str = "lem",
    *,
    steps: int = 25000,
    seed: int = 0,
) -> SimulationConfig:
    """The paper's reference configuration for a given total population.

    ``total_agents`` is split evenly between the two groups ("equal numbers
    of individuals"), on the fixed 480x480 environment.

    >>> cfg = paper_config(2560)
    >>> (cfg.height, cfg.width, cfg.n_per_side)
    (480, 480, 1280)
    """
    if total_agents % 2:
        raise ConfigurationError(
            f"total_agents must be even (equal groups), got {total_agents}"
        )
    cfg = SimulationConfig(
        height=480,
        width=480,
        n_per_side=total_agents // 2,
        steps=steps,
        seed=seed,
    )
    return cfg.with_model(model)
