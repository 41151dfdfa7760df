"""Step-hooks: scheduled, deterministic engine-state mutations.

The paper's Section VII panic alarm is one instance of a general shape:
*at a known step, mutate the engine's state in a way that is a pure
function of the step* — swap movement parameters, open a door, flip a
policy. :class:`StepHook` captures that shape as a frozen, hashable,
serialisable component that rides inside
:class:`~repro.config.SimulationConfig` (``hooks=...``), which is what
lets hooks flow through every execution path unchanged: solo engines,
the batched engine's padded lanes, pickled pool work items, the result
cache's content digest and the service wire format.

Determinism contract: a hook fires exactly once, *before* the engine
executes step ``fire_step()`` (equivalently: after step
``fire_step() - 1`` completes). Because that is a pure function of the
step counter, a hooked run is bit-identical across the sequential,
vectorized, tiled and batched engines — including padded batches that
mix hooked and unhooked lanes (see ``swap_lane_model`` on
:class:`~repro.engine.batched.BatchedEngine`).

Hook kinds register by name so wire payloads round-trip::

    @register_hook("panic")
    @dataclass(frozen=True)
    class PanicHook(StepHook): ...

    config = config.replace(hooks=(PanicHook(trigger_step=100),))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..models.params import (
    ACOParams,
    LEMParams,
    ModelParams,
    params_from_dict,
    params_to_dict,
)
from .registry import Registry

__all__ = [
    "HOOKS",
    "StepHook",
    "PanicHook",
    "register_hook",
    "hook_from_dict",
    "hooks_from_specs",
    "panic_variant",
]

#: ``kind`` → :class:`StepHook` subclass (wire-format round-trips).
HOOKS = Registry("step hook")


def register_hook(kind: str):
    """Class decorator: register a hook kind for (de)serialisation."""

    def deco(cls):
        HOOKS.register(kind, cls)
        return cls

    return deco


def panic_variant(params: ModelParams) -> ModelParams:
    """Default "panicked" counterpart of a parameter bundle.

    * LEM: the waiting behaviour disappears — agents always take the best
      reachable cell (``ceil`` rule, draw pinned near the top score);
    * ACO: goal-seeking dominates the trail (beta up) and trails decay
      fast (rho up) — panicking crowds stop following predecessors.
    """
    if isinstance(params, LEMParams):
        return params.replace(rule="ceil", mu=1.0, sigma=0.25)
    if isinstance(params, ACOParams):
        return params.replace(beta=max(3.0, params.beta), rho=min(1.0, params.rho * 5))
    raise ConfigurationError(
        f"no default panic variant for {type(params).__name__}; pass one explicitly"
    )


@dataclass(frozen=True)
class StepHook:
    """Base class for scheduled engine mutations (frozen → hashable).

    Subclasses implement the firing step and the mutation, twice: once
    against a solo :class:`~repro.engine.base.BaseEngine` and once
    against one lane of a :class:`~repro.engine.batched.BatchedEngine`.
    Both must express the *same* mutation so batched lanes stay
    bit-identical to their solo runs.
    """

    #: Registry kind; subclasses override (class attribute, not a field).
    kind = "base"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on invalid values."""

    def fire_step(self) -> int:
        """The step *before* which the hook applies (>= 1)."""
        raise NotImplementedError

    def apply(self, engine) -> None:
        """Mutate a solo engine (sequential/vectorized/tiled)."""
        raise NotImplementedError

    def apply_lane(self, engine, lane: int) -> None:
        """Mutate one lane of a batched engine."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-ready spec; the inverse of :func:`hook_from_dict`."""
        raise NotImplementedError


@register_hook("panic")
@dataclass(frozen=True)
class PanicHook(StepHook):
    """Scheduled model swap — the Section VII panic alarm as a component.

    At ``trigger_step`` every agent switches to the "panicked" movement
    parameters (``panic_params``, defaulting to :func:`panic_variant` of
    the run's configured bundle). The batched realisation swaps only the
    hook's own lane, so a padded batch mixing panicked and calm lanes
    reproduces each solo trajectory exactly.

    The default panic variants keep ``scan_range`` and the pheromone
    family unchanged, which is what the batched per-lane swap requires;
    an explicit ``panic_params`` crossing those lines still works on the
    solo engines but raises :class:`~repro.errors.EngineError` when a
    batched lane tries to apply it.
    """

    kind = "panic"

    trigger_step: int = 0
    panic_params: Optional[ModelParams] = None

    def validate(self) -> None:
        if self.trigger_step < 0:
            raise ConfigurationError(
                f"trigger_step must be >= 0, got {self.trigger_step}"
            )
        if self.panic_params is not None:
            if not isinstance(self.panic_params, ModelParams):
                raise ConfigurationError(
                    f"panic_params must be a ModelParams bundle, "
                    f"got {type(self.panic_params)!r}"
                )
            self.panic_params.validate()

    def fire_step(self) -> int:
        # A swap cannot precede the first step; trigger 0 degenerates to 1.
        return max(int(self.trigger_step), 1)

    def _params_for(self, configured: ModelParams) -> ModelParams:
        return (
            self.panic_params
            if self.panic_params is not None
            else panic_variant(configured)
        )

    def apply(self, engine) -> None:
        engine.swap_model(self._params_for(engine.config.params))

    def apply_lane(self, engine, lane: int) -> None:
        engine.swap_lane_model(lane, self._params_for(engine.configs[lane].params))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trigger_step": int(self.trigger_step),
            "panic_params": (
                None
                if self.panic_params is None
                else params_to_dict(self.panic_params)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PanicHook":
        spec = dict(data)
        spec.pop("kind", None)
        trigger = spec.pop("trigger_step", 0)
        params_spec = spec.pop("panic_params", None)
        if spec:
            raise ConfigurationError(
                f"unknown panic-hook fields {sorted(spec)}; expected "
                f"'trigger_step' and optional 'panic_params'"
            )
        try:
            trigger = int(trigger)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"panic-hook trigger_step must be an integer, got {trigger!r}"
            ) from None
        params = None if params_spec is None else params_from_dict(params_spec)
        hook = cls(trigger_step=trigger, panic_params=params)
        hook.validate()
        return hook


def hook_from_dict(data: dict) -> StepHook:
    """Rebuild a hook from its :meth:`StepHook.to_dict` spec."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"hook spec must be a JSON object, got {type(data).__name__}"
        )
    cls = HOOKS.get(data.get("kind", ""))
    hook = cls.from_dict(data)
    hook.validate()
    return hook


def hooks_from_specs(specs) -> Tuple[StepHook, ...]:
    """Decode a ``hooks`` wire list into validated hook instances."""
    if not isinstance(specs, (list, tuple)):
        raise ConfigurationError(
            f"hooks must be a list of hook specs, got {type(specs).__name__}"
        )
    return tuple(hook_from_dict(spec) for spec in specs)
