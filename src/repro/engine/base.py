"""Shared engine surface: the paper's synchronous step pipeline.

Every engine executes the paper's kernel sequence each step:

1. **initial calculation** (scan): per agent, find the empty neighbour
   cells and compute the eq. 1 inputs / eq. 2 numerators; the scan values
   and each agent's forward-cell flag pass straight to tour construction
   and are not kept between steps;
2. **tour construction** (select): per agent, decide the future cell —
   forward if the front cell is empty, else the model's probabilistic rule;
   the decided moves pass straight to agent movement;
3. **agent movement**: per *empty cell*, gather the agents that target it,
   pick one winner uniformly (the scatter-to-gather transform), execute the
   moves, update tours, pheromones and crossing bookkeeping.

The paper's fourth kernel, **support**, has no counterpart: its
separate GPU launches pass decisions only through the global-memory
FUTURE ROW / COLUMN fields, which support resets; here each stage
returns its result to the next, so there is nothing to reset.

Engines differ only in *how* the stages execute (Python loops or
whole-array NumPy); the keyed RNG makes their outputs bit-identical.
The sequential reference engine
(:class:`~repro.engine.sequential.SequentialEngine`) runs the stages as
scalar loops; the whole-array engines run them as one-lane batched
engines (:mod:`repro.engine.vectorized`). Both share the solo surface of
:class:`SoloEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..config import SimulationConfig
from ..errors import EngineError
from ..grid import place_groups
from ..grid.environment import Environment
from ..rng import PhiloxKeyedRNG
from ..types import Group

__all__ = ["SoloEngine", "StepReport", "RunResult", "require_float64"]


def require_float64(backend) -> None:
    """Reject backends without exact double precision (shared engine guard).

    The eq. 1/eq. 2 decision arithmetic requires float64 for the
    bit-identity guarantee; engines call this once at construction.
    """
    if not backend.capabilities.supports_float64:
        raise EngineError(
            f"backend {backend.name!r} lacks float64 support; the "
            "eq. 1/eq. 2 decision arithmetic requires exact double "
            "precision for the bit-identity guarantee"
        )


def place_config(config: SimulationConfig, seed: int) -> Environment:
    """The host environment with both groups placed for ``(config, seed)``.

    Obstacles are carved out before agents are placed; placement draws
    only from ``Stream.PLACEMENT`` of a fresh keyed RNG, so the result is
    a pure function of the geometry and seed on any backend.
    """
    obstacle_mask = (
        config.obstacles.build(config.height, config.width)
        if config.obstacles is not None
        else None
    )
    return place_groups(
        config.height,
        config.width,
        config.n_per_side,
        config.band_rows,
        PhiloxKeyedRNG(int(seed)),
        obstacles=obstacle_mask,
    )

#: Euclidean cost of a move in each absolute gather direction
#: (NW, N, NE, W, E, SW, S, SE) — the constant-memory tour-increment table.
ABS_STEP_COSTS = (
    1.4142135623730951,
    1.0,
    1.4142135623730951,
    1.0,
    1.0,
    1.4142135623730951,
    1.0,
    1.4142135623730951,
)


@dataclass(frozen=True)
class StepReport:
    """Per-step outcome summary of a solo engine's ``step()``."""

    step: int
    #: Agents that decided on a future cell in tour construction.
    decided: int
    #: Agents that actually moved (gather winners).
    moved: int
    #: Agents newly entering the opposite band this step.
    new_crossings: int


@dataclass
class RunResult:
    """Outcome of :meth:`SoloEngine.run`."""

    platform: str
    seed: int
    steps_run: int
    throughput_total: int
    throughput_top: int
    throughput_bottom: int
    moved_per_step: Optional[np.ndarray]
    crossings_per_step: Optional[np.ndarray]


class SoloEngine:
    """The surface of a solo run, shared by every engine name.

    Subclasses provide ``config``, ``seed``, ``platform``, ``backend``,
    the ``env``/``pop``/``pher`` state, :meth:`step` and their own
    ``validate_state`` invariant check; this class adds the run loop and
    the cross-engine state comparison on top.
    """

    #: Platform tag, mirrors the paper's CPU/GPU split.
    platform: str = "base"

    def run(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[["SoloEngine", StepReport], None]] = None,
        record_timeline: bool = True,
    ) -> RunResult:
        """Run ``steps`` steps (default: the configured budget).

        ``callback(engine, report)`` is invoked after every step; use it for
        metrics hooks and recorders. With ``record_timeline=True`` the
        per-step counters stream into preallocated ``(steps,)`` host
        buffers (the recording boundary); ``record_timeline=False`` skips
        the buffers entirely — the fast path for sweeps that only need
        totals.
        """
        n = self.config.steps if steps is None else int(steps)
        moved_tl = np.zeros(n, dtype=np.int64) if record_timeline else None
        cross_tl = np.zeros(n, dtype=np.int64) if record_timeline else None
        for i in range(n):
            report = self.step()
            if record_timeline:
                moved_tl[i] = report.moved
                cross_tl[i] = report.new_crossings
            if callback is not None:
                callback(self, report)
        return RunResult(
            platform=self.platform,
            seed=self.seed,
            steps_run=n,
            throughput_total=self.pop.crossed_count(),
            throughput_top=self.pop.crossed_count(Group.TOP),
            throughput_bottom=self.pop.crossed_count(Group.BOTTOM),
            moved_per_step=moved_tl,
            crossings_per_step=cross_tl,
        )

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def throughput(self) -> int:
        """Number of agents that have crossed so far."""
        return self.pop.crossed_count()

    def state_equals(self, other: "SoloEngine") -> bool:
        """Exact state equality with another engine (any platform)."""
        if not self.env.equals(other.env):
            return False
        if not self.pop.equals(other.pop):
            return False
        if (self.pher is None) != (other.pher is None):
            return False
        if self.pher is not None and not self.pher.equals(other.pher):
            return False
        return True
