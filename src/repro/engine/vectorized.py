"""The solo whole-array engine — the GPU stand-in — as a one-lane batch.

A solo run is the B=1 case of :class:`~repro.engine.batched.BatchedEngine`:
its stages already run as one whole-array launch over every agent, the
paper's kernel sequence. :class:`VectorizedEngine` puts the solo-engine
surface on top (``env``/``pop``/``pher`` views, int step reports,
``run()``, ``swap_model``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..agents import Population
from ..grid.environment import Environment
from .base import SoloEngine, StepReport
from .batched import BatchedEngine
# Traced benchmark runs patch both names on this module (perfbench/paper.py).
from .conflict import shift, winner_rank  # noqa: F401

__all__ = ["VectorizedEngine"]


class VectorizedEngine(SoloEngine, BatchedEngine):
    """The solo whole-array engine: a one-lane :class:`BatchedEngine`.

    ``env``, ``pop`` and ``pher`` are an :class:`Environment`, a
    :class:`Population` and a ``(2, H, W)`` pheromone field whose arrays
    are views of lane 0, so they always show the engine's live state with
    no per-step copies.
    """

    platform = "vectorized"

    def __init__(self, config, seed: Optional[int] = None) -> None:
        seed = int(config.seed if seed is None else seed)
        super().__init__(config, (seed,))
        self.seed = seed
        self.env = Environment.over(self.mats[0], self.index[0], self.backend)
        self.pop = Population.over(
            {name: getattr(self, name)[0] for name in Population.FIELDS},
            self.backend,
        )
        self._bind_pheromone()

    def _bind_pheromone(self) -> None:
        self.pher = None if self.tau is None else self.tau.lane(0)

    def step(self) -> StepReport:
        report = super().step()
        # The per-lane counts stay on the device through the stages; the
        # report build is the recording boundary, so the host sync is here.
        return StepReport(
            step=report.step,
            decided=int(report.decided[0]),
            moved=int(report.moved[0]),
            new_crossings=int(report.new_crossings[0]),
        )

    def eligible_mask(self, t: int) -> np.ndarray:
        """Movement eligibility per agent at step ``t`` (velocity classes)."""
        return self._eligible(t)[0]

    def swap_lane_model(self, lane: int, params) -> None:
        super().swap_lane_model(lane, params)
        self._bind_pheromone()

    def swap_model(self, params) -> None:
        """Swap the movement model mid-run (panic-alarm extension)."""
        self.swap_lane_model(0, params)
