"""Throughput metrics (paper Section VI).

"We define throughput of pedestrians as the number of pedestrians able to
cross the environment and reach the other side and the number of time steps
required." The tracker hooks into an engine run and records cumulative
crossings per step per group, yielding both quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..engine.base import SoloEngine, StepReport
from ..types import Group

__all__ = ["ThroughputTracker", "ThroughputSummary"]


@dataclass
class ThroughputSummary:
    """Final throughput figures of one run."""

    total_agents: int
    crossed_total: int
    crossed_top: int
    crossed_bottom: int
    steps: int
    #: Step at which half of the final crossings had occurred (-1 if none).
    half_crossing_step: int
    #: Mean first-crossing step over agents that crossed (nan if none).
    mean_crossing_step: float

    @property
    def fraction(self) -> float:
        """Crossed fraction of the population."""
        return self.crossed_total / self.total_agents if self.total_agents else 0.0


class ThroughputTracker:
    """Per-step crossing recorder; use as an engine run callback.

    >>> tracker = ThroughputTracker()
    >>> # engine.run(callback=tracker)   # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.new_crossings: List[int] = []
        self._engine: Optional[SoloEngine] = None

    def __call__(self, engine: SoloEngine, report: StepReport) -> None:
        """Engine callback signature."""
        self._engine = engine
        self.new_crossings.append(report.new_crossings)

    @property
    def cumulative(self) -> np.ndarray:
        """Cumulative crossings per step."""
        return np.cumsum(np.asarray(self.new_crossings, dtype=np.int64))

    def summary(self) -> ThroughputSummary:
        """Summarise after the run completes."""
        if self._engine is None:
            raise RuntimeError("tracker has not observed any steps")
        eng = self._engine
        pop = eng.pop
        crossed_steps = pop.crossed_step[pop.crossed]
        cum = self.cumulative
        total_crossed = int(cum[-1]) if cum.size else 0
        half_step = -1
        if total_crossed > 0:
            half_step = int(np.searchsorted(cum, (total_crossed + 1) // 2))
        return ThroughputSummary(
            total_agents=pop.n_agents,
            crossed_total=pop.crossed_count(),
            crossed_top=pop.crossed_count(Group.TOP),
            crossed_bottom=pop.crossed_count(Group.BOTTOM),
            steps=len(self.new_crossings),
            half_crossing_step=half_step,
            mean_crossing_step=float(crossed_steps.mean())
            if crossed_steps.size
            else float("nan"),
        )
