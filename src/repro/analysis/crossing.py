"""Crossing-time analysis.

The paper defines throughput as "the number of pedestrians able to cross
... and the number of time steps required"; this module analyses the
second half of that definition: the distribution of first-crossing steps,
percentiles, and comparisons between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..engine.base import SoloEngine
from ..errors import StatsError
from ..types import Group

__all__ = ["CrossingTimes", "crossing_times"]


@dataclass(frozen=True)
class CrossingTimes:
    """First-crossing step statistics of one finished run."""

    n_agents: int
    n_crossed: int
    steps: np.ndarray  # sorted first-crossing steps of crossed agents

    @property
    def fraction(self) -> float:
        """Crossed fraction."""
        return self.n_crossed / self.n_agents if self.n_agents else 0.0

    @property
    def mean(self) -> float:
        """Mean first-crossing step (nan if none crossed)."""
        return float(self.steps.mean()) if self.steps.size else float("nan")

    @property
    def median(self) -> float:
        """Median first-crossing step."""
        return float(np.median(self.steps)) if self.steps.size else float("nan")

    def percentile(self, q: float) -> float:
        """q-th percentile of the crossing step (q in [0, 100])."""
        if not (0.0 <= q <= 100.0):
            raise StatsError(f"percentile must be in [0, 100], got {q}")
        if self.steps.size == 0:
            return float("nan")
        return float(np.percentile(self.steps, q))

    def count_by(self, step: int) -> int:
        """Cumulative crossings at or before ``step`` (the Fig 6 ordinate
        for an arbitrary step budget)."""
        return int(np.searchsorted(self.steps, step, side="right"))

    def rate_between(self, start: int, stop: int) -> float:
        """Crossings per step inside the half-open window [start, stop)."""
        if stop <= start:
            raise StatsError(f"need stop > start, got [{start}, {stop})")
        inside = np.count_nonzero((self.steps >= start) & (self.steps < stop))
        return inside / (stop - start)


def crossing_times(engine: SoloEngine, group: Optional[Group] = None) -> CrossingTimes:
    """Extract the crossing-time distribution from a finished engine."""
    pop = engine.pop
    mask = pop.crossed.copy()
    mask[0] = False
    if group is not None:
        mask &= pop.group_mask(group)
    steps = np.sort(pop.crossed_step[mask])
    total = (
        pop.n_agents
        if group is None
        else int(np.count_nonzero(pop.group_mask(group)[1:]))
    )
    return CrossingTimes(n_agents=total, n_crossed=int(mask.sum()), steps=steps)
