"""Gridlock detection.

The paper observes that "beyond the total population of 51,200, the
throughput of pedestrians becomes insignificant (total gridlock)". The
detector flags a run as gridlocked when the movement rate stays below a
threshold for a sustained window, and reports when that first happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..engine.base import SoloEngine, StepReport

__all__ = ["GridlockDetector", "is_gridlocked"]


def is_gridlocked(
    moved_per_step: np.ndarray,
    n_agents: int,
    rate_threshold: float = 0.01,
    window: int = 50,
) -> bool:
    """True when the trailing ``window`` steps all moved < threshold agents."""
    moved = np.asarray(moved_per_step, dtype=np.float64)
    if moved.size < window or n_agents <= 0:
        return False
    tail = moved[-window:] / n_agents
    return bool(np.all(tail < rate_threshold))


@dataclass
class GridlockDetector:
    """Engine callback detecting the onset of sustained immobility."""

    rate_threshold: float = 0.01
    window: int = 50
    moved: List[int] = None
    onset_step: Optional[int] = None
    _quiet: int = 0

    def __post_init__(self) -> None:
        self.moved = []

    def __call__(self, engine: SoloEngine, report: StepReport) -> None:
        """Record after each step; latches the first gridlock onset."""
        self.moved.append(report.moved)
        rate = report.moved / max(1, engine.pop.n_agents)
        if rate < self.rate_threshold:
            self._quiet += 1
            if self._quiet >= self.window and self.onset_step is None:
                self.onset_step = report.step - self.window + 1
        else:
            self._quiet = 0

    @property
    def gridlocked(self) -> bool:
        """True when a sustained immobile window was observed."""
        return self.onset_step is not None
