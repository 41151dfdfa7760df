"""Flow and density profiles of the bi-directional crowd.

Diagnostics for analysing *why* a scenario jams: per-row occupancy by
group, the instantaneous flux across the midline, and the fundamental
diagram sample (density vs flow) per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..engine.base import SoloEngine, StepReport
from ..types import Group

__all__ = ["row_density_profile", "midline_flux", "FlowRecorder"]


def row_density_profile(engine: SoloEngine) -> Dict[Group, np.ndarray]:
    """Fraction of each row's cells occupied by each group."""
    mat = engine.env.mat
    width = engine.env.width
    return {
        g: (mat == int(g)).sum(axis=1).astype(np.float64) / width
        for g in (Group.TOP, Group.BOTTOM)
    }


def midline_flux(before_rows: np.ndarray, after_rows: np.ndarray, ids: np.ndarray, midline: int) -> int:
    """Signed agent count crossing ``midline`` in one step.

    TOP agents crossing downwards count +1, BOTTOM agents crossing upwards
    count +1 (both are "productive" flux); reverse crossings count -1.
    """
    before_side = before_rows >= midline
    after_side = after_rows >= midline
    moved_down = (~before_side) & after_side
    moved_up = before_side & (~after_side)
    top = ids == int(Group.TOP)
    bottom = ids == int(Group.BOTTOM)
    productive = int(np.count_nonzero(moved_down & top)) + int(
        np.count_nonzero(moved_up & bottom)
    )
    counter = int(np.count_nonzero(moved_up & top)) + int(
        np.count_nonzero(moved_down & bottom)
    )
    return productive - counter


@dataclass
class FlowRecorder:
    """Engine callback recording per-step movement rate and midline flux."""

    midline: int = -1
    move_rate: List[float] = None
    flux: List[int] = None
    _prev_rows: np.ndarray = None

    def __post_init__(self) -> None:
        self.move_rate = []
        self.flux = []

    def __call__(self, engine: SoloEngine, report: StepReport) -> None:
        """Record after each step."""
        pop = engine.pop
        if self.midline < 0:
            self.midline = engine.env.height // 2
        self.move_rate.append(report.moved / pop.n_agents)
        if self._prev_rows is not None:
            self.flux.append(
                midline_flux(self._prev_rows, pop.rows, pop.ids, self.midline)
            )
        self._prev_rows = pop.rows.copy()

    @property
    def mean_move_rate(self) -> float:
        """Average fraction of agents moving per step."""
        return float(np.mean(self.move_rate)) if self.move_rate else 0.0
