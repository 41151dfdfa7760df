"""Space-time records: row-occupancy profiles over the course of a run.

A space-time diagram (rows x steps occupancy matrix) is the classic way to
*see* jam fronts form and travel; combined with the ASCII heatmap renderer
it gives a terminal-friendly version of the crowd videos GPU papers demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..engine.base import SoloEngine, StepReport
from ..types import Group

__all__ = ["SpaceTimeRecorder", "render_spacetime"]

_SHADES = " .:-=+*#%@"


@dataclass
class SpaceTimeRecorder:
    """Engine callback sampling per-row occupancy every ``every`` steps."""

    every: int = 1
    group: Optional[Group] = None
    profiles: List[np.ndarray] = field(default_factory=list)
    sample_steps: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")

    def __call__(self, engine: SoloEngine, report: StepReport) -> None:
        """Sample after qualifying steps."""
        if report.step % self.every:
            return
        # Recording boundary: sample a host copy of the grid so profiles
        # accumulate as NumPy arrays regardless of the engine's backend.
        mat = engine.backend.to_host(engine.env.mat)
        if self.group is None:
            occupied = (mat == int(Group.TOP)) | (mat == int(Group.BOTTOM))
        else:
            occupied = mat == int(self.group)
        self.profiles.append(occupied.sum(axis=1) / mat.shape[1])
        self.sample_steps.append(report.step)

    @property
    def matrix(self) -> np.ndarray:
        """``(samples, rows)`` occupancy-fraction matrix."""
        if not self.profiles:
            return np.zeros((0, 0))
        return np.stack(self.profiles)

    def jam_front_rows(self, threshold: float = 0.6) -> np.ndarray:
        """Per-sample row index of the densest congested row (-1 if none)."""
        m = self.matrix
        if m.size == 0:
            return np.zeros(0, dtype=np.int64)
        peaks = m.argmax(axis=1)
        dense = m.max(axis=1) >= threshold
        return np.where(dense, peaks, -1)


def render_spacetime(recorder: SpaceTimeRecorder, max_cols: int = 72) -> str:
    """ASCII heatmap: rows of the grid on the y axis, time on the x axis."""
    m = recorder.matrix
    if m.size == 0:
        return "(no samples)"
    # Columns = samples (possibly thinned), rows = grid rows.
    samples = m.shape[0]
    stride = max(1, samples // max_cols)
    thinned = m[::stride].T  # (rows, samples')
    peak = max(1e-9, float(thinned.max()))
    lines = []
    for r in range(thinned.shape[0]):
        chars = [
            _SHADES[min(len(_SHADES) - 1, int(v / peak * (len(_SHADES) - 1)))]
            for v in thinned[r]
        ]
        lines.append("".join(chars))
    header = f"space-time occupancy (peak row fill {peak:.0%}; time -> )"
    return header + "\n" + "\n".join(lines)
