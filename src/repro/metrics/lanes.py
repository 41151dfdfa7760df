"""Lane formation metrics.

Bi-directional crowds self-organise into direction-segregated lanes
(Helbing's "self-organizing pedestrian movement", the paper's [24], is the
phenomenon its pheromone trails emulate). The standard order parameter
measures column-wise segregation of the two groups: 0 for perfectly mixed
columns, 1 for columns occupied by a single direction.
"""

from __future__ import annotations

import numpy as np

from ..engine.base import SoloEngine
from ..types import Group

__all__ = ["lane_order_parameter", "column_occupancies", "band_segregation"]


def column_occupancies(mat: np.ndarray) -> tuple:
    """Per-column agent counts ``(n_top, n_bottom)``."""
    n_top = (mat == int(Group.TOP)).sum(axis=0).astype(np.float64)
    n_bottom = (mat == int(Group.BOTTOM)).sum(axis=0).astype(np.float64)
    return n_top, n_bottom


def lane_order_parameter(mat: np.ndarray) -> float:
    """Column-segregation order parameter in [0, 1].

    ``phi = <((n1 - n2) / (n1 + n2))^2>`` over occupied columns — the
    classic bi-directional lane index (Blue & Adler's measure family; the
    paper's [4], [5]). Empty columns are excluded; returns 0.0 when no
    column is occupied.
    """
    n_top, n_bottom = column_occupancies(np.asarray(mat))
    total = n_top + n_bottom
    occupied = total > 0
    if not np.any(occupied):
        return 0.0
    ratio = (n_top[occupied] - n_bottom[occupied]) / total[occupied]
    return float(np.mean(ratio * ratio))


def band_segregation(engine: SoloEngine, n_bands: int = 8) -> np.ndarray:
    """Lane order parameter evaluated per horizontal band of rows.

    Splits the grid into ``n_bands`` stacked bands and computes the lane
    index inside each, localising where lanes form (typically the central
    conflict region).
    """
    mat = engine.env.mat
    height = mat.shape[0]
    if n_bands < 1 or n_bands > height:
        raise ValueError(f"n_bands must be in [1, {height}], got {n_bands}")
    edges = np.linspace(0, height, n_bands + 1, dtype=np.int64)
    return np.array(
        [
            lane_order_parameter(mat[edges[i] : edges[i + 1]])
            for i in range(n_bands)
        ]
    )
