"""Distance tables — the paper's constant-memory distance matrix.

For an agent of group g in row i, the distance of neighbour slot s to the
target (the end row of the opposite side) is

    D(i, s) = sqrt(rowdist(i + dr_s)**2 + dc_s**2)

where ``rowdist(r)`` is the vertical distance from row r to the group's
target row, and (dr_s, dc_s) is the slot offset. Because the target is a
whole row, D depends only on the agent's row and the slot — the paper
pre-computes exactly this table once and stores it in constant memory.

For a TOP agent at vertical distance d from its target this yields

    D1 = d-1            (forward)
    D2 = D3 = sqrt((d-1)^2 + 1)   (forward diagonals)
    D4 = D5 = sqrt(d^2 + 1)       (laterals)
    D6 = d+1            (backward)
    D7 = D8 = sqrt((d+1)^2 + 1)   (backward diagonals)

which reproduces the paper's ranking: slot 1 is always nearest, then 2/3,
then 4/5, then 6, then 7/8. Slots whose row falls outside the grid get
``inf`` (never candidates). A forward cell sitting exactly on the target
row has D = 0; eq. 1 requires D != 0, so distances are floored at
``MIN_DISTANCE`` which makes a target-row cell maximally attractive.

The engines' scans read the term each model derives from this table,
built once per parameter bundle
(:meth:`repro.models.MovementModel.slot_table`): the distances
themselves for the LEM, greedy and random models, and the eq. 2
heuristic ``(1/D)^beta`` for the ACO. So the static per-(row, slot)
table holds what the paper keeps in constant memory — the model's
per-slot term — and no power or division of it runs per step.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..backend import resolve_backend
from ..types import Group, N_NEIGHBOR_SLOTS
from .neighborhood import slot_offsets

__all__ = ["MIN_DISTANCE", "DistanceTable", "build_distance_tables"]

#: Floor applied to distances so eq. 1 / eq. 2 stay defined on the target row.
MIN_DISTANCE = 1e-6


class DistanceTable:
    """Per-(row, slot) distance-to-target lookup for one group.

    Attributes
    ----------
    table:
        ``(height, 8)`` float64; ``table[i, s-1]`` is the distance of slot
        ``s`` from the target when the agent stands in row ``i``. ``inf``
        marks slots whose row is outside the grid.

    ``scan_range`` implements the paper's Section VII extension
    ("increasing the scanning range... to make decisions would be more
    practical"): the heuristic evaluates the cell ``scan_range`` steps
    along the slot direction (clamped at the grid edge) while the movement
    range stays 1 — agents look farther than they step. The default of 1
    reproduces the paper's evaluated model exactly.
    """

    def __init__(
        self, height: int, group: Group, scan_range: int = 1, backend=None
    ) -> None:
        if height < 2:
            raise ValueError(f"height must be >= 2, got {height}")
        if scan_range < 1:
            raise ValueError(f"scan_range must be >= 1, got {scan_range}")
        self.height = int(height)
        self.group = Group(group)
        self.scan_range = int(scan_range)
        self.backend = resolve_backend(backend)
        self.target_row = self.group.target_row(self.height)
        # Built on the host (pure setup), then moved to the backend device —
        # the constant-memory upload.
        table = self._build()
        if not self.backend.capabilities.is_gpu:
            # Read-only: this is the constant-memory analogue.
            table.setflags(write=False)
        self.table = self.backend.from_host(table)

    def _build(self) -> np.ndarray:
        rows = np.arange(self.height, dtype=np.int64)
        table = np.empty((self.height, N_NEIGHBOR_SLOTS), dtype=np.float64)
        r = self.scan_range
        for s, (dr, dc) in enumerate(slot_offsets(self.group)):
            nrow = rows + dr  # the movement cell decides availability
            inside = (nrow >= 0) & (nrow < self.height)
            look_row = np.clip(rows + r * dr, 0, self.height - 1)
            rowdist = np.abs(self.target_row - look_row).astype(np.float64)
            d = np.sqrt(rowdist * rowdist + float((r * dc) * (r * dc)))
            d = np.maximum(d, MIN_DISTANCE)
            table[:, s] = np.where(inside, d, np.inf)
        return table

    def distances(self, rows) -> np.ndarray:
        """Distances for agents in ``rows``: shape ``(n, 8)``."""
        return self.table[self.backend.xp.asarray(rows, dtype=np.int64)]

    def distance(self, row: int, slot: int) -> float:
        """Distance of 1-based ``slot`` for an agent in ``row``."""
        if not (1 <= slot <= N_NEIGHBOR_SLOTS):
            raise ValueError(f"slot must be in 1..{N_NEIGHBOR_SLOTS}, got {slot}")
        return float(self.table[row, slot - 1])

    def vertical_distance(self, row: int) -> int:
        """Vertical cell distance from ``row`` to the target row."""
        return abs(self.target_row - int(row))


def build_distance_tables(
    height: int, scan_range: int = 1, backend=None
) -> Dict[Group, DistanceTable]:
    """Distance tables for both groups on a grid of ``height`` rows."""
    return {
        g: DistanceTable(height, g, scan_range, backend=backend)
        for g in (Group.TOP, Group.BOTTOM)
    }
