"""The property matrix (paper Table "property matrix", Figure 2c).

The paper stores one row per agent with fields ID, INDEX NO, ROW, COLUMN,
EMPTY (unused), FUTURE ROW, FUTURE COLUMN and FRONT CELL, plus a sentinel
0th row written by the threads assigned to empty cells. We keep the same
layout as a structure-of-arrays (one NumPy vector per field) because that
is the cache/coalescing-friendly layout the data-driven kernels want, and
retain the sentinel row: every array has length ``n_agents + 1`` and agent
``i`` lives at index ``i`` (1-based, matching the index matrix).

FRONT CELL, FUTURE ROW and FUTURE COLUMN are not stored. The paper keeps
them in global memory only because its scan, tour-construction and
movement kernels are separate launches that can talk to each other no
other way. Here the scan hands each agent's forward-cell flag straight to
tour construction with the scan values, and tour construction hands each
decided move straight to the movement stage, so nothing outlives the step.
"""

from __future__ import annotations

import numpy as np

from ..backend import resolve_backend
from ..types import Group
from ..grid.environment import Environment

__all__ = ["Population"]


class Population:
    """Structure-of-arrays property matrix for all agents.

    Index 0 of every array is the paper's sentinel row; live agents are
    1..n. Fields mirror the paper's property matrix; ``tour`` is the tour
    length matrix and ``crossed``/``crossed_step`` support the throughput
    metric.
    """

    #: Names of the per-agent arrays, each of length ``n_agents + 1``.
    FIELDS = (
        "ids",
        "rows",
        "cols",
        "tour",
        "crossed",
        "crossed_step",
        "crossed_tour",
    )

    def __init__(self, n_agents: int, backend=None) -> None:
        if n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {n_agents}")
        self.n_agents = int(n_agents)
        self.backend = resolve_backend(backend)
        xp = self.backend.xp
        size = self.n_agents + 1
        #: Group label per agent (ID field); 0 in the sentinel row.
        self.ids = xp.zeros(size, dtype=np.int8)
        #: Current row / column (ROW, COLUMN fields).
        self.rows = xp.zeros(size, dtype=np.int64)
        self.cols = xp.zeros(size, dtype=np.int64)
        #: Tour length accumulated so far (tour matrix; eq. 5 denominator).
        self.tour = xp.zeros(size, dtype=np.float64)
        #: Crossing bookkeeping for the throughput metric.
        self.crossed = xp.zeros(size, dtype=bool)
        self.crossed_step = xp.full(size, -1, dtype=np.int64)
        #: Tour length at the moment of crossing (efficiency metrics).
        self.crossed_tour = xp.full(size, np.nan, dtype=np.float64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_environment(cls, env: Environment) -> "Population":
        """Build the property matrix from a freshly placed environment.

        Obstacle cells carry no agents and are skipped.
        """
        xp = env.backend.xp
        agent_cells = (env.mat == int(Group.TOP)) | (env.mat == int(Group.BOTTOM))
        occ_rows, occ_cols = xp.nonzero(agent_cells)
        indices = env.index[occ_rows, occ_cols]
        n = int(indices.max()) if indices.size else 0
        if n != indices.size:
            raise ValueError("index matrix is not a dense 1..n numbering")
        pop = cls(n, backend=env.backend)
        pop.ids[indices] = env.mat[occ_rows, occ_cols]
        pop.rows[indices] = occ_rows
        pop.cols[indices] = occ_cols
        return pop

    @classmethod
    def over(cls, fields, backend=None) -> "Population":
        """A property matrix over existing arrays (shares their memory).

        ``fields`` maps every name in :attr:`FIELDS` to an array of length
        ``n_agents + 1``.
        """
        pop = cls.__new__(cls)
        pop.n_agents = int(fields["ids"].shape[0]) - 1
        pop.backend = resolve_backend(backend)
        for name in cls.FIELDS:
            setattr(pop, name, fields[name])
        return pop

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def agent_indices(self) -> np.ndarray:
        """1-based indices of live agents (excludes the sentinel row)."""
        return self.backend.xp.arange(1, self.n_agents + 1, dtype=np.int64)

    def group_mask(self, group: Group) -> np.ndarray:
        """Boolean mask over 0..n marking agents of ``group``."""
        return self.ids == int(Group(group))

    def members(self, group: Group) -> np.ndarray:
        """1-based indices of agents belonging to ``group``."""
        return self.backend.xp.nonzero(self.group_mask(group))[0]

    def positions(self) -> np.ndarray:
        """``(n, 2)`` (row, col) of live agents, index order."""
        return self.backend.xp.stack([self.rows[1:], self.cols[1:]], axis=1)

    # ------------------------------------------------------------------
    # Step bookkeeping
    # ------------------------------------------------------------------
    def reset_futures(self) -> None:
        """No-op: no decided move is stored (see the module docstring).

        Nothing calls it; traced ``perfbench`` runs wrap it by name.
        """

    def record_crossings(self, height: int, cross_band: int, step: int) -> int:
        """Mark agents that have entered the opposite band; return new count.

        A TOP agent has crossed when ``row >= height - cross_band``; a
        BOTTOM agent when ``row < cross_band``. Crossing is latched (an
        agent that wanders back still counts, as in the paper's "able to
        cross over" definition).
        """
        top = self.ids == int(Group.TOP)
        bottom = self.ids == int(Group.BOTTOM)
        newly = (
            (top & (self.rows >= height - cross_band))
            | (bottom & (self.rows < cross_band))
        ) & ~self.crossed
        self.crossed |= newly
        self.crossed_step[newly] = step
        self.crossed_tour[newly] = self.tour[newly]
        return int(self.backend.xp.count_nonzero(newly))

    def crossed_count(self, group: Group = None) -> int:
        """Number of crossed agents, optionally restricted to one group."""
        xp = self.backend.xp
        if group is None:
            return int(xp.count_nonzero(self.crossed[1:]))
        return int(xp.count_nonzero(self.crossed & self.group_mask(group)))

    # ------------------------------------------------------------------
    # Copies / comparison
    # ------------------------------------------------------------------
    def copy(self) -> "Population":
        """Deep copy of all fields (same backend)."""
        pop = Population(self.n_agents, backend=self.backend)
        for name in self.FIELDS:
            getattr(pop, name)[...] = getattr(self, name)
        return pop

    def equals(self, other: "Population") -> bool:
        """Exact equality of every field (engine-equivalence check).

        ``crossed_tour`` holds NaN for agents that have not crossed, so it
        compares with ``equal_nan``.
        """
        if self.n_agents != other.n_agents:
            return False
        xp = self.backend.xp
        exact = all(
            bool(xp.array_equal(getattr(self, name), getattr(other, name)))
            for name in self.FIELDS[:-1]
        )
        # equal_nan semantics spelled out so the comparison works on array
        # namespaces whose array_equal lacks the keyword.
        a, b = self.crossed_tour, other.crossed_tour
        return exact and bool(xp.all((a == b) | (xp.isnan(a) & xp.isnan(b))))

    def validate_against(self, env: Environment) -> None:
        """Check position/index consistency with the environment; raise on drift."""
        xp = self.backend.xp
        idx = self.agent_indices
        rows = self.rows[idx]
        cols = self.cols[idx]
        if bool(xp.any(env.index[rows, cols] != idx)):
            raise AssertionError("property matrix positions disagree with index matrix")
        if bool(xp.any(env.mat[rows, cols] != self.ids[idx])):
            raise AssertionError("property matrix ids disagree with mat")
        if int(xp.count_nonzero(env.index)) != self.n_agents:
            raise AssertionError("index matrix has wrong number of agents")
