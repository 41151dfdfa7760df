"""The environment matrix ``mat`` and index matrix (paper Figures 2a/2b).

``mat`` holds the cell labels (0 empty, 1 top-group agent, 2 bottom-group
agent). The index matrix holds, for occupied cells, the 1-based row of the
property matrix belonging to the agent standing there; empty cells hold 0
(which addresses the sentinel 0th row of the property/scan matrices — the
paper's trick for letting threads on empty cells write somewhere harmless).
"""

from __future__ import annotations

import numpy as np

from ..backend import resolve_backend
from ..types import CellState, Group

__all__ = ["Environment"]


class Environment:
    """Mutable 2-D cell grid with the paper's ``mat`` / index-matrix pair.

    ``backend`` selects the array namespace the matrices live on (host
    NumPy by default). Placement builds environments on the host; engines
    move them to their device with :meth:`to_backend` before stepping.
    """

    def __init__(self, height: int, width: int, backend=None) -> None:
        if height < 1 or width < 1:
            raise ValueError(f"grid dims must be positive, got {height}x{width}")
        self.height = int(height)
        self.width = int(width)
        self.backend = resolve_backend(backend)
        xp = self.backend.xp
        #: Cell labels, int8: CellState values.
        self.mat = xp.zeros((self.height, self.width), dtype=np.int8)
        #: 1-based agent indices; 0 marks an empty cell.
        self.index = xp.zeros((self.height, self.width), dtype=np.int32)

    @classmethod
    def over(cls, mat, index, backend=None) -> "Environment":
        """An environment over existing matrices (shares their memory)."""
        env = cls.__new__(cls)
        env.height, env.width = (int(n) for n in mat.shape)
        env.backend = resolve_backend(backend)
        env.mat = mat
        env.index = index
        return env

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Grid shape ``(height, width)``."""
        return (self.height, self.width)

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.height * self.width

    def in_bounds(self, row: int, col: int) -> bool:
        """True when ``(row, col)`` lies inside the grid."""
        return 0 <= row < self.height and 0 <= col < self.width

    def is_empty(self, row: int, col: int) -> bool:
        """True when the in-bounds cell ``(row, col)`` is unoccupied."""
        return self.mat[row, col] == CellState.EMPTY

    def count(self, group: Group) -> int:
        """Number of agents of ``group`` currently on the grid."""
        return int(self.backend.xp.count_nonzero(self.mat == int(Group(group))))

    def occupied_cells(self) -> np.ndarray:
        """``(n, 2)`` array of (row, col) of occupied cells, row-major order."""
        xp = self.backend.xp
        rows, cols = xp.nonzero(self.mat)
        return xp.stack([rows, cols], axis=1)

    def cell_lane(self, row, col):
        """Row-major lane id of a cell — the RNG lane for per-cell draws."""
        xp = self.backend.xp
        return xp.asarray(row, dtype=np.uint64) * np.uint64(self.width) + xp.asarray(
            col, dtype=np.uint64
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def place(self, row: int, col: int, label: int, agent_index: int) -> None:
        """Place an agent on an empty cell."""
        if not self.in_bounds(row, col):
            raise ValueError(f"cell ({row}, {col}) out of bounds {self.shape}")
        if self.mat[row, col] != CellState.EMPTY:
            raise ValueError(f"cell ({row}, {col}) already occupied")
        if agent_index < 1:
            raise ValueError(f"agent_index must be >= 1, got {agent_index}")
        self.mat[row, col] = label
        self.index[row, col] = agent_index

    def move(self, src_row: int, src_col: int, dst_row: int, dst_col: int) -> None:
        """Move the agent at src into the empty cell dst (exchange contents)."""
        if self.mat[src_row, src_col] == CellState.EMPTY:
            raise ValueError(f"source cell ({src_row}, {src_col}) is empty")
        if self.mat[dst_row, dst_col] != CellState.EMPTY:
            raise ValueError(f"destination cell ({dst_row}, {dst_col}) occupied")
        self.mat[dst_row, dst_col] = self.mat[src_row, src_col]
        self.index[dst_row, dst_col] = self.index[src_row, src_col]
        self.mat[src_row, src_col] = CellState.EMPTY
        self.index[src_row, src_col] = 0

    # ------------------------------------------------------------------
    # Copies / comparison
    # ------------------------------------------------------------------
    def copy(self) -> "Environment":
        """Deep copy of the environment (same backend)."""
        env = Environment(self.height, self.width, backend=self.backend)
        env.mat[...] = self.mat
        env.index[...] = self.index
        return env

    def to_backend(self, backend) -> "Environment":
        """The same grid with its matrices on ``backend``.

        Returns ``self`` when the backend already matches (the zero-copy
        NumPy-to-NumPy path); otherwise a transferred copy.
        """
        backend = resolve_backend(backend)
        if backend is self.backend:
            return self
        env = Environment(self.height, self.width, backend=backend)
        env.mat = backend.from_host(self.backend.to_host(self.mat))
        env.index = backend.from_host(self.backend.to_host(self.index))
        return env

    def equals(self, other: "Environment") -> bool:
        """Exact equality of both matrices (the engine-equivalence check)."""
        xp = self.backend.xp
        return (
            self.shape == other.shape
            and bool(xp.array_equal(self.mat, other.mat))
            and bool(xp.array_equal(self.index, other.index))
        )

    def add_obstacles(self, mask: np.ndarray) -> None:
        """Mark cells as static obstacles (walls, pillars, barriers).

        Obstacle cells read as occupied to every kernel but carry no agent
        index; placing obstacles over agents is rejected.
        """
        xp = self.backend.xp
        mask = self.backend.from_host(np.asarray(mask, dtype=bool))
        if mask.shape != self.shape:
            raise ValueError(
                f"obstacle mask shape {mask.shape} != grid shape {self.shape}"
            )
        if bool(xp.any((self.mat != CellState.EMPTY) & mask)):
            raise ValueError("obstacle mask overlaps occupied cells")
        self.mat[mask] = CellState.OBSTACLE

    def obstacle_mask(self) -> np.ndarray:
        """Boolean mask of obstacle cells."""
        return self.mat == CellState.OBSTACLE

    def validate(self) -> None:
        """Check the mat/index consistency invariants; raise on violation.

        Every check is a whole-array test, and the duplicate check sorts
        the agent cells' indices and compares neighbours, so its memory is
        bounded by the agent count whatever the indices hold. Labels are
        compared as plain ints: NumPy compares an ``IntEnum`` operand
        about ten times slower.
        """
        xp = self.backend.xp
        mat, index = self.mat, self.index
        has_index = index != 0
        if bool(xp.any(has_index & (mat == int(CellState.EMPTY)))):
            raise AssertionError("index matrix non-zero on an empty cell")
        agents = (mat == int(CellState.TOP)) | (mat == int(CellState.BOTTOM))
        if bool(xp.any((index < 1) & agents)):
            raise AssertionError("agent cell without a valid agent index")
        if bool(xp.any(has_index & (mat == int(CellState.OBSTACLE)))):
            raise AssertionError("obstacle cell carries an agent index")
        idx = xp.sort(index[agents])
        if bool(xp.any(idx[1:] == idx[:-1])):
            raise AssertionError("duplicate agent index in the index matrix")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Environment({self.height}x{self.width}, "
            f"top={self.count(Group.TOP)}, bottom={self.count(Group.BOTTOM)})"
        )
