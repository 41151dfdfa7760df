"""Tile decomposition with halo regions (paper Section IV.b, Figure 3).

The per-cell kernels load each 16x16 tile of ``mat``/the index matrix into
an 18x18 shared-memory array: the 16x16 *internal* elements plus one ring of
*halo* elements from the neighbouring tiles, so that every internal thread
can inspect its full Moore neighbourhood without touching global memory
again. This module provides the index arithmetic; the halo-load warp
mapping lives in :mod:`repro.cuda.halo`, and the cost model prices the
per-cell kernels over these tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import LaunchConfigError

__all__ = ["Tile", "TileDecomposition", "DEFAULT_TILE", "OUT_OF_GRID"]

#: The paper's tile edge (16 cells; 256 threads per block).
DEFAULT_TILE = 16

#: Sentinel stored in halo cells that fall outside the grid: any non-zero
#: value reads as "unavailable", mirroring the global engine's bounds check.
OUT_OF_GRID = -1


@dataclass(frozen=True)
class Tile:
    """One tile of the decomposition.

    ``row0``/``col0`` index the tile's top-left *internal* cell in the
    global grid; the halo extends one cell beyond each edge (clipped at the
    grid border).
    """

    block_row: int
    block_col: int
    row0: int
    col0: int
    tile_size: int
    grid_height: int
    grid_width: int

    @property
    def interior(self) -> Tuple[slice, slice]:
        """Global-array slices of the 16x16 internal region."""
        return (
            slice(self.row0, self.row0 + self.tile_size),
            slice(self.col0, self.col0 + self.tile_size),
        )

    @property
    def halo_bounds(self) -> Tuple[int, int, int, int]:
        """Unclipped halo bounds ``(row_lo, row_hi, col_lo, col_hi)``.

        The bounds describe the 18x18 shared array footprint; rows/cols
        outside ``[0, grid)`` do not exist in global memory and are filled
        with the out-of-bounds sentinel by the loader.
        """
        return (
            self.row0 - 1,
            self.row0 + self.tile_size + 1,
            self.col0 - 1,
            self.col0 + self.tile_size + 1,
        )

    def load_shared(self, arr: np.ndarray, fill) -> np.ndarray:
        """Materialise the (tile+2)x(tile+2) shared array with halos.

        Out-of-grid halo cells get ``fill`` (an "occupied" sentinel for the
        grid matrices, so border agents see the outside world as
        unavailable, exactly like the whole-array engine's halo).

        ``arr`` may carry leading axes (``(..., H, W)``): the tile cut
        applies to the trailing two, so one call loads e.g. the fused
        ``(2, H, W)`` pheromone stack as a single shared image per tile.
        """
        ts = self.tile_size
        shared = np.full(arr.shape[:-2] + (ts + 2, ts + 2), fill, dtype=arr.dtype)
        r_lo, r_hi, c_lo, c_hi = self.halo_bounds
        gr_lo, gr_hi = max(r_lo, 0), min(r_hi, self.grid_height)
        gc_lo, gc_hi = max(c_lo, 0), min(c_hi, self.grid_width)
        if gr_lo < gr_hi and gc_lo < gc_hi:
            shared[
                ..., gr_lo - r_lo : gr_hi - r_lo, gc_lo - c_lo : gc_hi - c_lo
            ] = arr[..., gr_lo:gr_hi, gc_lo:gc_hi]
        return shared


class TileDecomposition:
    """The full set of tiles covering a grid (multiple-of-tile-size edges)."""

    def __init__(self, height: int, width: int, tile_size: int = DEFAULT_TILE) -> None:
        if tile_size < 2:
            raise LaunchConfigError(f"tile_size must be >= 2, got {tile_size}")
        if height % tile_size or width % tile_size:
            raise LaunchConfigError(
                f"grid {height}x{width} is not a multiple of the "
                f"{tile_size}-cell tile (paper Section IV.a)"
            )
        self.height = height
        self.width = width
        self.tile_size = tile_size
        self.blocks_y = height // tile_size
        self.blocks_x = width // tile_size

    @property
    def n_tiles(self) -> int:
        """Total number of tiles (= thread blocks of a per-cell kernel)."""
        return self.blocks_y * self.blocks_x

    def tile(self, block_row: int, block_col: int) -> Tile:
        """The tile at block coordinates ``(block_row, block_col)``."""
        if not (0 <= block_row < self.blocks_y and 0 <= block_col < self.blocks_x):
            raise IndexError(
                f"block ({block_row}, {block_col}) outside "
                f"{self.blocks_y}x{self.blocks_x} decomposition"
            )
        return Tile(
            block_row=block_row,
            block_col=block_col,
            row0=block_row * self.tile_size,
            col0=block_col * self.tile_size,
            tile_size=self.tile_size,
            grid_height=self.height,
            grid_width=self.width,
        )

    def __iter__(self) -> Iterator[Tile]:
        for br in range(self.blocks_y):
            for bc in range(self.blocks_x):
                yield self.tile(br, bc)
