"""Halo-load warp mapping (paper Figure 3).

Loading the 68 halo elements of an 18x18 shared tile naively (each border
thread fetching its own out-of-tile neighbours) produces heavy thread
divergence. The paper instead dedicates the block's *first warp* (the 32
threads of the first two 16-thread rows) to the halo: through index
mapping, thread ``t`` of the warp loads halo elements ``t``, ``t + 32`` and
``t + 64`` — three coalesced-ish passes with no divergent branching inside
a pass (a single uniform bounds check per pass).

This module reproduces that mapping so the cost model can count its
transactions; the tests verify that the 68 halo cells are covered
exactly once and that only the final pass has inactive lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["halo_perimeter", "HaloAssignment", "halo_warp_schedule", "halo_pass_count"]


def halo_perimeter(tile_size: int = 16) -> List[Tuple[int, int]]:
    """The halo cell coordinates of a ``(tile+2)^2`` shared array.

    Enumerated in the paper's load order: top row left-to-right, bottom row
    left-to-right, then the left and right columns top-to-bottom (corners
    belong to the rows). For ``tile_size = 16`` this yields
    ``2*18 + 2*16 = 68`` cells.
    """
    n = tile_size + 2
    cells: List[Tuple[int, int]] = []
    cells.extend((0, c) for c in range(n))  # top row, 18 cells
    cells.extend((n - 1, c) for c in range(n))  # bottom row, 18 cells
    cells.extend((r, 0) for r in range(1, n - 1))  # left column, 16 cells
    cells.extend((r, n - 1) for r in range(1, n - 1))  # right column, 16 cells
    return cells


@dataclass(frozen=True)
class HaloAssignment:
    """One halo element load: which warp lane fetches which shared cell."""

    pass_index: int
    lane: int
    shared_pos: Tuple[int, int]


def halo_warp_schedule(tile_size: int = 16, warp_size: int = 32) -> List[HaloAssignment]:
    """The warp's halo-load schedule: lane ``t`` covers ``t + 32k``."""
    perimeter = halo_perimeter(tile_size)
    schedule = []
    for h, pos in enumerate(perimeter):
        schedule.append(
            HaloAssignment(pass_index=h // warp_size, lane=h % warp_size, shared_pos=pos)
        )
    return schedule


def halo_pass_count(tile_size: int = 16, warp_size: int = 32) -> int:
    """Number of warp passes to load the full halo (3 for 16-cell tiles)."""
    return -(-len(halo_perimeter(tile_size)) // warp_size)
