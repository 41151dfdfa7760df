"""Grid rendering for terminals.

Visual inspection of the environment matrix: top agents render as ``v``
(moving down), bottom agents as ``^`` (moving up), empty cells as ``.``.
Large grids can be downsampled into a density view.
"""

from __future__ import annotations

import numpy as np

from ..engine.base import SoloEngine
from ..types import Group

__all__ = ["render_grid", "render_density", "render_engine"]

_GLYPHS = {0: ".", int(Group.TOP): "v", int(Group.BOTTOM): "^", 3: "#"}
_SHADES = " .:-=+*#%@"


def render_grid(mat: np.ndarray, max_cols: int = 160) -> str:
    """Render ``mat`` cell-per-character (clipped to ``max_cols`` columns)."""
    mat = np.asarray(mat)
    cols = min(mat.shape[1], max_cols)
    rows = []
    for r in range(mat.shape[0]):
        rows.append("".join(_GLYPHS.get(int(v), "?") for v in mat[r, :cols]))
    return "\n".join(rows)


def render_density(mat: np.ndarray, out_rows: int = 24, out_cols: int = 72) -> str:
    """Downsampled dominant-group density view for large grids.

    Each output character covers a block of cells; the glyph brightness
    encodes occupancy and the sign encodes the dominant group (``v`` rows
    vs ``^`` rows are summarised as lowercase/uppercase shading is not
    distinguishable, so we show net direction: 'v', '^' or mixed 'x' for
    blocks above half the peak occupancy, shades below).
    """
    mat = np.asarray(mat)
    h, w = mat.shape
    out_rows = min(out_rows, h)
    out_cols = min(out_cols, w)
    r_edges = np.linspace(0, h, out_rows + 1, dtype=np.int64)
    c_edges = np.linspace(0, w, out_cols + 1, dtype=np.int64)
    lines = []
    for i in range(out_rows):
        row = []
        for j in range(out_cols):
            block = mat[r_edges[i] : r_edges[i + 1], c_edges[j] : c_edges[j + 1]]
            n_top = int(np.count_nonzero(block == int(Group.TOP)))
            n_bot = int(np.count_nonzero(block == int(Group.BOTTOM)))
            occ = (n_top + n_bot) / block.size
            if occ >= 0.5:
                if n_top > 2 * n_bot:
                    row.append("v")
                elif n_bot > 2 * n_top:
                    row.append("^")
                else:
                    row.append("x")
            else:
                row.append(_SHADES[min(len(_SHADES) - 1, int(occ * 2 * len(_SHADES)))])
        lines.append("".join(row))
    return "\n".join(lines)


def render_engine(engine: SoloEngine, max_cells: int = 4000) -> str:
    """Render an engine's environment, choosing full or density view.

    Rendering is a host-side recording boundary: the grid is brought back
    through the engine's backend first, so an engine whose arrays live on
    a device renders without an implicit-conversion error.
    """
    mat = engine.backend.to_host(engine.env.mat)
    if mat.size <= max_cells:
        return render_grid(mat)
    return render_density(mat)
