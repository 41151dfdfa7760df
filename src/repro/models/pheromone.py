"""Pheromone fields for the modified ACO (paper eq. 3-5).

The paper keeps *two* pheromone matrices, one per group, each the size of
``mat`` — an agent reads and reinforces only its own group's field, which is
what lets same-direction flows organise into lanes. Evaporation (eq. 3) is
applied uniformly every step; deposition (eq. 5) adds ``q / L_k`` on the
cell an agent moves into, where ``L_k`` is that agent's tour length so far.

Both matrices live in one ``(2, H, W)`` device stack (slot 0 = TOP,
slot 1 = BOTTOM) so evaporation is a single array launch over both
groups, and the whole-array engines gather
and deposit for a mixed-group agent batch through flat indices into the
stack in one op each. A batched engine keeps every lane's pair in one
``(2, B, H, W)`` stack. ``field(group)`` hands out live views into the
stack, so per-group access is unchanged and free.

With ``halo=1`` the field is stored with a one-cell ring around every
grid, ``(2, [B,] H + 2, W + 2)`` in :attr:`PheromoneField.padded`, so a
whole-array scan reads all eight neighbours of any interior cell by flat
index with no bounds test. ``stack`` is then the interior view; every
reader outside the whole-array stages sees the unpadded field.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from ..backend import resolve_backend
from ..types import Group
from .params import ACOParams

__all__ = ["PheromoneField", "evaporate_field", "deposit_at", "group_slot"]


def group_slot(group: Group) -> int:
    """Stack slot of ``group``: TOP -> 0, BOTTOM -> 1.

    The single source of the group-axis ordering shared by
    :class:`PheromoneField`, the batched pheromone stack and every fused
    engine's ``gslot`` vectors.
    """
    return 0 if Group(group) is Group.TOP else 1


def evaporate_field(field: np.ndarray, keep, tau_min, xp=np) -> None:
    """Eq. 3 in place: ``tau <- max(keep * tau, tau_min)``, ``keep = 1 - rho``.

    Element-wise, so it applies unchanged to a single ``(H, W)`` field, the
    ``(2, H, W)`` group stack, or a batched ``(2, B, H, W)`` stack, whose
    lanes may pass their own ``keep`` and ``tau_min`` as ``(B, 1, 1)``
    arrays — the single source of the decay-then-clamp semantics shared
    by :class:`PheromoneField` and the batched engine.
    """
    field *= keep
    xp.maximum(field, tau_min, out=field)


def deposit_at(field: np.ndarray, index, amounts, tau_max, backend=None) -> None:
    """Eq. 5 in place: scatter-add ``amounts`` at ``index``, clamp at ``tau_max``.

    ``index`` is any fancy index into ``field`` (``(rows, cols)`` for a
    solo field, flat cells for a stack); ``tau_max`` is one clamp or one
    per entry of ``index``. The scatter routes through
    :meth:`~repro.backend.ArrayBackend.scatter_add` (``np.add.at`` on
    NumPy), the counted unbuffered add. Only the touched cells are clamped
    after it, as the sequential engine clamps each deposit's cell: ``min(x,
    tau_max)`` is idempotent, so clamp-after-all equals clamp-after-each
    bit for bit, duplicates included. A cell no deposit touches keeps its
    value even above ``tau_max``, which happens only after a model swap
    lowers ``tau_max`` (evaporation only lowers a cell, and
    ``ACOParams.validate`` keeps ``tau0 <= tau_max``).
    """
    backend = resolve_backend(backend)
    backend.scatter_add(field, index, amounts)
    field[index] = backend.xp.minimum(field[index], tau_max)


class PheromoneField:
    """Two per-group pheromone matrices in one ``(2, H, W)`` stack.

    ``n_lanes`` adds a lane axis: the stack becomes ``(2, n_lanes, H, W)``,
    one field pair per replication lane of a batched engine. ``halo``
    rings every grid with that many cells in :attr:`padded`; ``stack`` is
    always the unpadded interior. Halo cells are never deposited on and
    never read as candidates, so they only evaporate, to ``tau_min`` (not
    0 like the ``index`` halo). The whole contiguous ``padded`` array
    evaporates on purpose: the strided interior view alone took 0.97 ms
    against 0.44 ms at 480×480 with both groups.
    """

    def __init__(
        self,
        height: int,
        width: int,
        params: ACOParams,
        backend=None,
        n_lanes: Optional[int] = None,
        halo: int = 0,
    ) -> None:
        self.height = int(height)
        self.width = int(width)
        self.params = params
        self.backend = resolve_backend(backend)
        self.halo = int(halo)
        xp = self.backend.xp
        lanes = () if n_lanes is None else (int(n_lanes),)
        #: ``(2, [B,] H + 2 * halo, W + 2 * halo)`` device array; slot
        #: order per :func:`group_slot`.
        self.padded: np.ndarray = xp.full(
            (2, *lanes, height + 2 * self.halo, width + 2 * self.halo),
            params.tau0,
            dtype=np.float64,
        )
        self._bind_interior()

    def _bind_interior(self) -> None:
        h = self.halo
        #: ``(2, [B,] H, W)`` interior view of :attr:`padded`.
        self.stack: np.ndarray = (
            self.padded[..., h:-h, h:-h] if h else self.padded
        )

    def lane(self, lane: int) -> "PheromoneField":
        """One lane of a batched field as a ``(2, H, W)`` field (live view)."""
        view = copy.copy(self)
        view.padded = self.padded[:, lane]
        view._bind_interior()
        return view

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def field(self, group: Group) -> np.ndarray:
        """The ``(H, W)`` pheromone matrix of ``group`` (live stack view)."""
        return self.stack[group_slot(group)]

    def value(self, group: Group, row: int, col: int) -> float:
        """Scalar lookup used by the sequential engine."""
        return float(self.stack[group_slot(group), row, col])

    # ------------------------------------------------------------------
    # Updates (eq. 3 / eq. 5)
    # ------------------------------------------------------------------
    def evaporate(self) -> None:
        """Apply ``tau <- (1 - rho) * tau`` to both fields in one launch."""
        evaporate_field(
            self.padded, 1.0 - self.params.rho, self.params.tau_min,
            xp=self.backend.xp,
        )

    def deposit(self, group: Group, rows, cols, amounts) -> None:
        """Add ``amounts`` on cells ``(rows, cols)`` of ``group``'s field.

        Destination cells of a movement stage are unique by construction
        (one winner per cell) but the unbuffered scatter-add keeps this
        correct for any caller that passes duplicates.
        """
        xp = self.backend.xp
        deposit_at(
            self.field(group),
            (xp.asarray(rows), xp.asarray(cols)),
            amounts,
            self.params.tau_max,
            backend=self.backend,
        )

    def deposit_stacked(self, cells, amounts) -> None:
        """Mixed-group deposit: one scatter into the full stack.

        ``cells`` are flat indices into the C-ordered :attr:`padded`
        array, so the group slot (and the lane, on a batched stack) is
        part of each index; the whole-array move stage deposits for both
        groups in one call.
        """
        deposit_at(
            self.padded.reshape(-1), cells, amounts, self.params.tau_max,
            backend=self.backend,
        )

    def deposit_scalar(self, group: Group, row: int, col: int, amount: float) -> None:
        """Single-cell deposit used by the sequential engine."""
        field = self.field(group)
        field[row, col] = min(field[row, col] + amount, self.params.tau_max)

    # ------------------------------------------------------------------
    # Copies / comparison
    # ------------------------------------------------------------------
    def copy(self) -> "PheromoneField":
        """Deep copy of both fields."""
        other = copy.copy(self)
        other.padded = self.padded.copy()
        other._bind_interior()
        return other

    def equals(self, other: "PheromoneField") -> bool:
        """Exact equality of both fields."""
        xp = self.backend.xp
        return bool(xp.array_equal(self.stack, other.stack))

    def totals(self) -> Dict[Group, float]:
        """Total pheromone mass per group (diagnostics/tests)."""
        # Summed as a contiguous copy, so a padded field's interior view
        # reduces in the same order (and to the same bits) as a plain one.
        xp = self.backend.xp
        return {
            g: float(xp.ascontiguousarray(self.field(g)).sum())
            for g in (Group.TOP, Group.BOTTOM)
        }
