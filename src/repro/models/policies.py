"""Baseline movement policies.

These are not in the paper's evaluation but serve as ablation anchors:

* :class:`RandomModel` — uniform choice among empty neighbours; the
  zero-intelligence floor any directed model must beat;
* :class:`GreedyModel` — always the nearest empty cell; the LEM with its
  randomness removed (sigma -> 0 limit), exposing how much the paper's
  probabilistic selection matters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..components.models import register_model
from ..rng import PhiloxKeyedRNG, Stream
from .base import MovementModel, _EXCLUDED_KEY
from .lem import _slot_major_distances
from .params import GreedyParams, RandomParams

__all__ = ["RandomModel", "GreedyModel"]


@register_model("random")
class RandomModel(MovementModel):
    """Uniform random choice among the empty neighbour cells."""

    name = "random"
    uses_pheromone = False

    def __init__(self, params: RandomParams, backend=None) -> None:
        super().__init__(params, backend)

    def scan_values(
        self,
        dist: np.ndarray,
        candidates: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Indicator weights: 1 for each empty neighbour."""
        return candidates.astype(np.float64)

    def select(
        self,
        scan: np.ndarray,
        rng: PhiloxKeyedRNG,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Uniform pick among the candidates; a lone candidate draws nothing."""
        return self.proportional_slots(scan, rng, Stream.RANDOM_POLICY, step, lanes)

    # Scalar path -------------------------------------------------------
    def scalar_prepare(self, rng: PhiloxKeyedRNG, step: int, n_agents: int) -> dict:
        lanes = np.arange(n_agents + 1, dtype=np.uint64)
        return {"u": rng.uniform(Stream.RANDOM_POLICY, step, lanes).tolist()}

    def scan_value_scalar(self, dist: float, tau: float) -> float:
        return 1.0

    def select_scalar(self, scan_row, agent: int, variates: dict) -> int:
        total = 0.0
        for s in range(8):
            total = total + scan_row[s]
        if total <= 0.0:
            return -1
        threshold = variates["u"][agent] * total
        acc = 0.0
        for s in range(8):
            acc = acc + scan_row[s]
            # acc > 0 mirrors the vectorized cumsum guard: when the
            # threshold underflows to 0.0, skip leading zero-weight slots.
            if acc >= threshold and acc > 0.0:
                return s
        return 7  # unreachable: final acc equals total >= threshold


@register_model("greedy")
class GreedyModel(MovementModel):
    """Deterministic nearest-cell choice (LEM with the randomness removed)."""

    name = "greedy"
    uses_pheromone = False

    def __init__(self, params: GreedyParams, backend=None) -> None:
        super().__init__(params, backend)

    def scan_values(
        self,
        dist: np.ndarray,
        candidates: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Same scan content as the LEM: candidate distances."""
        return self.xp.where(candidates, dist, 0.0)

    def select(
        self,
        scan: np.ndarray,
        rng: PhiloxKeyedRNG,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """The nearest candidates, tie-broken; -1 for a row with none.

        Slot-major (:func:`~repro.models.lem._slot_major_distances`),
        like :meth:`LEMModel.select`. The best eq. 1 score
        ``D_min / D_i == 1.0`` holds exactly when ``D_i == D_min``
        (IEEE division rounds a quotient below 1 to at most
        ``1 - 2**-53``), so the nearest slots are compared directly.
        """
        d = _slot_major_distances(scan, self.xp)
        best = (d == self.xp.fmin.reduce(d, axis=0)).T.copy()
        return self.tiebreak_slots(best, rng, step, lanes)

    # Scalar path -------------------------------------------------------
    def scalar_prepare(self, rng: PhiloxKeyedRNG, step: int, n_agents: int) -> dict:
        lanes = np.arange(n_agents + 1, dtype=np.uint64)
        bits = rng.words(Stream.TIEBREAK, step, lanes)[0] & np.uint32(1)
        return {"tie": bits.astype(np.int64).tolist()}

    def scan_value_scalar(self, dist: float, tau: float) -> float:
        return dist

    def select_scalar(self, scan_row, agent: int, variates: dict) -> int:
        dmin = float("inf")
        for s in range(8):
            v = scan_row[s]
            if 0.0 < v < dmin:
                dmin = v
        if dmin == float("inf"):
            return -1
        b = variates["tie"][agent]
        best = -1
        best_key = _EXCLUDED_KEY
        for s in range(8):
            if scan_row[s] == dmin:
                key = (s + 1) ^ b
                if key < best_key:
                    best = s
                    best_key = key
        return best
