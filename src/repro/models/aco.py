"""Modified Ant Colony Optimization / Ant System (paper eq. 2-5).

Tour construction uses the random proportional rule restricted to the empty
neighbour cells:

    P_ij = tau_ij^alpha * eta_ij^beta / sum_l tau_il^alpha * eta_il^beta

with the TSP distance heuristic replaced by the distance of the neighbour
cell from the target end row: ``eta = 1 / D_i``. The scan matrix stores the
numerator per slot; the tour-construction kernel performs the row reduction
(the denominator) and samples the slot. Pheromone evaporation/deposition
live in :class:`repro.models.pheromone.PheromoneField` and are driven by the
engines' movement stage.

``eta^beta`` depends only on the agent's row and the slot, so it is a
static table like the distance matrix itself (:func:`heuristic_table`):
the engines build it once per parameter bundle through
:meth:`ACOModel.slot_table`, and the scan multiplies it by ``tau^alpha``
with no division or power on the agent rows. Every engine reads the same
table, so a fractional ``beta`` goes through one ``np.power`` evaluation
on every engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..components.models import register_model
from ..rng import PhiloxKeyedRNG, Stream
from .base import MovementModel
from .mathops import fast_pow, fast_pow_scalar
from .params import ACOParams

__all__ = ["ACOModel", "aco_numerators", "heuristic_table"]


def heuristic_table(dist: np.ndarray, beta: float, xp=np) -> np.ndarray:
    """Per-slot heuristic ``(1/D)^beta`` of distance rows, same shape.

    Out-of-grid slots carry ``D = inf`` and get ``0`` (for ``beta > 0``);
    they are never candidates either way.
    """
    with np.errstate(divide="ignore"):
        eta = 1.0 / xp.asarray(dist, dtype=np.float64)
    return fast_pow(eta, beta, xp=xp)


def _numerators(eta_beta, candidates, tau, alpha: float, xp) -> np.ndarray:
    """``eta_beta * tau^alpha``, zeroed at non-candidate slots, written
    into ``eta_beta`` (a float64 array the caller gives up).

    The mask is a multiply: exact because every factor is finite
    (``ACOParams.validate`` bounds the largest numerator), so a
    candidate keeps its value and every other slot becomes ``+0.0``.
    """
    eta_beta *= fast_pow(xp.asarray(tau, dtype=np.float64), alpha, xp=xp)
    eta_beta *= candidates
    return eta_beta


def aco_numerators(
    dist: np.ndarray,
    candidates: np.ndarray,
    tau: np.ndarray,
    alpha: float,
    beta: float,
    xp=np,
) -> np.ndarray:
    """Eq. 2 numerators ``tau^alpha * (1/D)^beta`` for a batch: ``(n, 8)``.

    Non-candidate slots are exactly 0. Out-of-bounds slots carry
    ``D = inf`` so their heuristic vanishes even before masking. The
    engines compute the same values from the static
    :func:`heuristic_table` rows instead of ``dist``.
    """
    return _numerators(heuristic_table(dist, beta, xp=xp), candidates, tau, alpha, xp)


@register_model("aco")
class ACOModel(MovementModel):
    """Modified Ant System decision kernel for pedestrian movement."""

    name = "aco"
    uses_pheromone = True

    def __init__(self, params: ACOParams, backend=None) -> None:
        super().__init__(params, backend)
        self.alpha = float(params.alpha)
        self.beta = float(params.beta)

    def slot_table(self, dist: np.ndarray) -> np.ndarray:
        """The static eq. 2 heuristic ``(1/D)^beta`` of this bundle's beta."""
        return heuristic_table(dist, self.beta, xp=self.xp)

    def scan_values(
        self,
        dist: np.ndarray,
        candidates: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The eq. 2 numerator per slot, written into ``dist``.

        ``dist`` holds :meth:`slot_table` rows, a fresh gather the caller
        gives up (see :meth:`MovementModel.scan_values`), so eq. 2 costs
        no ``(n, 8)`` allocation.
        """
        if tau is None:
            raise ValueError("ACO scan requires the pheromone gather (tau)")
        return _numerators(dist, candidates, tau, self.alpha, self.xp)

    def select(
        self,
        scan: np.ndarray,
        rng: PhiloxKeyedRNG,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Random-proportional-rule sampling over the scanned numerators.

        The cumulative sum along the slot axis is the kernel's reduction
        (the eq. 2 denominator is its last element); the keyed uniform picks
        the slot by inverse CDF. Only rows with two or more positive
        numerators draw (:meth:`~MovementModel.proportional_slots`).
        """
        return self.proportional_slots(scan, rng, Stream.ACO_SELECT, step, lanes)

    # ------------------------------------------------------------------
    # Scalar path (sequential engine)
    # ------------------------------------------------------------------
    def scalar_prepare(self, rng: PhiloxKeyedRNG, step: int, n_agents: int) -> dict:
        lanes = np.arange(n_agents + 1, dtype=np.uint64)
        return {"u": rng.uniform(Stream.ACO_SELECT, step, lanes).tolist()}

    def scan_value_scalar(self, dist: float, tau: float) -> float:
        # ``dist`` is this slot's slot_table entry, eta^beta.
        return fast_pow_scalar(tau, self.alpha) * dist

    def select_scalar(self, scan_row, agent: int, variates: dict) -> int:
        # Same left-to-right accumulation as np.cumsum along the slot axis.
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
        return 7  # unreachable: the final acc equals total >= threshold
