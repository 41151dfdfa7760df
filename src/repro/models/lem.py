"""Least Effort Model (paper eq. 1 and Section III).

For an agent whose forward cell is blocked, every empty neighbour ``i``
receives the score

    C_i = (1 - n_i) * (D_min / D_i)

with ``n_i = 1`` for occupied cells (so their score is 0) and ``D_min`` the
smallest distance among the empty neighbours — which normalises the best
empty cell to C = 1 exactly. The scores are ranked ascending; a draw
``x ~ N(mu, sigma)`` is clipped to ``[0, max C_i]`` ("negative numbers
converted to zeroes, numbers more than the highest C_i rounded off to the
highest C_i") and indexes the ranking:

* ``rule="floor"`` (default): the cell with the largest ``C_i <= x``; when
  every score exceeds the draw — always the case when the draw clips to
  zero — the agent stays put. A blocked pedestrian mostly *waits*, which is
  the least-effort behaviour and the source of the medium-density jamming
  in the paper's Figure 6a.
* ``rule="ceil"``: the cell with the smallest ``C_i >= x``; the agent
  always moves when an empty neighbour exists (ablation variant).

Draws at the top of the range select the cell nearest the target under
both rules.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..components.models import register_model
from ..rng import PhiloxKeyedRNG, Stream, clip_lem_draw
from .base import MovementModel, _EXCLUDED_KEY
from .params import LEMParams

__all__ = ["LEMModel", "lem_scores"]


def lem_scores(dist: np.ndarray, candidates: np.ndarray, xp=np) -> np.ndarray:
    """Eq. 1 scores ``C_i`` for a batch: ``(n, 8) -> (n, 8)``.

    Non-candidate slots score 0; rows with no candidate are all-zero.
    The best candidate of each row scores exactly 1.0 (D_min / D_min).
    :meth:`LEMModel.select` computes the same quotients slot-major.
    """
    d = xp.where(candidates, dist, np.inf)
    dmin = d.min(axis=1)
    has_candidate = xp.isfinite(dmin)
    safe_dmin = xp.where(has_candidate, dmin, 1.0)
    scores = xp.where(candidates, safe_dmin[:, None] / d, 0.0)
    return scores


def _slot_major_distances(scan: np.ndarray, xp=np) -> np.ndarray:
    """The scan's candidate distances slot-major, ``(n, 8) -> (8, n)``.

    Non-candidate slots (``scan <= 0``) are NaN: ``fmin``/``fmax``
    reductions skip them and every comparison is false on them. The
    result is C-ordered, so a per-row reduction runs along axis 0, a
    few whole-array operations over ``n`` values, where a reduction
    along the 8-wide rows of ``(n, 8)`` loops row by row.
    """
    d = scan.T.copy()
    return xp.where(d > 0.0, d, np.nan)


@register_model("lem")
class LEMModel(MovementModel):
    """Least Effort Model decision kernel."""

    name = "lem"
    uses_pheromone = False

    def __init__(self, params: LEMParams, backend=None) -> None:
        super().__init__(params, backend)
        self.mu = float(params.mu)
        self.sigma = float(params.sigma)
        self.rule = params.rule

    def scan_values(
        self,
        dist: np.ndarray,
        candidates: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The LEM scan matrix stores the candidate distances (paper IV.b)."""
        return self.xp.where(candidates, dist, 0.0)

    def select(
        self,
        scan: np.ndarray,
        rng: PhiloxKeyedRNG,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Clipped-normal rank selection over the scanned distances.

        Eq. 1 runs slot-major (:func:`_slot_major_distances`): D_min and
        the selected score are reductions along axis 0, and the NaN
        scores of non-candidate slots are never eligible.
        """
        xp = self.xp
        d = _slot_major_distances(scan, xp)
        dmin = xp.fmin.reduce(d, axis=0)
        has_candidate = dmin < np.inf
        scores = xp.where(has_candidate, dmin, 1.0) / d

        # The best candidate scores D_min / D_min == 1.0, so the highest
        # C_i is the has-candidate flag.
        z = rng.normal12(Stream.LEM_SELECT, step, lanes)
        x = clip_lem_draw(
            z, self.mu, self.sigma, has_candidate.astype(np.float64), xp=xp
        )

        if self.rule == "floor":
            # Largest score not exceeding the draw; stay when none qualify.
            contended = xp.where(scores <= x, scores, np.nan)
            c_sel = xp.fmax.reduce(contended, axis=0)
        else:
            # Smallest score at or above the draw; the best cell (score
            # exactly c_max) always qualifies because x <= c_max.
            contended = xp.where(scores >= x, scores, np.nan)
            c_sel = xp.fmin.reduce(contended, axis=0)

        # Among cells tied at the selected score, order by the per-agent
        # randomised slot key to avoid a left/right bias. A row with no
        # eligible cell has a NaN c_sel, ties no slot and gets -1.
        tied = (contended == c_sel).T.copy()
        return self.tiebreak_slots(tied, rng, step, lanes)

    # ------------------------------------------------------------------
    # Scalar path (sequential engine)
    # ------------------------------------------------------------------
    def scalar_prepare(self, rng: PhiloxKeyedRNG, step: int, n_agents: int) -> dict:
        lanes = np.arange(n_agents + 1, dtype=np.uint64)
        z = rng.normal12(Stream.LEM_SELECT, step, lanes)
        bits = rng.words(Stream.TIEBREAK, step, lanes)[0] & np.uint32(1)
        return {"z": z.tolist(), "tie": bits.astype(np.int64).tolist()}

    def scan_value_scalar(self, dist: float, tau: float) -> float:
        return dist

    def select_scalar(self, scan_row, agent: int, variates: dict) -> int:
        # Candidate distances are positive; find D_min.
        dmin = float("inf")
        for s in range(8):
            v = scan_row[s]
            if 0.0 < v < dmin:
                dmin = v
        if dmin == float("inf"):
            return -1
        # Clipped draw; c_max is exactly 1.0 (D_min / D_min).
        x = self.mu + self.sigma * variates["z"][agent]
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        b = variates["tie"][agent]
        best = -1
        best_key = _EXCLUDED_KEY
        if self.rule == "floor":
            c_sel = -float("inf")
            for s in range(8):
                v = scan_row[s]
                if v <= 0.0:
                    continue
                c = dmin / v
                if c > x:
                    continue
                if c > c_sel:
                    c_sel = c
                    best = s
                    best_key = (s + 1) ^ b
                elif c == c_sel:
                    key = (s + 1) ^ b
                    if key < best_key:
                        best = s
                        best_key = key
        else:
            c_sel = float("inf")
            for s in range(8):
                v = scan_row[s]
                if v <= 0.0:
                    continue
                c = dmin / v
                if c < x:
                    continue
                if c < c_sel:
                    c_sel = c
                    best = s
                    best_key = (s + 1) ^ b
                elif c == c_sel:
                    key = (s + 1) ^ b
                    if key < best_key:
                        best = s
                        best_key = key
        return best
