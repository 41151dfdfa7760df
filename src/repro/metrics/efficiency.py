"""Movement efficiency metrics.

"Least effort" is the paper's organising idea; these metrics quantify it:
the detour factor compares each crossed agent's accumulated tour length
with the straight-line distance it had to cover, and the mean tour length
feeds the eq. 5 deposits' sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..engine.base import SoloEngine
from ..types import Group

__all__ = ["detour_factor", "EfficiencyReport", "efficiency_report"]


def _detour_from_host(
    crossed: np.ndarray,
    crossed_tour: np.ndarray,
    cfg,
    group_mask: Optional[np.ndarray] = None,
) -> float:
    """Detour factor from host copies of the crossing columns."""
    mask = crossed.copy()
    if group_mask is not None:
        mask &= group_mask
    mask[0] = False
    if not np.any(mask):
        return float("nan")
    min_distance = max(1.0, cfg.height - cfg.cross_rows - (cfg.band_rows - 1) / 2.0)
    return float(np.mean(crossed_tour[mask] / min_distance))


def detour_factor(engine: SoloEngine, group: Optional[Group] = None) -> float:
    """Mean ratio of tour length *at crossing* to the expected straight path.

    The tour length is captured when each agent first enters the opposite
    band (wall jiggling after arrival does not count as detour). The
    straight-path reference is the crossing distance of the band's mean
    starting row: ``height - cross_rows - (band_rows - 1) / 2``. A factor
    of ~1.0 means straight least-effort crossings. Returns ``nan`` when
    nothing crossed.
    """
    # Recording boundary: metrics are host-side, so bring the relevant
    # property-matrix columns back through the engine's backend first.
    to_host = engine.backend.to_host
    pop = engine.pop
    return _detour_from_host(
        to_host(pop.crossed),
        to_host(pop.crossed_tour),
        engine.config,
        to_host(pop.group_mask(group)) if group is not None else None,
    )


@dataclass(frozen=True)
class EfficiencyReport:
    """Aggregate efficiency figures for one finished run."""

    mean_tour_crossed: float
    mean_tour_all: float
    detour_factor: float
    crossed_fraction: float


def efficiency_report(engine: SoloEngine) -> EfficiencyReport:
    """Build an :class:`EfficiencyReport` from a finished engine.

    Reads the property matrix through the engine's backend (one host
    round-trip per column — the recording boundary), so device-resident
    engines report without relying on implicit array conversion.
    """
    to_host = engine.backend.to_host
    pop = engine.pop
    crossed_host = to_host(pop.crossed)
    crossed_tour_host = to_host(pop.crossed_tour)
    crossed = crossed_host.copy()
    crossed[0] = False
    tours = to_host(pop.tour)[1:]
    return EfficiencyReport(
        mean_tour_crossed=float(crossed_tour_host[crossed].mean())
        if crossed.any()
        else float("nan"),
        mean_tour_all=float(tours.mean()) if tours.size else float("nan"),
        detour_factor=_detour_from_host(
            crossed_host, crossed_tour_host, engine.config
        ),
        crossed_fraction=pop.crossed_count() / pop.n_agents,
    )
