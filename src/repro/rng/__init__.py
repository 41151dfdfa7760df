"""Counter-based random number generation (the CURAND substitute).

Public surface:

* :class:`PhiloxKeyedRNG` — keyed, order-independent random streams,
* :class:`Stream` — the registry of stream purposes,
* :func:`philox4x32` — the raw Philox4x32 bijection,
* distribution transforms in :mod:`repro.rng.distributions`.
"""

from .batched import BatchedPhiloxRNG, RaggedLaneRNG
from .distributions import (
    box_muller,
    categorical,
    categorical_from_cumsum,
    clip_lem_draw,
)
from .philox import PHILOX_ROUNDS, PhiloxKeyedRNG, philox4x32, philox4x32_scalar
from .streams import Stream

__all__ = [
    "PhiloxKeyedRNG",
    "BatchedPhiloxRNG",
    "RaggedLaneRNG",
    "Stream",
    "philox4x32",
    "philox4x32_scalar",
    "PHILOX_ROUNDS",
    "box_muller",
    "categorical",
    "categorical_from_cumsum",
    "clip_lem_draw",
]
