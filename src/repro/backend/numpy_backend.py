"""The host NumPy backend — the always-available CPU reference.

``xp`` *is* the ``numpy`` module and the transfer hooks are the
:class:`~repro.backend.core.ArrayBackend` defaults (``np.asarray``, so
zero-copy), so routing array math through this backend compiles down to
exactly the calls the seed engines made: the NumPy dispatch path is
bit-identical to pre-backend code by construction.
"""

from __future__ import annotations

import numpy as np

from .core import ArrayBackend, BackendCapabilities

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Whole-array execution on host NumPy."""

    xp = np
    capabilities = BackendCapabilities(name="numpy", device="cpu")
