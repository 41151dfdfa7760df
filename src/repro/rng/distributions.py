"""Distribution transforms built on raw uniform words.

These helpers are deliberately small and allocation-light; the simulation's
hot paths call them every step. All of them are pure functions of their
inputs so they behave identically in the scalar and vectorized engines.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "box_muller",
    "clip_lem_draw",
    "categorical_from_cumsum",
    "categorical",
]


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normal via the Box-Muller transform.

    Used for statistics and workload generation. The simulation's LEM
    selection uses :meth:`repro.rng.philox.PhiloxKeyedRNG.normal12` instead,
    because Box-Muller's ``log``/``cos`` are not guaranteed bit-identical
    between scalar and SIMD code paths.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def clip_lem_draw(z, mu: float, sigma: float, c_max, xp=np) -> np.ndarray:
    """The paper's LEM draw post-processing.

    ``x = mu + sigma * z`` with "negative numbers converted to zeroes and
    the numbers more than the highest C_i rounded off to the highest C_i".
    ``c_max`` may be a scalar or per-lane array. ``xp`` is the array
    namespace (host NumPy by default).
    """
    # x is freshly built by the operator arithmetic above, so the clip can
    # land in place — one less allocating dispatch on the LEM hot path.
    x = mu + sigma * xp.asarray(z, dtype=np.float64)
    return xp.clip(x, 0.0, c_max, out=x)


#: The smallest positive double (subnormal): ``cs >= _TINY`` iff ``cs > 0``.
_TINY = 5e-324

#: Multiplying a word of 0/1 bytes by this puts their sum in the top byte.
_BYTE_SUM = np.uint64(0x0101010101010101)


def categorical_from_cumsum(cumsum: np.ndarray, u: np.ndarray, xp=np) -> np.ndarray:
    """Sample indices from per-lane cumulative weights.

    Parameters
    ----------
    cumsum:
        ``(n, k)`` cumulative weights along axis 1 (strictly the output of
        a left-to-right ``cumsum`` of non-negative weights, so the FP
        evaluation order matches the scalar engine's accumulation loop).
    u:
        ``(n,)`` uniforms in (0, 1).

    Returns
    -------
    ``(n,)`` int64 chosen column indices. Lanes whose total weight is zero
    return -1 (no candidate).

    The chosen index is the first ``j`` with ``cumsum[:, j] >= u * total``
    *and* ``cumsum[:, j] > 0``, which for positive weights reproduces the
    usual inverse-CDF rule. The comparison is ``>=`` (not ``>``) so that a
    hit is guaranteed even when ``u * total`` rounds up to ``total``
    exactly. The ``> 0`` guard covers subnormal totals where ``u * total``
    underflows to exactly 0.0 — without it a leading zero-weight slot
    (cumsum 0.0) would win; with it the first positive-cumsum slot does,
    which is always a positive-weight slot because cumsum is
    non-decreasing.

    Both tests are one compare: ``cs >= max(u * total, 5e-324)``, since
    5e-324 is the smallest positive double. A non-decreasing row meets it
    on a suffix, so the first hit is the number of slots that miss it. On
    8-wide C-ordered rows each row's miss flags are one 8-byte word, and
    the count is the word's byte sum.
    """
    cumsum = xp.asarray(cumsum, dtype=np.float64)
    if cumsum.ndim != 2:
        raise ValueError(f"cumsum must be 2-D, got shape {cumsum.shape}")
    total = cumsum[:, -1]
    thresholds = xp.asarray(u, dtype=np.float64) * total
    xp.maximum(thresholds, _TINY, out=thresholds)
    miss = cumsum < thresholds[:, None]
    if miss.shape[1] == 8 and miss.flags.c_contiguous:
        idx = (miss.view(np.uint64).reshape(-1) * _BYTE_SUM) >> np.uint64(56)
        idx = idx.astype(np.int64)
    else:
        idx = xp.count_nonzero(miss, axis=1).astype(np.int64)
    idx[total <= 0.0] = -1
    return idx


def categorical(weights: np.ndarray, u: np.ndarray, xp=np) -> np.ndarray:
    """Sample indices from per-lane non-negative weights (rows of ``weights``)."""
    w = xp.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    return categorical_from_cumsum(xp.cumsum(w, axis=1), u, xp=xp)
