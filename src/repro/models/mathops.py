"""Deterministic numeric helpers for the decision kernels.

The engine-equivalence invariant (sequential == vectorized, bit for bit)
requires every floating-point operation on the decision path to produce
identical results in scalar and SIMD execution. IEEE-754 guarantees that for
+, -, *, /, sqrt and comparisons — but *not* for ``pow`` and other libm
functions, whose vectorized implementations may differ by ULPs from the
scalar ones. ``fast_pow`` therefore evaluates integer exponents (the common
case: the paper's α and β) by binary exponentiation using only
multiplications, falling back to ``np.power`` for genuinely fractional
exponents (documented as a potential — never observed — equivalence risk).

For a fractional β that risk is gone: ``(1/D)^β`` is evaluated once, by
:func:`fast_pow`, into the static slot table every engine reads
(:func:`repro.models.aco.heuristic_table`), so the scalar and vector
``np.power`` never both enter eq. 2. A fractional α still goes through
:func:`fast_pow_scalar` on the sequential engine and :func:`fast_pow` on
the whole-array engines, because ``τ`` changes every step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fast_pow", "fast_pow_scalar", "MAX_INT_EXPONENT"]

#: Largest |exponent| handled by the exact integer path.
MAX_INT_EXPONENT = 64


def fast_pow(base: np.ndarray, exponent: float, xp=np) -> np.ndarray:
    """``base ** exponent`` with a bit-deterministic integer-exponent path.

    For integer ``exponent`` with ``|exponent| <= MAX_INT_EXPONENT`` the
    result is computed by binary exponentiation (multiplications only, fixed
    association order) — which also makes it exactly portable across array
    backends, unlike libm ``pow``. Other exponents use ``xp.power``.

    >>> float(fast_pow(np.float64(3.0), 2.0))
    9.0
    """
    base = xp.asarray(base, dtype=np.float64)
    p = float(exponent)
    if p == 0.0:
        return xp.ones_like(base)
    if p.is_integer() and abs(p) <= MAX_INT_EXPONENT:
        n = int(abs(p))
        result = None
        square = base
        while n:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if n:
                square = square * square
        if p < 0:
            return 1.0 / result
        return result
    return xp.power(base, p)


def fast_pow_scalar(base: float, exponent: float) -> float:
    """Scalar transcription of :func:`fast_pow` for the sequential engine.

    Python ``float`` arithmetic is IEEE-754 double precision, so replaying
    the *same sequence* of multiplications yields bit-identical results to
    the vectorized path — the property the engine-equivalence tests rely on.
    """
    p = float(exponent)
    if p == 0.0:
        return 1.0
    if p.is_integer() and abs(p) <= MAX_INT_EXPONENT:
        n = int(abs(p))
        result = None
        square = float(base)
        while n:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if n:
                square = square * square
        if p < 0:
            return 1.0 / result
        return result
    return float(np.power(np.float64(base), np.float64(p)))
