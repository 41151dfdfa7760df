"""Hypothesis tests used by the experiment analyses.

Implemented from first principles on top of scipy's distribution functions:
Welch's two-sample t-test (the Fig 6b cross-check), the paired t-test, and
the Wald chi-square test for GLM coefficient subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import StatsError

__all__ = ["TTestResult", "welch_ttest", "paired_ttest", "wald_test"]


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a t-type test."""

    statistic: float
    pvalue: float
    df: float

    @property
    def significant(self) -> bool:
        """True at the conventional 5% level."""
        return self.pvalue < 0.05


def welch_ttest(a, b) -> TTestResult:
    """Welch's unequal-variance two-sample t-test (two-sided)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise StatsError("welch_ttest needs at least two observations per sample")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    denom = np.sqrt(va + vb)
    if denom == 0:
        # Identical constant samples: no evidence of difference.
        return TTestResult(statistic=0.0, pvalue=1.0, df=float(a.size + b.size - 2))
    t = (a.mean() - b.mean()) / denom
    df = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    from scipy import stats as _sps

    p = 2.0 * _sps.t.sf(abs(t), df)
    return TTestResult(statistic=float(t), pvalue=float(p), df=float(df))


def paired_ttest(a, b) -> TTestResult:
    """Paired two-sided t-test on matched observations."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise StatsError(f"paired samples must match in shape: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise StatsError("paired_ttest needs at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0:
        return TTestResult(statistic=0.0, pvalue=1.0, df=float(d.size - 1))
    t = d.mean() / (sd / np.sqrt(d.size))
    df = d.size - 1
    from scipy import stats as _sps

    p = 2.0 * _sps.t.sf(abs(t), df)
    return TTestResult(statistic=float(t), pvalue=float(p), df=float(df))


def wald_test(coef: np.ndarray, cov: np.ndarray, indices) -> TTestResult:
    """Wald chi-square test that a subset of coefficients is zero.

    Returns the chi-square statistic in ``statistic`` with ``df`` equal to
    the subset size.
    """
    coef = np.asarray(coef, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise StatsError("wald_test needs at least one coefficient index")
    sub = coef[idx]
    sub_cov = cov[np.ix_(idx, idx)]
    try:
        stat = float(sub @ np.linalg.solve(sub_cov, sub))
    except np.linalg.LinAlgError as exc:
        raise StatsError(f"singular covariance in wald_test: {exc}") from exc
    from scipy import stats as _sps

    p = float(_sps.chi2.sf(stat, idx.size))
    return TTestResult(statistic=stat, pvalue=p, df=float(idx.size))
