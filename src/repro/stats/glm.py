"""Binomial generalized linear model fitted by IRLS.

The paper validates the GPU against the CPU (Fig 6b) by fitting "a binomial
generalized linear model, where the probability that an agent crosses over
to the other side is modeled with respect to the different number of agents
and an indicator for the simulation run being run on either the CPU or
GPU", then testing the platform indicator (t-test, p = 0.6145). This module
implements that model from scratch: iteratively reweighted least squares
with the logit link, Wald/t inference on coefficients, deviance and a
summary table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import StatsError
from .links import Link, LogitLink, get_link

__all__ = ["GLMResult", "BinomialGLM", "add_intercept"]


def add_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend a column of ones to a design matrix.

    A 1-D input is treated as a single predictor column.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise StatsError(f"design must be 1-D or 2-D, got shape {x.shape}")
    return np.column_stack([np.ones(x.shape[0]), x])


@dataclass
class GLMResult:
    """Fitted binomial GLM.

    ``pvalues`` use the t distribution with the residual degrees of freedom
    (the paper reports a t-test on the platform coefficient); ``pvalues_z``
    give the asymptotic normal (Wald) version.
    """

    coef: np.ndarray
    stderr: np.ndarray
    tvalues: np.ndarray
    pvalues: np.ndarray
    pvalues_z: np.ndarray
    df_resid: int
    deviance: float
    null_deviance: float
    iterations: int
    converged: bool
    #: Estimated dispersion (1.0 for the plain binomial family; the Pearson
    #: X^2/df estimate under the quasi-binomial option).
    dispersion: float = 1.0
    names: List[str] = field(default_factory=list)

    def coef_table(self) -> str:
        """Human-readable coefficient table."""
        lines = [
            f"{'term':>12s} {'coef':>12s} {'stderr':>10s} {'t':>8s} {'p':>8s}"
        ]
        for i, name in enumerate(self.names):
            lines.append(
                f"{name:>12s} {self.coef[i]:>12.5g} {self.stderr[i]:>10.3g} "
                f"{self.tvalues[i]:>8.3f} {self.pvalues[i]:>8.4f}"
            )
        return "\n".join(lines)

    def test_coefficient(self, index_or_name) -> tuple:
        """``(t, p)`` for a single coefficient (the Fig 6b platform test)."""
        if isinstance(index_or_name, str):
            index = self.names.index(index_or_name)
        else:
            index = int(index_or_name)
        return float(self.tvalues[index]), float(self.pvalues[index])


class BinomialGLM:
    """Binomial GLM with counts/trials responses, fitted by IRLS.

    ``dispersion`` selects the variance model: ``"fixed"`` is the plain
    binomial family (dispersion 1); ``"pearson"`` is the quasi-binomial,
    scaling the coefficient covariance by the Pearson X^2/df estimate.
    Crowd-crossing counts are strongly over-dispersed relative to
    independent Bernoulli trials (jams are collective events), so the
    Fig 6b analysis uses the quasi-binomial.
    """

    def __init__(
        self,
        link: Optional[Link] = None,
        max_iter: int = 100,
        tol: float = 1e-10,
        dispersion: str = "fixed",
    ) -> None:
        self.link = link if link is not None else LogitLink()
        if isinstance(self.link, str):  # convenience
            self.link = get_link(self.link)
        if dispersion not in ("fixed", "pearson"):
            raise StatsError(
                f"dispersion must be 'fixed' or 'pearson', got {dispersion!r}"
            )
        self.dispersion = dispersion
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def fit(
        self,
        design: np.ndarray,
        successes: np.ndarray,
        trials: np.ndarray,
        names: Optional[Sequence[str]] = None,
    ) -> GLMResult:
        """Fit successes/trials against the design matrix (with intercept).

        Parameters
        ----------
        design:
            ``(n, p)`` design matrix — include the intercept column
            yourself or via :func:`add_intercept`.
        successes, trials:
            Per-observation counts; ``0 <= successes <= trials``.
        names:
            Optional coefficient names for the summary.
        """
        x = np.atleast_2d(np.asarray(design, dtype=np.float64))
        y = np.asarray(successes, dtype=np.float64)
        m = np.asarray(trials, dtype=np.float64)
        n, p = x.shape
        if y.shape != (n,) or m.shape != (n,):
            raise StatsError(
                f"shape mismatch: design {x.shape}, successes {y.shape}, trials {m.shape}"
            )
        if np.any(m <= 0):
            raise StatsError("all trial counts must be positive")
        if np.any((y < 0) | (y > m)):
            raise StatsError("successes must satisfy 0 <= successes <= trials")
        if n <= p:
            raise StatsError(f"need more observations ({n}) than parameters ({p})")

        prop = y / m
        # Standard IRLS initialisation: start from the adjusted proportions.
        mu = self.link.clip((y + 0.5) / (m + 1.0))
        eta = self._link_forward(mu)
        beta = np.zeros(p)
        converged = False
        it = 0
        for it in range(1, self.max_iter + 1):
            mu = self.link.clip(self.link.inverse(eta))
            dmu = self.link.inverse_deriv(eta)
            dmu = np.where(np.abs(dmu) < 1e-12, 1e-12, dmu)
            var = mu * (1.0 - mu) / m
            w = dmu * dmu / var
            z = eta + (prop - mu) / dmu
            wx = x * w[:, None]
            xtwx = x.T @ wx
            xtwz = wx.T @ z
            try:
                new_beta = np.linalg.solve(xtwx, xtwz)
            except np.linalg.LinAlgError as exc:
                raise StatsError(f"IRLS normal equations singular: {exc}") from exc
            delta = np.max(np.abs(new_beta - beta))
            beta = new_beta
            eta = x @ beta
            if delta < self.tol * (1.0 + np.max(np.abs(beta))):
                converged = True
                break

        mu = self.link.clip(self.link.inverse(eta))
        dmu = self.link.inverse_deriv(eta)
        dmu = np.where(np.abs(dmu) < 1e-12, 1e-12, dmu)
        var = mu * (1.0 - mu) / m
        w = dmu * dmu / var
        cov = np.linalg.inv(x.T @ (x * w[:, None]))
        df = n - p
        phi = 1.0
        if self.dispersion == "pearson":
            pearson = np.sum((prop - mu) ** 2 / var)
            phi = max(1.0, float(pearson / df))
            cov = cov * phi
        stderr = np.sqrt(np.diag(cov))
        tvals = beta / stderr
        from scipy import stats as _sps

        pvals_t = 2.0 * _sps.t.sf(np.abs(tvals), df)
        pvals_z = 2.0 * _sps.norm.sf(np.abs(tvals))
        deviance = self._deviance(y, m, mu)
        null_mu = np.full(n, y.sum() / m.sum())
        null_dev = self._deviance(y, m, self.link.clip(null_mu))
        coef_names = (
            list(names) if names is not None else [f"x{i}" for i in range(p)]
        )
        if len(coef_names) != p:
            raise StatsError(f"got {len(coef_names)} names for {p} coefficients")
        return GLMResult(
            coef=beta,
            stderr=stderr,
            tvalues=tvals,
            pvalues=pvals_t,
            pvalues_z=pvals_z,
            df_resid=df,
            deviance=float(deviance),
            null_deviance=float(null_dev),
            iterations=it,
            converged=converged,
            dispersion=phi,
            names=coef_names,
        )

    def _link_forward(self, mu: np.ndarray) -> np.ndarray:
        """g(mu) via bisection-free closed forms for the known links."""
        if isinstance(self.link, LogitLink):
            return np.log(mu / (1.0 - mu))
        from scipy import stats as _sps

        return _sps.norm.ppf(mu)

    @staticmethod
    def _deviance(y: np.ndarray, m: np.ndarray, mu: np.ndarray) -> float:
        """Binomial deviance with the usual 0*log(0) = 0 convention."""
        with np.errstate(divide="ignore", invalid="ignore"):
            term1 = np.where(y > 0, y * np.log(y / (m * mu)), 0.0)
            fail = m - y
            term2 = np.where(
                fail > 0, fail * np.log(fail / (m * (1.0 - mu))), 0.0
            )
        return float(2.0 * np.sum(term1 + term2))
