"""Link functions for generalized linear models.

Only what the paper's Fig 6b analysis needs: the binomial family with the
logit link (plus probit as a robustness alternative), each exposing the
inverse link, its derivative and the variance function used by IRLS.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Link", "LogitLink", "ProbitLink", "get_link"]

#: Clamp for fitted probabilities, keeps IRLS weights finite.
_EPS = 1e-10


class Link(abc.ABC):
    """A GLM link: eta = g(mu) with mu in (0, 1) for the binomial family."""

    name: str = "abstract"

    @abc.abstractmethod
    def inverse(self, eta: np.ndarray) -> np.ndarray:
        """mu = g^{-1}(eta)."""

    @abc.abstractmethod
    def inverse_deriv(self, eta: np.ndarray) -> np.ndarray:
        """d mu / d eta."""

    def clip(self, mu: np.ndarray) -> np.ndarray:
        """Keep probabilities strictly inside (0, 1)."""
        return np.clip(mu, _EPS, 1.0 - _EPS)


class LogitLink(Link):
    """The canonical binomial link: eta = log(mu / (1 - mu))."""

    name = "logit"

    def inverse(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=np.float64)
        # Numerically stable two-sided logistic.
        out = np.empty_like(eta)
        pos = eta >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        ex = np.exp(eta[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def inverse_deriv(self, eta: np.ndarray) -> np.ndarray:
        mu = self.inverse(eta)
        return mu * (1.0 - mu)


class ProbitLink(Link):
    """eta = Phi^{-1}(mu); robustness alternative for the Fig 6b test."""

    name = "probit"

    def inverse(self, eta: np.ndarray) -> np.ndarray:
        from scipy import stats as _sps

        return _sps.norm.cdf(np.asarray(eta, dtype=np.float64))

    def inverse_deriv(self, eta: np.ndarray) -> np.ndarray:
        from scipy import stats as _sps

        return _sps.norm.pdf(np.asarray(eta, dtype=np.float64))


def get_link(name: str) -> Link:
    """Link registry lookup ("logit" or "probit")."""
    links = {"logit": LogitLink, "probit": ProbitLink}
    try:
        return links[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown link {name!r}; expected one of {sorted(links)}") from None
