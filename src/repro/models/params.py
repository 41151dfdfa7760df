"""Parameter bundles for the movement models.

Kept dependency-free so that :mod:`repro.config` can import them without
pulling in the model implementations (which need the grid substrate).

The built-in bundles register into
:data:`repro.components.models.MODEL_PARAMS` under their ``model_name``;
:data:`MODEL_NAMES` is a live alias of that registry's backing dict, so
third-party bundles registered via
:func:`repro.components.register_model_params` appear everywhere the
legacy table is consulted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..components.models import MODEL_PARAMS, register_model_params
from ..errors import ConfigurationError
from ..grid.distance import MIN_DISTANCE
from ..types import N_NEIGHBOR_SLOTS

__all__ = [
    "ModelParams",
    "LEMParams",
    "ACOParams",
    "RandomParams",
    "GreedyParams",
    "params_from_name",
    "params_from_dict",
    "params_to_dict",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class ModelParams:
    """Base class for model parameter bundles.

    Subclasses set :attr:`model_name`, the registry key used by engines and
    the CLI to look up the model implementation.
    """

    model_name = "base"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on invalid values."""

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        new = dataclasses.replace(self, **changes)
        new.validate()
        return new


@register_model_params
@dataclass(frozen=True)
class LEMParams(ModelParams):
    """Least Effort Model parameters (paper eq. 1 plus the selection draw).

    The paper selects a cell using "a random number from a normal
    distribution with negative numbers converted to zeroes and the numbers
    more than the highest C_i rounded off to the highest C_i". ``mu`` and
    ``sigma`` parameterise that normal; the unqualified "normal
    distribution" reads as the standard normal, so the defaults are
    ``mu = 0`` and ``sigma = 1``.

    ``rule`` resolves the remaining ambiguity of how the clipped draw ``x``
    indexes the ascending-ranked scores:

    * ``"floor"`` (default) — take the cell with the *largest* ``C_i <= x``;
      if every score exceeds ``x`` (in particular whenever the draw clips
      to zero) the agent stays put. Waiting when blocked is the
      least-effort behaviour, and it is what makes medium-density LEM
      crowds jam the way the paper's Figure 6a shows.
    * ``"ceil"`` — take the cell with the *smallest* ``C_i >= x``; the
      agent always moves when an empty neighbour exists. Kept as an
      ablation (see ``benchmarks/test_bench_ablations.py``).

    Under both rules, draws at or above the top score select the cell
    nearest the target, so "the agent probabilistically chooses the cell
    nearest the target most of the time" among the cells it does choose.
    """

    model_name = "lem"

    #: Mean of the selection normal (paper: standard normal).
    mu: float = 0.0
    #: Standard deviation of the selection normal.
    sigma: float = 1.0
    #: Rank-selection rule: "floor" (may stay put) or "ceil" (always moves).
    rule: str = "floor"
    #: Heuristic look-ahead in cells (Section VII extension; 1 = paper model).
    scan_range: int = 1

    def validate(self) -> None:
        if not math.isfinite(self.mu):
            raise ConfigurationError(f"LEM mu must be finite, got {self.mu}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ConfigurationError(
                f"LEM sigma must be positive and finite, got {self.sigma}"
            )
        if self.rule not in ("floor", "ceil"):
            raise ConfigurationError(
                f"LEM rule must be 'floor' or 'ceil', got {self.rule!r}"
            )
        if not (1 <= int(self.scan_range) <= 32):
            raise ConfigurationError(
                f"LEM scan_range must be in [1, 32], got {self.scan_range}"
            )


@register_model_params
@dataclass(frozen=True)
class ACOParams(ModelParams):
    """Modified Ant System parameters (paper eq. 2-5).

    ``alpha`` and ``beta`` weight the pheromone trail versus the distance
    heuristic in the random proportional rule; ``rho`` is the evaporation
    rate of eq. 3; ``deposit_q`` scales the ``Δτ = q / L_k`` deposit of
    eq. 5 (the paper uses q = 1). ``tau0`` seeds the pheromone matrices and
    ``tau_min``/``tau_max`` clamp the field for numerical hygiene (standard
    MMAS-style guard; the paper relies on evaporation alone).
    """

    model_name = "aco"

    #: Relative weight of the pheromone trail (paper α).
    alpha: float = 1.0
    #: Relative weight of the distance heuristic (paper β).
    beta: float = 2.0
    #: Pheromone evaporation rate ρ of eq. 3, in (0, 1].
    rho: float = 0.02
    #: Deposit scale q of eq. 5 (Δτ = q / L_k).
    deposit_q: float = 1.0
    #: Initial pheromone on every cell.
    tau0: float = 0.1
    #: Lower clamp of the pheromone field (keeps eq. 2 well defined).
    tau_min: float = 1e-4
    #: Upper clamp of the pheromone field.
    tau_max: float = 1e3
    #: Heuristic look-ahead in cells (Section VII extension; 1 = paper model).
    scan_range: int = 1

    def validate(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ConfigurationError(f"ACO alpha must be >= 0, got {self.alpha}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ConfigurationError(f"ACO beta must be >= 0, got {self.beta}")
        if not (0.0 < self.rho <= 1.0):
            raise ConfigurationError(f"ACO rho must be in (0, 1], got {self.rho}")
        if not (self.deposit_q > 0 and math.isfinite(self.deposit_q)):
            raise ConfigurationError(
                f"ACO deposit_q must be positive, got {self.deposit_q}"
            )
        if not (self.tau0 > 0 and math.isfinite(self.tau0)):
            raise ConfigurationError(f"ACO tau0 must be positive, got {self.tau0}")
        if not (0 < self.tau_min <= self.tau0 <= self.tau_max):
            raise ConfigurationError(
                "ACO pheromone clamps must satisfy 0 < tau_min <= tau0 <= tau_max, "
                f"got tau_min={self.tau_min}, tau0={self.tau0}, tau_max={self.tau_max}"
            )
        if not (1 <= int(self.scan_range) <= 32):
            raise ConfigurationError(
                f"ACO scan_range must be in [1, 32], got {self.scan_range}"
            )
        # No numerator exceeds tau_max^alpha * (1/MIN_DISTANCE)^beta. The
        # engines mask numerators by multiplying with the candidate flags,
        # exact only while every numerator (and a row's sum) is finite.
        try:
            peak = self.tau_max**self.alpha * (1.0 / MIN_DISTANCE) ** self.beta
        except OverflowError:
            peak = math.inf
        if not math.isfinite(N_NEIGHBOR_SLOTS * peak):
            raise ConfigurationError(
                "ACO eq. 2 numerators overflow float64: "
                f"tau_max^alpha * (1/MIN_DISTANCE)^beta with tau_max={self.tau_max}, "
                f"alpha={self.alpha}, beta={self.beta} exceeds "
                f"1/{N_NEIGHBOR_SLOTS} of the float64 maximum"
            )


@register_model_params
@dataclass(frozen=True)
class RandomParams(ModelParams):
    """Null baseline: uniform choice among empty neighbour cells."""

    model_name = "random"


@register_model_params
@dataclass(frozen=True)
class GreedyParams(ModelParams):
    """Deterministic ablation of the LEM: always the nearest empty cell.

    Ties between equally near cells are broken by the same random bit as the
    LEM so the baseline stays direction-unbiased.
    """

    model_name = "greedy"


#: Known model names → parameter-bundle classes. A live view of the
#: component registry's backing dict: third-party registrations appear
#: here automatically.
MODEL_NAMES = MODEL_PARAMS.entries


def params_from_name(name: str) -> ModelParams:
    """Return default parameters for a registered model name.

    >>> params_from_name("lem").model_name
    'lem'
    """
    cls = MODEL_PARAMS.get(name)
    params = cls()
    params.validate()
    return params


def params_to_dict(params: ModelParams) -> dict:
    """JSON-ready dict for a parameter bundle (inverse of
    :func:`params_from_dict`).

    ``model_name`` is a class attribute, not a dataclass field, so it is
    injected explicitly — it is the registry key the receiving side uses
    to rebuild the bundle class.
    """
    out = dataclasses.asdict(params)
    out["model_name"] = params.model_name
    return out


def params_from_dict(spec: dict) -> ModelParams:
    """Rebuild a parameter bundle from its :func:`params_to_dict` form.

    Raises :class:`~repro.errors.ConfigurationError` on non-dict specs,
    unknown model names (listing the registered ones) and field
    mismatches.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"params must be an object, got {type(spec).__name__}"
        )
    spec = dict(spec)
    name = spec.pop("model_name", "lem")
    cls = MODEL_PARAMS.get(name)
    try:
        params = cls(**spec)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for model {name!r}: {exc}"
        ) from None
    params.validate()
    return params
