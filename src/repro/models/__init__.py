"""Movement models: LEM (eq. 1), modified ACO (eq. 2-5) and baselines."""

from .aco import ACOModel, aco_numerators
from .base import MovementModel, build_model
from .lem import LEMModel, lem_scores
from .mathops import fast_pow
from .params import (
    ACOParams,
    GreedyParams,
    LEMParams,
    MODEL_NAMES,
    ModelParams,
    RandomParams,
    params_from_dict,
    params_from_name,
    params_to_dict,
)
from .pheromone import PheromoneField
from .policies import GreedyModel, RandomModel

__all__ = [
    "MovementModel",
    "build_model",
    "LEMModel",
    "lem_scores",
    "ACOModel",
    "aco_numerators",
    "RandomModel",
    "GreedyModel",
    "PheromoneField",
    "fast_pow",
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
