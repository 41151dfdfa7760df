"""Canonical content digests for configs and engine state.

Two digest families back the repo's reproducibility machinery:

* :func:`config_digest` — a canonical SHA-256 over a resolved
  :class:`~repro.config.SimulationConfig`. Stable across processes,
  Python versions and field order (the JSON encoding sorts keys), so it
  can key a content-addressed result cache on disk: two requests with
  byte-equal digests are the *same simulation* and may share one result.
  The engines' bit-identity guarantee is what makes this sound — a
  digest never encodes which engine or backend executes, because every
  engine/backend pair produces the same trajectory for the same config.
* :func:`engine_state_digest` — a SHA-256 over an engine's final agent
  property matrix and environment grid, the golden-trajectory fingerprint
  the backend parity suite pins against digests captured from the seed
  engines.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["canonical_config_json", "config_digest", "engine_state_digest"]


def canonical_config_json(config) -> str:
    """The canonical JSON encoding of a config (sorted keys, no spaces).

    Hash input for :func:`config_digest`; exposed separately so tests and
    debugging tools can inspect exactly what was hashed. The ``backend``
    field is excluded for the same reason the engine never enters the
    digest: it selects an executor, not a simulation, and trajectories
    are bit-identical across executors.
    """
    spec = config.to_dict()
    spec.pop("backend", None)
    return json.dumps(spec, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(config) -> str:
    """Canonical hex SHA-256 of a resolved simulation config.

    >>> from repro.config import SimulationConfig
    >>> a = SimulationConfig(height=16, width=16, n_per_side=8, steps=5)
    >>> config_digest(a) == config_digest(a.replace())
    True
    >>> config_digest(a) == config_digest(a.replace(seed=1))
    False
    """
    blob = canonical_config_json(config).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def engine_state_digest(engine, length: int = 16) -> str:
    """Hex SHA-256 fingerprint of an engine's final simulation state.

    Hashes the agent property matrix (ids, rows, cols, tour, crossed,
    crossed_step) and the environment grid, after a host round-trip
    through the engine's backend — so runs of the same trajectory on any
    backend produce the same fingerprint. ``length`` truncates the hex
    digest (the parity suite's goldens keep 16 chars).
    """
    h = hashlib.sha256()
    to_host = engine.backend.to_host
    pop = engine.pop
    for arr in (pop.ids, pop.rows, pop.cols, pop.tour, pop.crossed, pop.crossed_step):
        h.update(np.ascontiguousarray(to_host(arr)).tobytes())
    h.update(np.ascontiguousarray(to_host(engine.env.mat)).tobytes())
    return h.hexdigest()[:length]
