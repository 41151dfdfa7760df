"""NumPy-dispatch parity: the backend layer must not perturb a single bit.

The golden digests below were captured from the *seed* engines (before the
array-backend refactor) on the PR-2 tree: throughput plus a SHA-256 over
the final property matrix (ids/rows/cols/tour/crossed/crossed_step) and
``mat``. With ``backend="numpy"`` every ``xp.*`` call is the corresponding
``numpy`` call, so any digest drift means the dispatch layer changed the
trajectory — exactly what this suite is here to catch.
"""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine, run_batched
from repro.io import engine_state_digest

#: (model, engine, seed) -> (throughput_total, state digest) captured from
#: the pre-backend seed engines (32x32 grid, 48 agents/side, 40 steps).
GOLDEN = {
    ("lem", "sequential", 0): (55, "452e0d5c8ab1868d"),
    ("lem", "sequential", 3): (49, "5aa1382ab347b70b"),
    ("lem", "vectorized", 0): (55, "452e0d5c8ab1868d"),
    ("lem", "vectorized", 3): (49, "5aa1382ab347b70b"),
    ("aco", "sequential", 0): (44, "1b09357ff652a574"),
    ("aco", "sequential", 3): (40, "8740d52a2dbf04cb"),
    ("aco", "vectorized", 0): (44, "1b09357ff652a574"),
    ("aco", "vectorized", 3): (40, "8740d52a2dbf04cb"),
    ("random", "sequential", 0): (46, "7f5f9b4d2644b435"),
    ("random", "sequential", 3): (46, "caa148911059cfbe"),
    ("random", "vectorized", 0): (46, "7f5f9b4d2644b435"),
    ("random", "vectorized", 3): (46, "caa148911059cfbe"),
    ("greedy", "sequential", 0): (80, "e331fadb01297bac"),
    ("greedy", "sequential", 3): (85, "5aa2e412ba995ed9"),
    ("greedy", "vectorized", 0): (80, "e331fadb01297bac"),
    ("greedy", "vectorized", 3): (85, "5aa2e412ba995ed9"),
}


def _config(model: str, seed: int) -> SimulationConfig:
    return SimulationConfig(
        height=32, width=32, n_per_side=48, steps=40, seed=seed
    ).with_model(model)


@pytest.mark.parametrize(("model", "engine", "seed"), sorted(GOLDEN))
def test_numpy_dispatch_matches_seed_engines(model, engine, seed):
    """Every engine x model x seed reproduces the pre-backend trajectory."""
    eng = build_engine(_config(model, seed), engine=engine, backend="numpy")
    result = eng.run(record_timeline=False)
    expected_tp, expected_digest = GOLDEN[(model, engine, seed)]
    assert result.throughput_total == expected_tp
    assert engine_state_digest(eng) == expected_digest


@pytest.mark.parametrize("model", ["lem", "aco"])
def test_batched_lanes_match_seed_trajectories(model):
    """Batched lanes under NumPy dispatch reproduce the same golden states."""
    seeds = (0, 3)
    configs = [_config(model, s) for s in seeds]
    eng_batched = run_batched(configs, seeds, record_timeline=False)
    for seed, result in zip(seeds, eng_batched.results):
        assert result.throughput_total == GOLDEN[(model, "vectorized", seed)][0]


def test_default_backend_equals_explicit_numpy():
    """A config that never mentions backends runs the numpy dispatch path."""
    cfg = _config("lem", 0)
    assert cfg.backend == "numpy"
    implicit = build_engine(cfg)
    explicit = build_engine(cfg.replace(backend="numpy"))
    implicit.run(record_timeline=False)
    explicit.run(record_timeline=False)
    assert implicit.state_equals(explicit)
    assert engine_state_digest(implicit) == engine_state_digest(explicit)


def test_engine_backend_is_resolved_from_config():
    eng = build_engine(_config("lem", 0))
    assert eng.backend.name == "numpy"
    assert eng.xp is np
    assert eng.rng.backend is eng.backend
    assert eng.model.backend is eng.backend
    assert eng.env.backend is eng.backend
    assert eng.pop.backend is eng.backend


def test_timeline_buffers_match_step_reports():
    """Preallocated timelines carry exactly the per-step counters."""
    cfg = _config("lem", 1)
    recorder = build_engine(cfg, engine="vectorized")
    stepper = build_engine(cfg, engine="vectorized")
    moved, crossed = [], []
    for _ in range(cfg.steps):
        report = stepper.step()
        moved.append(report.moved)
        crossed.append(report.new_crossings)
    result = recorder.run()
    assert result.moved_per_step.tolist() == moved
    assert result.crossings_per_step.tolist() == crossed
    assert result.moved_per_step.dtype == np.int64


def test_record_timeline_false_fast_path_returns_none():
    result = build_engine(_config("lem", 1)).run(record_timeline=False)
    assert result.moved_per_step is None
    assert result.crossings_per_step is None


def test_batched_timeline_buffers_match_list_append_semantics():
    """The (steps, B) device buffer equals the old per-step list stacking."""
    seeds = (0, 1, 2)
    cfg = _config("aco", 0)
    out = run_batched(cfg, seeds, record_timeline=True)
    engine_cls_runs = [
        build_engine(cfg, seed=s).run(record_timeline=True) for s in seeds
    ]
    for batched, solo in zip(out.results, engine_cls_runs):
        np.testing.assert_array_equal(batched.moved_per_step, solo.moved_per_step)
        np.testing.assert_array_equal(
            batched.crossings_per_step, solo.crossings_per_step
        )
