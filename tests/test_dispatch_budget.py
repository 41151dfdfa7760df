"""Per-step dispatch and allocation budgets: fused kernels stay fused,
step-loop temporaries stay off the heap.

Each engine runs a few steady-state steps (32x32 grid, 24 agents/side,
LEM) under the counting backend, and one ``backend.snapshot()`` gives
both tallies: namespace dispatches (``ops``) and *allocating*
dispatches (``allocs`` — calls that return a fresh array: no ``out=``
and not in ``NON_ALLOC_OPS``).

``BUDGETS`` are measured dispatch counts with ~20% headroom for benign
drift; exceeding one means a whole-batch launch was split back into
per-group or per-lane passes. ``ALLOC_BUDGETS`` carry the same headroom
over measured allocation counts; exceeding one means a hot step-loop
temporary went back to fresh heap allocation. The whole-array engines'
budgets were last tightened to the halo-padded scan (37 ops and 18
allocs per step at any lane count); the sequential and tiled budgets
date from the fused kernels and the ``out=``-capable ops.

``PRE_FUSION`` (per-group TOP/BOTTOM passes, unfused RNG) and
``PRE_ARENA`` (before the ``out=``-capable ops) are the same
measurements taken on older trees, kept as fixed reference points
so the headline criteria — batched dispatches cut by at least 40%,
batched allocations by at least half — are asserted against history,
not against a number that drifts with the code under test.

Only ``xp.*`` namespace calls count (array methods and operator
indexing do not — see ``repro.backend.profiling``), so budgets are a
stable lower bound on real kernel launches.
"""

from functools import lru_cache

import pytest

from repro import SimulationConfig
from repro.backend import resolve_backend
from repro.engine import BatchedEngine, build_engine

#: Steady-state ops/step on the PR-7 tree (pre-fusion), same scenario.
PRE_FUSION = {
    "sequential": 47.2,
    "vectorized": 155.0,
    "tiled": 262.0,
    "batched4": 171.0,
    "padded4": 171.6,
}

#: Measured steady-state ops/step plus ~20% headroom.
BUDGETS = {
    "sequential": 22,
    "vectorized": 45,
    "tiled": 220,
    "batched4": 45,
    "padded4": 45,
}

#: Steady-state allocs/step before the ``out=`` ops (pre-arena), same scenario.
PRE_ARENA = {
    "sequential": 12.0,
    "vectorized": 58.0,
    "tiled": 157.0,
    "batched4": 60.0,
    "padded4": 60.0,
}

#: Measured allocs/step plus headroom for drift.
ALLOC_BUDGETS = {
    "sequential": 8,
    "vectorized": 22,
    "tiled": 155,
    "batched4": 22,
    "padded4": 22,
}

#: The one backend-name string every measurement here resolves: the
#: counting instance is cached per exact name, so the engine and the
#: assertion must agree on it.
PROFILE_NAME = "profile:numpy"

WARMUP_STEPS = 3
MEASURED_STEPS = 5


def _config(seed: int = 0, height: int = 32) -> SimulationConfig:
    return SimulationConfig(
        height=height, width=32, n_per_side=24, steps=40, seed=seed,
        backend=PROFILE_NAME,
    ).with_model("lem")


def _build(kind: str):
    """An engine by name; ``batched<B>`` is B homogeneous lanes."""
    if kind == "padded4":
        configs = [_config(s, height=32 if s % 2 == 0 else 48) for s in range(4)]
        return BatchedEngine(configs, seeds=tuple(range(4)))
    if kind.startswith("batched"):
        n_lanes = int(kind[len("batched"):])
        return BatchedEngine(_config(), seeds=tuple(range(n_lanes)))
    return build_engine(_config(), engine=kind)


@lru_cache(maxsize=None)
def _steady_per_step(kind: str) -> tuple:
    """(ops, allocs) per step over MEASURED_STEPS after WARMUP_STEPS.

    Counts are deterministic, so each engine is measured once per
    session and shared by every assertion below.
    """
    resolve_backend(PROFILE_NAME).reset()
    engine = _build(kind)
    backend = engine.backend
    for _ in range(WARMUP_STEPS):
        engine.step()
    backend.reset()
    for _ in range(MEASURED_STEPS):
        engine.step()
    counts = backend.snapshot()
    return counts.ops / MEASURED_STEPS, counts.allocs / MEASURED_STEPS


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_engine_stays_within_dispatch_budget(kind):
    ops, _ = _steady_per_step(kind)
    assert ops <= BUDGETS[kind], (
        f"{kind}: {ops:.1f} ops/step exceeds the {BUDGETS[kind]} budget — "
        f"a fused whole-batch launch has likely been split"
    )


@pytest.mark.parametrize("kind", sorted(ALLOC_BUDGETS))
def test_engine_stays_within_alloc_budget(kind):
    _, allocs = _steady_per_step(kind)
    assert allocs <= ALLOC_BUDGETS[kind], (
        f"{kind}: {allocs:.1f} allocs/step exceeds the "
        f"{ALLOC_BUDGETS[kind]} budget — a step-loop temporary has gone "
        f"back to fresh heap allocation"
    )


def test_batched_dispatch_cut_meets_headline_criterion():
    """PR-8 acceptance: batched per-step dispatches down >= 40% vs PR 7."""
    ops, _ = _steady_per_step("batched4")
    assert ops <= 0.6 * PRE_FUSION["batched4"], (
        f"batched engine at {ops:.1f} ops/step is less than a 40% cut from "
        f"the pre-fusion {PRE_FUSION['batched4']} ops/step"
    )


def test_batched_alloc_cut_meets_headline_criterion():
    """Headline criterion: batched allocs/step down >= 50% vs pre-arena."""
    _, allocs = _steady_per_step("batched4")
    assert allocs <= 0.5 * PRE_ARENA["batched4"], (
        f"batched engine at {allocs:.1f} allocs/step is less than a 50% "
        f"cut from the pre-arena {PRE_ARENA['batched4']} allocs/step"
    )


def test_batched_dispatch_independent_of_batch_width():
    """Fused whole-batch launches: ops/step must not scale with lanes.

    This is the structural claim behind batching — B lanes share one
    dispatch sequence. A small fixed allowance covers per-lane host-side
    bookkeeping at the recording boundary.
    """
    ops2, _ = _steady_per_step("batched2")
    ops8, _ = _steady_per_step("batched8")
    assert ops8 <= ops2 + 5, (
        f"ops/step grew from {ops2:.1f} (B=2) to {ops8:.1f} (B=8): "
        f"per-lane dispatch is leaking back in"
    )


def test_fused_engines_cheaper_than_pre_fusion_everywhere():
    """No engine regressed past its own pre-fusion dispatch count."""
    for kind, pre in PRE_FUSION.items():
        ops, _ = _steady_per_step(kind)
        assert ops < pre, f"{kind}: {ops:.1f} ops/step >= pre-fusion {pre}"


def test_every_engine_allocates_less_than_pre_arena():
    """No engine regressed past its own pre-arena allocation count."""
    for kind, pre in PRE_ARENA.items():
        _, allocs = _steady_per_step(kind)
        assert allocs < pre, (
            f"{kind}: {allocs:.1f} allocs/step >= pre-arena {pre}"
        )
