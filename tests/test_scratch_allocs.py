"""Per-step allocation budgets: step-loop temporaries must not go back to the heap.

Companion to ``tests/test_dispatch_budget.py``, measuring *allocating*
dispatches per steady-state step (namespace calls that return a fresh
array — no ``out=`` and not in ``NON_ALLOC_OPS``). The ``PRE_ARENA``
constants are the same measurement taken on the PR-9 tree (before the
scratch arena and the ``out=``-capable ops), kept as fixed reference
points so the headline criterion — batched allocations per step cut by
at least half — is asserted against history, not a drifting baseline.

Budgets carry modest headroom over the measured post-arena counts;
exceeding one means a hot step-loop temporary went back to fresh heap
allocation.
"""

import pytest

from repro import SimulationConfig
from repro.backend import resolve_backend
from repro.engine import BatchedEngine, build_engine

#: Steady-state allocs/step on the PR-9 tree (no arena), same scenario.
PRE_ARENA = {
    "sequential": 12.0,
    "vectorized": 58.0,
    "tiled": 157.0,
    "batched4": 60.0,
    "padded4": 60.0,
}

#: Post-arena budgets: measured allocs/step plus headroom for drift.
#: batched4's 30 is the PR-10 acceptance ceiling, not just headroom.
ALLOC_BUDGETS = {
    "sequential": 8,
    "vectorized": 32,
    "tiled": 155,
    "batched4": 30,
    "padded4": 30,
}

PROFILE_NAME = "profile:numpy"
WARMUP_STEPS = 3
MEASURED_STEPS = 5


def _config(seed: int = 0, height: int = 32) -> SimulationConfig:
    return SimulationConfig(
        height=height, width=32, n_per_side=24, steps=40, seed=seed,
        backend=PROFILE_NAME,
    ).with_model("lem")


def _steady_allocs_per_step(engine) -> float:
    backend = engine.backend
    for _ in range(WARMUP_STEPS):
        engine.step()
    backend.reset()
    for _ in range(MEASURED_STEPS):
        engine.step()
    return backend.snapshot().allocs / MEASURED_STEPS


def _build(kind: str):
    if kind == "batched4":
        return BatchedEngine(_config(), seeds=(0, 1, 2, 3))
    if kind == "padded4":
        configs = [_config(s, height=32 if s % 2 == 0 else 48) for s in range(4)]
        return BatchedEngine(configs, seeds=tuple(range(4)))
    return build_engine(_config(), engine=kind)


@pytest.mark.parametrize("kind", sorted(ALLOC_BUDGETS))
def test_engine_stays_within_alloc_budget(kind):
    resolve_backend(PROFILE_NAME).reset()
    allocs = _steady_allocs_per_step(_build(kind))
    assert allocs <= ALLOC_BUDGETS[kind], (
        f"{kind}: {allocs:.1f} allocs/step exceeds the "
        f"{ALLOC_BUDGETS[kind]} budget — a step-loop temporary has gone "
        f"back to fresh heap allocation"
    )


def test_batched_alloc_cut_meets_headline_criterion():
    """PR-10 acceptance: batched allocs/step down >= 50% vs pre-arena."""
    resolve_backend(PROFILE_NAME).reset()
    allocs = _steady_allocs_per_step(_build("batched4"))
    assert allocs <= 0.5 * PRE_ARENA["batched4"], (
        f"batched engine at {allocs:.1f} allocs/step is less than a 50% "
        f"cut from the pre-arena {PRE_ARENA['batched4']} allocs/step"
    )


def test_every_engine_allocates_less_than_pre_arena():
    for kind, pre in PRE_ARENA.items():
        resolve_backend(PROFILE_NAME).reset()
        allocs = _steady_allocs_per_step(_build(kind))
        assert allocs < pre, (
            f"{kind}: {allocs:.1f} allocs/step >= pre-arena {pre}"
        )

