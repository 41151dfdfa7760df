"""Per-step dispatch and allocation budgets: fused kernels stay fused,
step-loop temporaries stay off the heap.

Each engine runs a few steady-state steps on a 32x32 grid under the
counting backend, and one ``backend.snapshot()`` gives both tallies:
namespace dispatches (``ops``) and *allocating* dispatches (``allocs``
— calls that return a fresh array: no ``out=`` and not in
``NON_ALLOC_OPS``). Two scenarios cover the two shapes a step takes:

* **free flow** (24 agents/side, LEM): after the warm-up every agent's
  forward cell is empty, so under forward priority no agent scans its
  neighbours or reaches ``model.select``, and no two agents target one
  cell, so the move stage makes no winner draw — the step is scan
  bookkeeping, the uncontested move stage and support;
* **jammed** (200 agents/side, LEM and ACO, measured once the groups
  have met): every step has agents whose forward cell is blocked and
  cells that several agents target, so every step runs the neighbour
  gather, eq. 1 / eq. 2, the select draws and the winner draws.

``BUDGETS`` / ``ALLOC_BUDGETS`` (free flow) and ``JAMMED_BUDGETS`` /
``JAMMED_ALLOC_BUDGETS`` carry ~20% headroom over measured counts for
benign drift; exceeding one means a whole-batch launch was split back
into per-group or per-lane passes, or a hot step-loop temporary went
back to fresh heap allocation. The whole-array free-flow budgets were
last tightened to contested-only winner draws (12 ops and 10 allocs per
step at any lane count). A Philox draw now costs one counted dispatch
(the ``asarray`` of its lanes) plus an ``empty`` when it returns a fresh
array, one fewer ``stack`` than before, so ``sequential`` measures 7
ops and 3 allocs (11 / 4 before) and its ops budget is tightened to 9.
Jammed, the whole-array engines measure 35 ops / 21 allocs (LEM) and
31 / 13 (ACO) at any lane count (39 / 20 and 32 / 12 before): the
candidate-first split adds a ``nonzero`` when some deciding row has no
empty neighbour, and LEM's tie-only tie-break trades the ``arange`` and
one ``where`` for a ``nonzero`` over the rows with 2+ tied slots. The
jammed ops budget is tightened from 45 to 42; the alloc budget stays at
22. Those jammed counts hold because the engine reserves the RNG's
scratch buffers at build: a draw that set a new high-water mark mid-run
would reallocate them. Since eq. 2 reads a static ``(1/D)^beta`` slot
table and ACO draws only for rows with two or more positive numerators,
jammed ACO measured 31 / 12: the scan lost two ``asarray`` calls and
the ``where`` mask, and select gained the ``nonzero`` of its
2+-positive rows and two ``out=`` ``maximum`` calls (the sole-slot pick
and the inverse CDF's threshold floor).

The LEM normal is now one fused Philox pass (one ``asarray`` where it
was three), eq. 1 and the greedy rule reduce slot-major, and a tie-break
row with no tied slot gets -1 from ``tiebreak_slots`` itself, so the
final ``where`` is gone: jammed, the whole-array engines measure 32 ops
/ 19 allocs (LEM; 31.6 / 18.8 on ``vectorized``) and 26 / 16 (greedy),
and ACO, whose running sums are now in-place column adds instead of a
``cumsum(out=)``, 30 / 12. The jammed ops budget is tightened from 42
to 38; the alloc budget stays at 22. ``sequential`` measures 5 ops and
3 allocs in free flow (7 / 3 before) and its ops budget is tightened
from 9 to 6. Jammed, it measures 6 / 3 (LEM), 5 / 3 (greedy) and 5 / 2
(ACO); ``SEQUENTIAL_JAMMED_BUDGETS`` holds its allocs at 3, which holds
only because the solo RNG reserves its scratch buffers at build, as the
batched one does.

Select now hands each mover's lane, slot code and cell straight to the
move stage, which resolves conflicts with claim masks instead of a
future-cell round trip and a sort: the ``nonzero`` re-find of the
deciders, the ``argsort``, ``empty``, ``not_equal`` and ``diff`` of the
per-cell grouping, a ``zeros``, the move-count ``scatter_add`` and the
crossing test's ``count_nonzero`` over every agent are gone; a
``scatter_add`` of claim bits into a buffer kept zeroed between steps,
a ``nonzero`` of the cell heads (and of the contested cells), a
``divmod`` of the heads' cells and ``bincount`` move and crossing
counts came in. Free flow measures 10 ops / 9 allocs on the whole-array
engines (12 / 10 before), so their ops budget is tightened from 15 to
11 and their alloc budget from 12 to 11. Jammed they measure 30 / 18
(LEM; 29.6 / 17.8 on ``vectorized``), 24 / 15 (greedy) and 28 / 12
(ACO, whose pheromone clamp now returns the touched cells fresh
instead of clamping the whole field in place); the jammed ops budget
is tightened from 38 to 36 and the alloc budget stays at 22.

``PRE_FUSION`` (per-group TOP/BOTTOM passes, unfused RNG) and
``PRE_ARENA`` (before the ``out=``-capable ops) are free-flow-scenario
measurements taken on older trees, when every step ran select, kept as
fixed reference points so the headline criteria — batched dispatches
cut by at least 40%, batched allocations by at least half — are
asserted against history, not against a number that drifts with the
code under test. The jammed scenario is the one that holds select to
them.

Only ``xp.*`` namespace calls count (array methods and operator
indexing do not — see ``repro.backend.profiling``), so budgets are a
stable lower bound on real kernel launches.
"""

from functools import lru_cache

import pytest

from repro import SimulationConfig
from repro.backend import resolve_backend
from repro.engine import BatchedEngine, build_engine
from repro.rng import Stream

#: Steady-state ops/step on the PR-7 tree (pre-fusion), free-flow scenario.
PRE_FUSION = {
    "sequential": 47.2,
    "vectorized": 155.0,
    "batched4": 171.0,
    "padded4": 171.6,
}

#: Measured free-flow ops/step plus ~20% headroom.
BUDGETS = {
    "sequential": 6,
    "vectorized": 11,
    "batched4": 11,
    "padded4": 11,
}

#: Steady-state allocs/step before the ``out=`` ops (pre-arena), free flow.
PRE_ARENA = {
    "sequential": 12.0,
    "vectorized": 58.0,
    "batched4": 60.0,
    "padded4": 60.0,
}

#: Measured free-flow allocs/step plus headroom for drift.
ALLOC_BUDGETS = {
    "sequential": 8,
    "vectorized": 11,
    "batched4": 11,
    "padded4": 11,
}

#: Jammed-scenario ops/step and allocs/step budgets of the whole-array
#: engines, per model (every step runs select).
JAMMED_BUDGETS = {"vectorized": 36, "batched4": 36}
JAMMED_ALLOC_BUDGETS = {"vectorized": 22, "batched4": 22}
JAMMED_MODELS = ("lem", "aco")
#: Jammed (ops, allocs) per step of the ``sequential`` engine, which
#: pre-draws every agent's variates each step whether it decides or not.
SEQUENTIAL_JAMMED_BUDGETS = (7, 3)

#: Agents per side of each scenario.
FREE_FLOW = 24
JAMMED = 200

#: The one backend-name string every measurement here resolves: the
#: counting instance is cached per exact name, so the engine and the
#: assertion must agree on it.
PROFILE_NAME = "profile:numpy"

WARMUP_STEPS = 3
#: The two groups meet by step ~10 and stay jammed; before that they
#: spread out of their bands and briefly flow freely.
JAMMED_WARMUP_STEPS = 12
MEASURED_STEPS = 5


def _config(
    seed: int = 0, height: int = 32, n_per_side: int = FREE_FLOW, model: str = "lem"
) -> SimulationConfig:
    return SimulationConfig(
        height=height, width=32, n_per_side=n_per_side, steps=40, seed=seed,
        backend=PROFILE_NAME,
    ).with_model(model)


def _build(kind: str, n_per_side: int, model: str):
    """An engine by name; ``batched<B>`` is B homogeneous lanes."""
    if kind == "padded4":
        configs = [
            _config(s, 32 if s % 2 == 0 else 48, n_per_side, model) for s in range(4)
        ]
        return BatchedEngine(configs, seeds=tuple(range(4)))
    cfg = _config(n_per_side=n_per_side, model=model)
    if kind.startswith("batched"):
        return BatchedEngine(cfg, seeds=tuple(range(int(kind[len("batched"):]))))
    return build_engine(cfg, engine=kind)


@lru_cache(maxsize=None)
def _steady_per_step(
    kind: str, n_per_side: int = FREE_FLOW, model: str = "lem"
) -> tuple:
    """(ops, allocs, select calls, MOVE_WINNER draws) per step over
    MEASURED_STEPS after the scenario's warm-up.

    Counts are deterministic, so each engine and scenario is measured
    once per session and shared by every assertion below.
    """
    resolve_backend(PROFILE_NAME).reset()
    engine = _build(kind, n_per_side, model)
    backend = engine.backend
    warmup = WARMUP_STEPS if n_per_side == FREE_FLOW else JAMMED_WARMUP_STEPS
    for _ in range(warmup):
        engine.step()
    calls = []
    draws = []
    select = engine.model.select
    # The sequential engine draws through its solo RNG's ``uniform``.
    draw_name = "uniform_at" if hasattr(engine.rng, "uniform_at") else "uniform"
    draw = getattr(engine.rng, draw_name)

    def counted(*args):
        calls.append(1)
        return select(*args)

    def counted_draw(stream, *args):
        if stream == Stream.MOVE_WINNER:
            draws.append(1)
        return draw(stream, *args)

    backend.reset()
    engine.model.select = counted
    setattr(engine.rng, draw_name, counted_draw)
    for _ in range(MEASURED_STEPS):
        engine.step()
    counts = backend.snapshot()
    return (
        counts.ops / MEASURED_STEPS,
        counts.allocs / MEASURED_STEPS,
        len(calls) / MEASURED_STEPS,
        len(draws) / MEASURED_STEPS,
    )


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_engine_stays_within_dispatch_budget(kind):
    ops, *_ = _steady_per_step(kind)
    assert ops <= BUDGETS[kind], (
        f"{kind}: {ops:.1f} ops/step exceeds the {BUDGETS[kind]} budget — "
        f"a fused whole-batch launch has likely been split"
    )


@pytest.mark.parametrize("kind", sorted(ALLOC_BUDGETS))
def test_engine_stays_within_alloc_budget(kind):
    _, allocs, *_ = _steady_per_step(kind)
    assert allocs <= ALLOC_BUDGETS[kind], (
        f"{kind}: {allocs:.1f} allocs/step exceeds the "
        f"{ALLOC_BUDGETS[kind]} budget — a step-loop temporary has gone "
        f"back to fresh heap allocation"
    )


@pytest.mark.parametrize("model", JAMMED_MODELS)
@pytest.mark.parametrize("kind", sorted(JAMMED_BUDGETS))
def test_jammed_engine_stays_within_budgets(kind, model):
    ops, allocs, *_ = _steady_per_step(kind, JAMMED, model)
    assert ops <= JAMMED_BUDGETS[kind], (
        f"{kind}/{model} jammed: {ops:.1f} ops/step exceeds the "
        f"{JAMMED_BUDGETS[kind]} budget — the select path has been split"
    )
    assert allocs <= JAMMED_ALLOC_BUDGETS[kind], (
        f"{kind}/{model} jammed: {allocs:.1f} allocs/step exceeds the "
        f"{JAMMED_ALLOC_BUDGETS[kind]} budget"
    )


@pytest.mark.parametrize("model", ("lem", "greedy", "aco"))
def test_jammed_sequential_stays_within_budgets(model):
    """The scalar path's per-step draws reuse scratch sized at build: a
    draw that grew a buffer mid-run would show here as an extra alloc."""
    ops, allocs, *_ = _steady_per_step("sequential", JAMMED, model)
    max_ops, max_allocs = SEQUENTIAL_JAMMED_BUDGETS
    assert ops <= max_ops and allocs <= max_allocs, (
        f"sequential/{model} jammed: {ops:.1f} ops, {allocs:.1f} allocs/step "
        f"over the {max_ops} / {max_allocs} budget"
    )


@pytest.mark.parametrize("kind", sorted(JAMMED_BUDGETS))
def test_scenarios_take_the_paths_they_guard(kind):
    """Free flow never reaches select or a winner draw; the jammed case
    selects every step in one fused call and draws winners for its
    contested cells, so its budgets hold both paths."""
    assert _steady_per_step(kind)[2:] == (0, 0)
    for model in JAMMED_MODELS:
        assert _steady_per_step(kind, JAMMED, model)[2:] == (1, 1)


def test_batched_dispatch_cut_meets_headline_criterion():
    """PR-8 acceptance: batched per-step dispatches down >= 40% vs PR 7,
    in free flow and with every step running select."""
    for n_per_side in (FREE_FLOW, JAMMED):
        ops, *_ = _steady_per_step("batched4", n_per_side)
        assert ops <= 0.6 * PRE_FUSION["batched4"], (
            f"batched engine at {ops:.1f} ops/step ({n_per_side} per side) "
            f"is less than a 40% cut from the pre-fusion "
            f"{PRE_FUSION['batched4']} ops/step"
        )


def test_batched_alloc_cut_meets_headline_criterion():
    """Headline criterion: batched allocs/step down >= 50% vs pre-arena."""
    for n_per_side in (FREE_FLOW, JAMMED):
        _, allocs, *_ = _steady_per_step("batched4", n_per_side)
        assert allocs <= 0.5 * PRE_ARENA["batched4"], (
            f"batched engine at {allocs:.1f} allocs/step ({n_per_side} per "
            f"side) is less than a 50% cut from the pre-arena "
            f"{PRE_ARENA['batched4']} allocs/step"
        )


def test_batched_dispatch_independent_of_batch_width():
    """Fused whole-batch launches: ops/step must not scale with lanes.

    This is the structural claim behind batching — B lanes share one
    dispatch sequence, in free flow and when every step selects. A small
    fixed allowance covers per-lane host-side bookkeeping at the
    recording boundary.
    """
    for n_per_side in (FREE_FLOW, JAMMED):
        ops2, *_ = _steady_per_step("batched2", n_per_side)
        ops8, *_ = _steady_per_step("batched8", n_per_side)
        assert ops8 <= ops2 + 5, (
            f"ops/step grew from {ops2:.1f} (B=2) to {ops8:.1f} (B=8) with "
            f"{n_per_side} per side: per-lane dispatch is leaking back in"
        )


def test_fused_engines_cheaper_than_pre_fusion_everywhere():
    """No engine regressed past its own pre-fusion dispatch count."""
    for kind, pre in PRE_FUSION.items():
        ops, *_ = _steady_per_step(kind)
        assert ops < pre, f"{kind}: {ops:.1f} ops/step >= pre-fusion {pre}"


def test_every_engine_allocates_less_than_pre_arena():
    """No engine regressed past its own pre-arena allocation count."""
    for kind, pre in PRE_ARENA.items():
        _, allocs, *_ = _steady_per_step(kind)
        assert allocs < pre, (
            f"{kind}: {allocs:.1f} allocs/step >= pre-arena {pre}"
        )
