"""Emit a ``BENCH_<label>.json`` performance trajectory for this tree.

The report has three sections:

* **dispatch** — namespace dispatches per step for every engine in
  steady state, counted with the counting backend
  (``repro.backend.ProfilingBackend``). Each entry sits next to the
  pre-fusion (PR 7) constant. Each entry also carries **allocs**:
  allocating dispatches per step (no ``out=``, not a view or in-place
  op), next to the pre-arena (PR 9) constant;
* **wall** — micro-benchmark wall-clock for the batched, padded and
  batched-tiled paths against their solo-loop equivalents, next to the
  speedups recorded in earlier PR notes (PR 1: batched ~2x over a solo
  loop; PR 2: padded ~1.7x over solo loops of a mixed-scenario grid);
* **latency_phases** (PR 9) — per-phase p50 latencies from an
  in-process service burst, computed from the tracing spans the jobs
  persist (see ``docs/OBSERVABILITY.md``).

Usage::

    PYTHONPATH=src python benchmarks/make_bench_report.py --out BENCH_pr10.json
    PYTHONPATH=src python benchmarks/make_bench_report.py --check

``--check`` exits 1 unless every deterministic criterion holds (dispatch
and alloc counts, span-tree coverage). The wall-clock criteria are
recorded in the report but never gated: they wobble on loaded shared
runners. Read the report with ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro import SimulationConfig, run_batched, run_simulation
from repro.backend import resolve_backend
from repro.cuda import BatchedTiledEngine
from repro.cuda.tiled_engine import TiledEngine
from repro.engine import BatchedEngine

LABEL = "pr10"

#: Steady-state ops/step on the PR-7 tree (pre-fusion), measured with the
#: same scenario and counting backend as the live numbers below.
PRE_FUSION_OPS = {
    "sequential": 47.2,
    "vectorized": 155.0,
    "tiled": 262.0,
    "batched4": 171.0,
    "padded4": 171.6,
}

#: Steady-state allocs/step on the PR-9 tree (before the scratch arena
#: and the ``out=``-capable ops), same scenario and counting backend.
PRE_ARENA_ALLOCS = {
    "sequential": 12.0,
    "vectorized": 58.0,
    "tiled": 157.0,
    "batched4": 60.0,
    "padded4": 60.0,
}

#: Speedups recorded in earlier PR notes (CHANGES.md) — the "no slower
#: than PR 2" reference line. Wall-clock, batched/padded vs solo loops.
RECORDED_SPEEDUPS = {"pr1_batched": 2.0, "pr2_padded": 1.7}

PROFILE_NAME = "profile:numpy"
WARMUP_STEPS = 3
MEASURED_STEPS = 5

#: Traced service jobs behind the latency_phases section. 6 samples (the
#: PR-9 value) made the p50s wobble run to run; 24 keeps the section
#: stable enough to gate on while staying a sub-second burst.
LATENCY_BURST = 24


def _config(seed=0, height=32, n_per_side=24, steps=40, model="lem"):
    return SimulationConfig(
        height=height, width=32, n_per_side=n_per_side, steps=steps, seed=seed
    ).with_model(model)


# ---------------------------------------------------------------------------
# Dispatch + allocation counts
# ---------------------------------------------------------------------------


def _steady_counts_per_step(engine) -> tuple:
    """(ops, allocs) per step over MEASURED_STEPS after warm-up."""
    backend = engine.backend
    for _ in range(WARMUP_STEPS):
        engine.step()
    backend.reset()
    for _ in range(MEASURED_STEPS):
        engine.step()
    counts = backend.snapshot()
    return counts.ops / MEASURED_STEPS, counts.allocs / MEASURED_STEPS


def _build_profiled(kind: str):
    from repro.engine import build_engine

    cfg = _config().replace(backend=PROFILE_NAME)
    if kind == "batched4":
        return BatchedEngine(cfg, seeds=(0, 1, 2, 3))
    if kind == "padded4":
        configs = [
            _config(s, height=32 if s % 2 == 0 else 48).replace(
                backend=PROFILE_NAME
            )
            for s in range(4)
        ]
        return BatchedEngine(configs, seeds=tuple(range(4)))
    return build_engine(cfg, engine=kind)


def measure_dispatch() -> dict:
    out = {}
    for kind, pre in PRE_FUSION_OPS.items():
        resolve_backend(PROFILE_NAME).reset()
        ops, allocs = _steady_counts_per_step(_build_profiled(kind))
        pre_allocs = PRE_ARENA_ALLOCS[kind]
        out[kind] = {
            "ops_per_step": round(ops, 1),
            "pre_fusion_ops_per_step": pre,
            "reduction_pct": round(100.0 * (1.0 - ops / pre), 1),
            "allocs_per_step": round(allocs, 1),
            "pre_arena_allocs_per_step": pre_allocs,
            "alloc_reduction_pct": round(
                100.0 * (1.0 - allocs / pre_allocs), 1
            ),
        }
    return out


# ---------------------------------------------------------------------------
# Wall-clock micro-benchmarks
# ---------------------------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_pair(solo_fn, fused_fn, repeats: int) -> dict:
    solo_fn(), fused_fn()  # warm-up (backend caches, page-ins)
    solo = _best_of(solo_fn, repeats)
    fused = _best_of(fused_fn, repeats)
    return {
        "solo_loop_seconds": round(solo, 4),
        "fused_seconds": round(fused, 4),
        "speedup": round(solo / fused, 2),
    }


def measure_wall(repeats: int) -> dict:
    out = {}

    # Batched homogeneous: 8 replications, one whole-array launch.
    seeds8 = tuple(range(8))
    cfg = _config(steps=60)
    out["batched_8rep"] = _bench_pair(
        lambda: [
            run_simulation(cfg.replace(seed=s), record_timeline=False)
            for s in seeds8
        ],
        lambda: run_batched(cfg, seeds8, record_timeline=False),
        repeats,
    )
    out["batched_8rep"]["recorded_reference"] = RECORDED_SPEEDUPS["pr1_batched"]

    # Padded heterogeneous: mixed grid shapes in one padded batch.
    mixed = [
        _config(0, height=32, steps=60),
        _config(1, height=48, steps=60),
        _config(2, height=32, n_per_side=16, steps=60),
        _config(3, height=48, n_per_side=16, steps=60),
    ]
    seeds4 = tuple(range(4))
    out["padded_4lane"] = _bench_pair(
        lambda: [
            run_simulation(c, seed=s, record_timeline=False)
            for c, s in zip(mixed, seeds4)
        ],
        lambda: run_batched(mixed, seeds4, record_timeline=False),
        repeats,
    )
    out["padded_4lane"]["recorded_reference"] = RECORDED_SPEEDUPS["pr2_padded"]

    # Batched tiled: 4 replications of the shared-memory-faithful engine
    # against a loop of solo tiled runs (the PR-8 acceptance pairing).
    def _solo_tiled():
        for s in seeds4:
            TiledEngine(cfg, seed=s).run(record_timeline=False)

    def _batched_tiled():
        BatchedTiledEngine(cfg, seeds=seeds4).run(record_timeline=False)

    out["batched_tiled_4rep"] = _bench_pair(_solo_tiled, _batched_tiled, repeats)
    return out


# ---------------------------------------------------------------------------
# Phase latency (tracing spans through the serving stack)
# ---------------------------------------------------------------------------


def measure_latency_phases(burst: int = LATENCY_BURST) -> dict:
    """Per-phase p50 latency from a small in-process service burst.

    Runs ``burst`` seed-varied jobs through a throwaway
    ``SimulationService`` (serial tick path — no pool) and summarises
    the span durations every job records. The overhead phases (plan,
    warm_backend, to_host, commit) are per-job stack cost; queue_wait
    and dispatch measure time spent waiting behind the rest of the
    burst, so they scale with ``burst`` by construction.
    """
    import shutil
    import tempfile

    from repro.obs import ROOT_SPAN, percentile
    from repro.service import SimulationService

    state = tempfile.mkdtemp(prefix="bench-obs-")
    try:
        svc = SimulationService(state)
        cfg = _config(steps=60)
        jobs = [svc.submit(cfg.replace(seed=s)) for s in range(burst)]
        svc.run_until_idle()
        durations: dict = {}
        for job in jobs:
            payload = svc.trace_payload(job.job_id) or {}
            for span in payload.get("spans", ()):
                durations.setdefault(span["name"], []).append(
                    span["duration_s"]
                )
        svc.close()
    finally:
        shutil.rmtree(state, ignore_errors=True)

    out = {}
    for name, values in durations.items():
        key = "end_to_end" if name == ROOT_SPAN else name
        out[key] = {
            "p50_ms": round(percentile(values, 0.5) * 1e3, 3),
            "samples": len(values),
        }
    return out


# ---------------------------------------------------------------------------
# Criteria + report assembly
# ---------------------------------------------------------------------------


def evaluate(dispatch: dict, wall: dict, latency: dict) -> dict:
    return {
        "batched_dispatch_cut_ge_40pct": (
            dispatch["batched4"]["reduction_pct"] >= 40.0
        ),
        "no_engine_dispatches_more_than_pre_fusion": all(
            d["ops_per_step"] < d["pre_fusion_ops_per_step"]
            for d in dispatch.values()
        ),
        # PR-10 acceptance: batched allocs/step at least halved vs the
        # recorded pre-arena count, and no engine regressed past its own.
        "batched_allocs_cut_ge_50pct": (
            dispatch["batched4"]["alloc_reduction_pct"] >= 50.0
        ),
        "no_engine_allocates_more_than_pre_arena": all(
            d["allocs_per_step"] < d["pre_arena_allocs_per_step"]
            for d in dispatch.values()
        ),
        "batched_no_slower_than_recorded": (
            wall["batched_8rep"]["speedup"]
            >= RECORDED_SPEEDUPS["pr1_batched"]
        ),
        "padded_no_slower_than_recorded": (
            wall["padded_4lane"]["speedup"] >= RECORDED_SPEEDUPS["pr2_padded"]
        ),
        "batched_tiled_beats_solo_loop": (
            wall["batched_tiled_4rep"]["speedup"] > 1.0
        ),
        # The span tree must cover the whole pipeline: every canonical
        # phase sampled. Deterministic in structure, so gated with the
        # dispatch criteria.
        "latency_phases_cover_pipeline": all(
            phase in latency
            for phase in (
                "end_to_end", "queue_wait", "plan", "dispatch",
                "warm_backend", "engine.run", "to_host", "commit",
            )
        ),
        # The stack's own per-job overhead (planning, backend warm-up,
        # host copy-out, commit) must stay in the noise next to the
        # engine inner loop. queue_wait/dispatch are deliberately
        # excluded: they measure time spent *waiting behind other jobs*,
        # which scales with burst size, not with stack efficiency.
        "stack_overhead_under_10pct_of_engine_run": (
            sum(
                latency[p]["p50_ms"]
                for p in ("plan", "warm_backend", "to_host", "commit")
                if p in latency
            )
            <= 0.1 * latency.get("engine.run", {}).get("p50_ms", 0.0)
        ),
    }


def build_report(repeats: int) -> dict:
    dispatch = measure_dispatch()
    wall = measure_wall(repeats)
    latency = measure_latency_phases()
    return {
        "label": LABEL,
        "generated_unix_s": round(time.time(), 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenario": "lem 32x32 (48-high lanes in padded/mixed), 24/side",
        "dispatch": dispatch,
        "wall": wall,
        "latency_phases": latency,
        "criteria": evaluate(dispatch, wall, latency),
    }


#: The criteria ``--check`` gates: deterministic, so a loaded runner
#: cannot fail them. The rest are wall-clock and only recorded.
DETERMINISTIC_KEYS = (
    "batched_dispatch_cut_ge_40pct",
    "no_engine_dispatches_more_than_pre_fusion",
    "batched_allocs_cut_ge_50pct",
    "no_engine_allocates_more_than_pre_arena",
    "latency_phases_cover_pipeline",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N wall timing"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every deterministic criterion holds "
        "(dispatch + allocs + span coverage); wall-clock is not gated",
    )
    args = parser.parse_args(argv)

    report = build_report(args.repeats)
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    criteria = report["criteria"]
    for name, ok in criteria.items():
        gated = "" if name in DETERMINISTIC_KEYS else "  (recorded, not gated)"
        print(f"  {'PASS' if ok else 'FAIL'}  {name}{gated}")
    if args.check and not all(criteria[k] for k in DETERMINISTIC_KEYS):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
