"""Batched multi-replication engine vs a sequential loop of solo runs.

The paper's evaluation repeats every sweep point over several seeds; the
:class:`~repro.engine.batched.BatchedEngine` fuses those replications into
one whole-array launch. On small scaled grids a simulation step is
dominated by fixed NumPy dispatch overhead, so fusing 8 replications
amortises that overhead ~8 ways. This benchmark pins down that the
batched path produces bit-identical throughputs and records its
wall-clock speedup over the solo loop in ``extra_info["speedup"]``
(~2x observed, LEM ~2.5x); the ratio is recorded, not asserted.
"""

import time

import pytest

from repro import run_batched, run_simulation

SEEDS = tuple(range(8))


def _solo_loop(cfg):
    return [
        run_simulation(cfg.replace(seed=s), record_timeline=False) for s in SEEDS
    ]


def _batched(cfg):
    return run_batched(cfg, SEEDS, record_timeline=False)


@pytest.mark.parametrize("model", ["lem", "aco"])
def test_bench_batched_matches_solo_loop(benchmark, quick_scenario, model):
    """8-replication workload: one batched launch vs 8 solo runs."""
    cfg = quick_scenario(8, model=model)

    # Warm-up + correctness: the batched lanes are bit-identical to the
    # solo runs, so comparing their walls is apples to apples.
    solo_out = _solo_loop(cfg)
    batch_out = _batched(cfg)
    assert [r.result.throughput_total for r in solo_out] == [
        r.throughput_total for r in batch_out.results
    ]

    # End-to-end walls, both including engine construction. Best-of-2 per
    # side filters one-off scheduler spikes on shared runners.
    def wall(fn):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            fn(cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    solo_wall = wall(_solo_loop)
    batched_wall = wall(_batched)

    benchmark.pedantic(_batched, args=(cfg,), rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = solo_wall / batched_wall
