"""Multi-worker service burst vs the serial tick path.

A burst of mutually *incompatible* jobs (distinct step budgets, so no
two share a pad key) cannot be fused by the micro-batching planner — it
degrades to one engine launch per job. On the serial path those
launches run back to back on the tick thread; with ``workers=2`` the
tick submits them all to the persistent :class:`repro.exec.ExecutorPool`
and two run at any moment. This benchmark pins down that the 2-worker
service overlaps the launches of such a >= 4-scenario burst while
returning results bit-identical to ``workers=1``, and records the
serial/2-worker wall ratio in ``extra_info["speedup"]`` (~1.7x on an
idle 2-core machine). The ratio is not asserted: a loaded runner can
push it anywhere, and the bench report archives wall-clock numbers.
"""

import time

from repro import SimulationConfig
from repro.service import SimulationService

#: Four "scenarios": same grid, distinct step budgets => four pad keys,
#: so the planner cannot fuse any pair and the burst is 4 launches.
BURST_STEPS = (300, 310, 320, 330)
WARMUP_STEPS = 40


def _burst_configs(seed_base: int):
    """A 4-scenario burst; ``seed_base`` keeps repeat rounds cache-cold."""
    return [
        SimulationConfig(
            height=48, width=48, n_per_side=200, steps=steps,
            seed=seed_base + k,
        )
        for k, steps in enumerate(BURST_STEPS)
    ]


def _run_burst(svc, seed_base: int):
    """Submit one burst and drain it; returns (throughputs, wall)."""
    jobs = [svc.submit(cfg) for cfg in _burst_configs(seed_base)]
    start = time.perf_counter()
    svc.run_until_idle()
    wall = time.perf_counter() - start
    throughputs = [
        svc.job(j.job_id).result["throughput_total"] for j in jobs
    ]
    return throughputs, wall


def _service(tmp_path, name, workers):
    svc = SimulationService(str(tmp_path / name), workers=workers)
    # Warm up outside the timed region: spawn pool workers, resolve the
    # backend, touch the store — the persistent pool is the steady state
    # being measured, not its cold start.
    svc.submit(
        SimulationConfig(height=24, width=24, n_per_side=16, steps=WARMUP_STEPS)
    )
    svc.run_until_idle()
    return svc


def test_bench_two_worker_burst_beats_serial(benchmark, tmp_path):
    serial = _service(tmp_path, "serial", workers=1)
    multi = _service(tmp_path, "multi", workers=2)
    try:
        # Best-of-2 per side filters one-off scheduler spikes; every
        # round uses fresh seeds so no burst is answered from the cache.
        walls = {"serial": float("inf"), "multi": float("inf")}
        results = {}
        for round_index in range(2):
            seed_base = 100 * round_index
            for name, svc in (("serial", serial), ("multi", multi)):
                throughputs, wall = _run_burst(svc, seed_base)
                walls[name] = min(walls[name], wall)
                results[name] = throughputs
        assert results["serial"] == results["multi"]  # bit-identity

        stats = multi.stats_dict()
        assert stats["peak_concurrent_launches"] >= 2
        assert stats["failed"] == 0

        benchmark.pedantic(
            _run_burst, args=(multi, 1000), rounds=1, iterations=1
        )
        benchmark.extra_info["speedup"] = walls["serial"] / walls["multi"]
    finally:
        serial.close()
        multi.close()
