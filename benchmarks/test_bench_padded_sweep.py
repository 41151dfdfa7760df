"""Padded mixed-scenario batching vs a solo-run loop.

A population sweep with *one seed per scenario* gives every point a
distinct batch key, so the same-shape replication batching of
``test_bench_batched_sweep.py`` cannot fuse any of it — the whole grid
degrades to solo runs. Padded packing relaxes the key: lanes that share
model/engine/scale/steps fuse into one whole-array launch with per-agent
arrays padded to the largest lane (bounded by the waste cap), which
amortises the fixed NumPy dispatch overhead across scenarios of
*different* sizes. This benchmark pins down that the padded plan fuses
such a grid while producing bit-identical records, and records its
wall-clock speedup over the solo loop in ``extra_info["speedup"]``
(~2x observed); the ratio is recorded, not asserted.
"""

import time

import pytest

from repro.experiments.sweep import SweepRunner, sweep_grid

#: Six distinct scenario populations (24..152 total agents at quick scale).
SCENARIOS = (1, 2, 3, 4, 5, 6)


def _points(model):
    return sweep_grid(SCENARIOS, (0,), models=(model,), scale="quick")


@pytest.mark.parametrize("model", ["lem", "aco"])
def test_bench_padded_sweep_matches_solo_loop(benchmark, model):
    """Mixed-scenario grid, 1 seed per point: padded plan vs solo loop."""
    points = _points(model)
    solo_runner = SweepRunner(max_lanes=1)
    padded_runner = SweepRunner(max_lanes=8, pad_lanes=True)

    # The padded plan must actually fuse lanes (same-shape batching cannot
    # fuse this grid at all) ...
    padded_units = padded_runner.plan(points)
    assert all(len(u.seeds) == 1 for u in solo_runner.plan(points))
    assert any(u.points is not None for u in padded_units)
    assert len(padded_units) < len(points)

    # ... and the records stay bit-identical to the solo runs.
    solo_records = solo_runner.run(points)
    padded_records = padded_runner.run(points)
    assert [r.throughput for r in padded_records] == [
        r.throughput for r in solo_records
    ]

    # End-to-end walls, both including planning and engine construction.
    # Best-of-2 per side filters one-off scheduler spikes on shared runners.
    def wall(runner):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            runner.run(points)
            best = min(best, time.perf_counter() - t0)
        return best

    solo_wall = wall(solo_runner)
    padded_wall = wall(padded_runner)

    benchmark.pedantic(padded_runner.run, args=(points,), rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = solo_wall / padded_wall
