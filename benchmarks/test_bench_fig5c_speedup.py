"""Figure 5c — GPU-over-CPU speedup, declining from 18x to ~11x.

Two renditions: the modelled curve at paper scale (asserting the published
anchors and monotone decline), and a measured speedup of the vectorized
engine over the sequential engine on this machine.
"""

import time

import pytest

from repro import build_engine
from repro.cuda import paper_speedup_curve


def test_bench_fig5c_modelled_curve(benchmark):
    counts = list(range(2560, 102401, 2560))
    curve = benchmark(paper_speedup_curve, counts)
    speedups = [s for _, s in curve]
    assert speedups[0] == pytest.approx(17.95, abs=0.3)  # "18x"
    assert speedups[-1] == pytest.approx(11.44, abs=0.3)  # "slightly higher than 11x"
    assert all(a >= b for a, b in zip(speedups, speedups[1:]))


def test_bench_fig5c_measured_speedup(benchmark, quick_scenario):
    """Wall-clock vectorized-vs-sequential ratio on a scaled scenario.

    Scenario 20 carries enough agents for the scalar engine's per-agent
    loop to dominate; smaller scenarios are batched-RNG-bound and the
    ratio dips below 2x (see EXPERIMENTS.md Fig 5c notes). The ratio is
    recorded in ``extra_info["speedup"]``, not asserted; what is asserted
    is that both engines reach the same state.
    """
    cfg = quick_scenario(20, model="aco")
    steps = 20
    engines = {}

    def measure():
        out = {}
        for engine in ("sequential", "vectorized"):
            eng = engines[engine] = build_engine(cfg, engine)
            start = time.perf_counter()
            for _ in range(steps):
                eng.step()
            out[engine] = time.perf_counter() - start
        return out["sequential"] / out["vectorized"]

    benchmark.extra_info["speedup"] = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    assert engines["sequential"].state_equals(engines["vectorized"])
