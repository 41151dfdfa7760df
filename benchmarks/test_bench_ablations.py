"""Ablation benchmarks for the design choices DESIGN.md calls out.

* forward priority (the paper's stated modification of [18]) on vs off,
* the LEM selection rule reading ("floor" = may wait, "ceil" = always move),
* pheromone evaporation rate sweep (eq. 3's rho), and
* the engine equivalence guard run as a benchmark.
"""

import pytest

from repro import SimulationConfig, run_simulation
from repro.models import ACOParams, LEMParams


def _throughput(cfg, engine="vectorized", seed=0):
    return run_simulation(cfg, engine=engine, seed=seed, record_timeline=False).result.throughput_total


class TestForwardPriority:
    def test_bench_forward_priority(self, benchmark, quick_scenario):
        """Forward priority should help (or at least not hurt) free flow."""
        base = quick_scenario(6, model="lem")

        def run_pair():
            on = _throughput(base.replace(forward_priority=True))
            off = _throughput(base.replace(forward_priority=False))
            return on, off

        on, off = benchmark.pedantic(run_pair, rounds=1, iterations=1)
        assert on >= off


class TestLEMRule:
    def test_bench_lem_rule(self, benchmark, quick_scenario):
        """The 'ceil' (always-move) reading keeps medium density flowing —
        the floor/wait reading is what reproduces the paper's jams."""
        cfg = quick_scenario(14, model="lem")

        def run_pair():
            floor = _throughput(cfg.replace(params=LEMParams(rule="floor")))
            ceil = _throughput(cfg.replace(params=LEMParams(rule="ceil")))
            return floor, ceil

        floor, ceil = benchmark.pedantic(run_pair, rounds=1, iterations=1)
        assert ceil > floor


class TestEvaporationSweep:
    @pytest.mark.parametrize("rho", [0.005, 0.02, 0.2])
    def test_bench_rho(self, benchmark, quick_scenario, rho):
        """Eq. 3 sensitivity: throughput at the knee for three rho values."""
        cfg = quick_scenario(14, model="aco").replace(
            params=ACOParams(rho=rho)
        )
        throughput = benchmark.pedantic(
            _throughput, args=(cfg,), rounds=1, iterations=1
        )
        # The knee scenario must stay mostly flowing for any sane rho.
        assert throughput >= 0.5 * cfg.total_agents


class TestBottleneckGap:
    def test_bench_gap_sweep(self, benchmark):
        """Obstacle extension: narrower gaps throttle throughput."""
        from repro import ObstacleSpec, SimulationConfig

        def run_gaps():
            out = {}
            for gap in (2, 8, 24):
                cfg = SimulationConfig(
                    height=48, width=48, n_per_side=100, steps=250, seed=4,
                    obstacles=ObstacleSpec("bottleneck", gap=gap),
                ).with_model("aco")
                out[gap] = _throughput(cfg)
            return out

        out = benchmark.pedantic(run_gaps, rounds=1, iterations=1)
        assert out[2] < out[8] <= out[24]


class TestScanRangeAblation:
    def test_bench_scan_range(self, benchmark, quick_scenario):
        """Section VII extension: longer look-ahead at the knee density."""
        base = quick_scenario(14, model="aco")

        def run_ranges():
            return {
                r: _throughput(base.replace(params=ACOParams(scan_range=r)))
                for r in (1, 4)
            }

        out = benchmark.pedantic(run_ranges, rounds=1, iterations=1)
        # Both must keep the knee flowing; the exact ordering is reported,
        # not asserted (look-ahead changes lane micro-structure).
        assert min(out.values()) >= 0.7 * base.total_agents


class TestBaselinePolicies:
    def test_bench_policy_spectrum_at_knee(self, benchmark, quick_scenario):
        """All four policies at the Fig 6a knee density.

        Findings this bench pins down (see EXPERIMENTS.md):

        * the waiting LEM is the clear loser at the knee (the paper's
          result), while the always-moving policies (ACO *and* the uniform
          random sidestep) keep the crowd flowing — with forward priority,
          random sidesteps are already a strong jam-dissolver;
        * the deterministic greedy policy crosses fastest at low density
          but is not jam-robust.
        """
        cfg = quick_scenario(14)

        def run_all():
            return {
                m: _throughput(cfg.with_model(m))
                for m in ("lem", "aco", "random", "greedy")
            }

        out = benchmark.pedantic(run_all, rounds=1, iterations=1)
        assert out["aco"] > out["lem"]
        assert out["random"] > out["lem"]
        assert out["aco"] >= 0.9 * cfg.total_agents
