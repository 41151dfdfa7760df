"""Simulation driver / registry tests."""

import numpy as np
import pytest

from repro import EngineError, SimulationConfig, build_engine, run_simulation
from repro.engine import available_engines


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(available_engines()) == {"sequential", "vectorized"}

    def test_unknown_engine(self, small_config):
        with pytest.raises(EngineError, match="unknown engine"):
            build_engine(small_config, "quantum")

    def test_platform_tags(self, small_config):
        for name, cls in available_engines().items():
            assert cls.platform == name


class TestRun:
    def test_run_respects_step_budget(self, small_config):
        out = run_simulation(small_config, steps=10)
        assert out.result.steps_run == 10
        assert out.result.moved_per_step.shape == (10,)

    def test_run_uses_config_steps_by_default(self, tiny_config):
        out = run_simulation(tiny_config)
        assert out.result.steps_run == tiny_config.steps

    def test_timeline_disabled(self, tiny_config):
        out = run_simulation(tiny_config, record_timeline=False)
        assert out.result.moved_per_step is None

    def test_callback_invoked(self, tiny_config):
        seen = []
        run_simulation(tiny_config, callback=lambda e, r: seen.append(r.step))
        assert seen == list(range(tiny_config.steps))

    def test_throughput_split_consistent(self, small_config):
        out = run_simulation(small_config, steps=40)
        r = out.result
        assert r.throughput_total == r.throughput_top + r.throughput_bottom

    def test_crossings_timeline_sums_to_total(self, small_config):
        out = run_simulation(small_config, steps=40)
        assert out.result.crossings_per_step.sum() == out.result.throughput_total

    def test_wall_time_positive(self, tiny_config):
        out = run_simulation(tiny_config)
        assert out.wall_seconds > 0
        assert out.seconds_per_step > 0

    def test_seed_override(self, tiny_config):
        a = run_simulation(tiny_config, seed=1, steps=15)
        b = run_simulation(tiny_config, seed=1, steps=15)
        c = run_simulation(tiny_config, seed=2, steps=15)
        assert np.array_equal(a.result.moved_per_step, b.result.moved_per_step)
        # Different seeds essentially never produce identical move series.
        assert not np.array_equal(a.result.moved_per_step, c.result.moved_per_step)


class TestCrossingBehaviour:
    def test_low_density_everyone_crosses(self):
        cfg = SimulationConfig(height=32, width=32, n_per_side=30, steps=200, seed=1)
        out = run_simulation(cfg)
        assert out.result.throughput_total == 60

    def test_zero_steps(self, tiny_config):
        out = run_simulation(tiny_config, steps=0)
        assert out.result.steps_run == 0
        assert out.result.throughput_total == 0
