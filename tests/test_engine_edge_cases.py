"""Engine edge cases: extreme densities, tiny populations, odd geometry."""

from repro import SimulationConfig, build_engine
from repro.types import Group


class TestTinyPopulations:
    def test_single_agent_per_side(self):
        cfg = SimulationConfig(height=16, width=16, n_per_side=1, steps=40, seed=0)
        for engine in ("sequential", "vectorized"):
            eng = build_engine(cfg, engine)
            eng.run(record_timeline=False)
            assert eng.throughput() == 2, engine

    def test_single_agent_aco_deposits(self):
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=1, steps=20, seed=0
        ).with_model("aco")
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        totals = eng.pher.totals()
        # The lone top agent deposited on its own field only.
        assert totals[Group.TOP] != totals[Group.BOTTOM]


class TestSaturatedBands:
    def test_full_band_placement_runs(self):
        """fill_fraction=1: the starting bands are completely solid."""
        cfg = SimulationConfig(
            height=20, width=10, n_per_side=30, steps=30, seed=1,
            fill_fraction=1.0,
        )
        eng = build_engine(cfg, "vectorized")
        first = eng.step()
        # Only the front row can move initially: moves happen but not many.
        assert 0 < first.moved <= 2 * cfg.width
        eng.validate_state()

    def test_very_high_density_no_crash(self):
        cfg = SimulationConfig(
            height=20, width=20, n_per_side=160, steps=40, seed=2,
        ).with_model("aco")
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        eng.validate_state()
        assert eng.env.count(Group.TOP) == 160


class TestGeometry:
    def test_rectangular_grid(self):
        cfg = SimulationConfig(height=40, width=12, n_per_side=30, steps=80, seed=3)
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        for _ in range(80):
            assert seq.step() == vec.step()
        assert seq.state_equals(vec)

    def test_wide_grid(self):
        cfg = SimulationConfig(height=12, width=64, n_per_side=100, steps=30, seed=4)
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        eng.validate_state()

    def test_minimum_grid(self):
        cfg = SimulationConfig(height=4, width=4, n_per_side=2, steps=10, seed=5)
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        eng.validate_state()


class TestCrossBandOverride:
    def test_narrow_cross_band_slows_counting(self):
        base = SimulationConfig(height=32, width=32, n_per_side=60, steps=60, seed=6)
        wide = build_engine(base.replace(cross_band=8), "vectorized")
        narrow = build_engine(base.replace(cross_band=1), "vectorized")
        for _ in range(60):
            wide.step()
            narrow.step()
        # Same dynamics (crossing is bookkeeping only) but counting differs.
        assert wide.env.equals(narrow.env)
        assert wide.throughput() >= narrow.throughput()


class TestDeterminismAcrossRuns:
    def test_engine_restart_reproduces(self, small_aco_config):
        a = build_engine(small_aco_config, "vectorized")
        a.run(steps=25, record_timeline=False)
        b = build_engine(small_aco_config, "vectorized")
        b.run(steps=25, record_timeline=False)
        assert a.state_equals(b)

    def test_step_split_equals_continuous(self, small_config):
        """Running 10+15 steps equals running 25 straight."""
        a = build_engine(small_config, "vectorized")
        a.run(steps=10, record_timeline=False)
        a.run(steps=15, record_timeline=False)
        b = build_engine(small_config, "vectorized")
        b.run(steps=25, record_timeline=False)
        assert a.state_equals(b)
