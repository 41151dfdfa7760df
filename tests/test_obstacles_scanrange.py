"""Tests for the obstacle layouts and the extended scanning range."""

import numpy as np
import pytest

from repro import ObstacleSpec, SimulationConfig, build_engine
from repro.errors import ConfigurationError
from repro.grid import DistanceTable, bottleneck_mask, pillars_mask, rects_mask
from repro.models import ACOParams, LEMParams
from repro.types import CellState, Group


class TestObstacleMasks:
    def test_bottleneck_geometry(self):
        mask = bottleneck_mask(20, 16, gap=4)
        row = mask[10]
        assert row.sum() == 12
        assert not row[6:10].any()  # the gap is open and centred

    def test_bottleneck_thickness(self):
        mask = bottleneck_mask(20, 16, gap=4, thickness=3, wall_row=8)
        assert mask[8:11].any(axis=1).all()
        assert not mask[7].any() and not mask[11].any()

    def test_bottleneck_validation(self):
        with pytest.raises(ConfigurationError):
            bottleneck_mask(20, 16, gap=0)
        with pytest.raises(ConfigurationError):
            bottleneck_mask(20, 16, gap=4, wall_row=19, thickness=3)

    def test_pillars_stay_in_band(self):
        mask = pillars_mask(40, 40, spacing=8, size=2, band=0.5)
        rows = np.nonzero(mask.any(axis=1))[0]
        assert rows.min() >= 10 and rows.max() < 30
        assert mask.sum() > 0

    def test_rects(self):
        mask = rects_mask(10, 10, ((1, 1, 3, 4),))
        assert mask.sum() == 6
        with pytest.raises(ConfigurationError):
            rects_mask(10, 10, ((5, 5, 4, 6),))

    def test_spec_build_and_validate(self):
        spec = ObstacleSpec("bottleneck", gap=6)
        mask = spec.build(32, 32)
        assert mask.any()
        with pytest.raises(ConfigurationError):
            ObstacleSpec("moat").validate()
        with pytest.raises(ConfigurationError):
            ObstacleSpec("rects").validate()


class TestObstacleSimulation:
    def _cfg(self, **kw):
        defaults = dict(
            height=32, width=32, n_per_side=60, steps=60, seed=7,
            obstacles=ObstacleSpec("bottleneck", gap=6),
        )
        defaults.update(kw)
        return SimulationConfig(**defaults)

    def test_agents_never_enter_obstacles(self):
        eng = build_engine(self._cfg(), "vectorized")
        wall = eng.env.obstacle_mask().copy()
        for _ in range(60):
            eng.step()
            assert np.array_equal(eng.env.obstacle_mask(), wall)
            rows = eng.pop.rows[1:]
            cols = eng.pop.cols[1:]
            assert not wall[rows, cols].any()
        eng.validate_state()

    def test_equivalence_with_obstacles(self):
        cfg = self._cfg().with_model("aco")
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        for _ in range(40):
            assert seq.step() == vec.step()
        assert seq.state_equals(vec)

    def test_bottleneck_reduces_throughput(self):
        open_cfg = self._cfg(obstacles=None)
        narrow = self._cfg(obstacles=ObstacleSpec("bottleneck", gap=2))
        t_open = build_engine(open_cfg, "vectorized")
        t_narrow = build_engine(narrow, "vectorized")
        t_open.run(record_timeline=False)
        t_narrow.run(record_timeline=False)
        assert t_narrow.throughput() < t_open.throughput()

    def test_placement_avoids_obstacles_in_band(self):
        cfg = self._cfg(
            obstacles=ObstacleSpec("rects", rects=((0, 0, 2, 16),)),
            n_per_side=30,
        )
        eng = build_engine(cfg, "vectorized")
        assert (eng.env.mat[:2, :16] == CellState.OBSTACLE).all()
        eng.validate_state()

    def test_overlapping_obstacles_rejected(self):
        env_cfg = self._cfg(n_per_side=200, obstacles=None, fill_fraction=1.0)
        eng = build_engine(env_cfg, "vectorized")
        with pytest.raises(ValueError, match="overlaps"):
            eng.env.add_obstacles(np.ones((32, 32), dtype=bool))

    def test_config_type_checked(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(obstacles="wall")


class TestScanRange:
    def test_default_matches_paper_table(self):
        base = DistanceTable(50, Group.TOP)
        extended = DistanceTable(50, Group.TOP, scan_range=1)
        assert np.array_equal(base.table, extended.table)

    def test_lookahead_row_distance(self):
        table = DistanceTable(50, Group.TOP, scan_range=3)
        # Forward slot looks 3 rows ahead: distance shrinks by 3.
        assert table.distance(20, 1) == pytest.approx(49 - 23)

    def test_ordering_preserved(self):
        for r in (1, 2, 4):
            table = DistanceTable(60, Group.BOTTOM, scan_range=r).table
            mid = table[30]
            assert mid[0] < mid[1] == mid[2] < mid[3] == mid[4] < mid[5]

    def test_clamped_at_edges(self):
        table = DistanceTable(20, Group.TOP, scan_range=10)
        # Near the target the look-ahead clamps to the end row.
        assert np.isfinite(table.distance(17, 1))

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            LEMParams(scan_range=0).validate()
        with pytest.raises(ConfigurationError):
            ACOParams(scan_range=40).validate()

    def test_engine_uses_scan_range(self):
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=40, steps=5, seed=1,
            params=ACOParams(scan_range=4),
        )
        # The reference engine exposes its distance tables; the whole-array
        # engines match it step for step (test_equivalence_with_scan_range).
        eng = build_engine(cfg, "sequential")
        assert eng.dist[Group.TOP].scan_range == 4

    def test_scan_range_changes_behaviour(self):
        base = SimulationConfig(height=32, width=32, n_per_side=120, steps=50, seed=3)
        near = build_engine(base.replace(params=ACOParams(scan_range=1)), "vectorized")
        far = build_engine(base.replace(params=ACOParams(scan_range=6)), "vectorized")
        near.run(record_timeline=False)
        far.run(record_timeline=False)
        assert not near.env.equals(far.env)

    def test_equivalence_with_scan_range(self):
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=60, steps=30, seed=9,
            params=ACOParams(scan_range=3),
        )
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        for _ in range(30):
            assert seq.step() == vec.step()
        assert seq.state_equals(vec)

    def test_swap_model_rebuilds_tables(self):
        cfg = SimulationConfig(height=32, width=32, n_per_side=40, steps=5, seed=1)
        eng = build_engine(cfg, "sequential")
        assert eng.dist[Group.TOP].scan_range == 1
        eng.swap_model(LEMParams(scan_range=5))
        assert eng.dist[Group.TOP].scan_range == 5
        eng.step()  # the refreshed scalar cache must be consistent
        eng.validate_state()