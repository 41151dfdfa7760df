"""BatchedTiledEngine: tile-decomposed whole-batch stepping, bit-exact.

The batched tiled engine stacks every replication's grid behind the
tile loop, so each shared-memory tile pass covers all B lanes (and both
movement groups) in one set of launches. The contract is the same as
every other engine pairing in this repo: trajectories must be
bit-identical — to the flat :class:`BatchedEngine`, to solo
:class:`TiledEngine` (one-lane) runs, to the sequential reference, and to
the seed golden throughputs.
"""

import numpy as np
import pytest

from repro import SimulationConfig
from repro.cuda import BatchedTiledEngine, TiledEngine
from repro.engine import BatchedEngine, build_engine, run_batched
from repro.errors import LaunchConfigError
from repro.types import Group


def _config(model: str, seed: int = 0, height: int = 32) -> SimulationConfig:
    return SimulationConfig(
        height=height, width=32, n_per_side=24, steps=25, seed=seed
    ).with_model(model)


def _assert_lane_matches_solo_and_sequential(batched, lane, cfg, seed):
    """A lane equals a one-lane TiledEngine run and the sequential reference."""
    solo = TiledEngine(cfg, seed=seed)
    solo.run(record_timeline=False)
    seq = build_engine(cfg, "sequential", seed=seed)
    seq.run(record_timeline=False)
    assert solo.state_equals(seq)
    assert batched.lane_environment(lane).equals(seq.env)
    assert batched.lane_population(lane).equals(seq.pop)


def _assert_batches_equal(a, b):
    """Every lane of two batched engines holds identical end state."""
    assert a.n_lanes == b.n_lanes
    for lane in range(a.n_lanes):
        assert a.lane_environment(lane).equals(b.lane_environment(lane))
        assert a.lane_population(lane).equals(b.lane_population(lane))
        for group in (Group.TOP, Group.BOTTOM):
            pa = a.lane_pheromone(lane, group)
            pb = b.lane_pheromone(lane, group)
            if pa is None:
                assert pb is None
            else:
                np.testing.assert_array_equal(pa, pb)


class TestBatchedTiledEquivalence:
    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_matches_flat_batched_engine(self, model):
        seeds = (0, 1, 2, 3)
        cfg = _config(model)
        tiled = BatchedTiledEngine(cfg, seeds=seeds)
        flat = BatchedEngine(cfg, seeds=seeds)
        r_tiled = tiled.run(record_timeline=True)
        r_flat = flat.run(record_timeline=True)
        for got, want in zip(r_tiled, r_flat):
            assert got.throughput_total == want.throughput_total
            np.testing.assert_array_equal(got.moved_per_step, want.moved_per_step)
            np.testing.assert_array_equal(
                got.crossings_per_step, want.crossings_per_step
            )
        _assert_batches_equal(tiled, flat)

    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_lanes_match_solo_tiled_engine(self, model):
        seeds = (0, 5)
        cfg = _config(model)
        batched = BatchedTiledEngine(cfg, seeds=seeds)
        batched.run(record_timeline=False)
        for lane, seed in enumerate(seeds):
            _assert_lane_matches_solo_and_sequential(batched, lane, cfg, seed)

    def test_padded_heterogeneous_lanes(self):
        """Lanes of different grid heights stay solo-exact under tiling."""
        configs = [
            _config("lem", 0, height=32),
            _config("lem", 1, height=48),
        ]
        seeds = (0, 1)
        batched = BatchedTiledEngine(configs, seeds=seeds)
        batched.run(record_timeline=False)
        for lane, (cfg, seed) in enumerate(zip(configs, seeds)):
            _assert_lane_matches_solo_and_sequential(batched, lane, cfg, seed)

    def test_lanes_match_seed_golden_throughputs(self):
        """The golden scenario from test_backend_parity, batched-tiled."""
        golden = {0: 55, 3: 49}  # (lem, seed) -> seed-tree throughput
        seeds = tuple(golden)
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=48, steps=40
        ).with_model("lem")
        eng = BatchedTiledEngine(cfg, seeds=seeds)
        eng.run(record_timeline=False)
        for lane, seed in enumerate(seeds):
            assert eng.throughput(lane) == golden[seed]


class TestBatchedTiledAPI:
    def test_platform_name(self):
        eng = BatchedTiledEngine(_config("lem"), seeds=(0,))
        assert eng.platform == "batched_tiled"

    def test_run_batched_engine_selector(self):
        cfg = _config("aco")
        seeds = (0, 1)
        via_tiled = run_batched(cfg, seeds, engine="tiled", record_timeline=True)
        via_flat = run_batched(cfg, seeds, record_timeline=True)
        for got, want in zip(via_tiled.results, via_flat.results):
            assert got.throughput_total == want.throughput_total
            np.testing.assert_array_equal(got.moved_per_step, want.moved_per_step)

    def test_run_batched_rejects_unknown_engine(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="unknown"):
            run_batched(_config("lem"), (0,), engine="warp")

    def test_rejects_indivisible_grid(self):
        cfg = _config("lem").replace(height=30)
        with pytest.raises(LaunchConfigError, match="tile"):
            BatchedTiledEngine(cfg, seeds=(0,))

    def test_rejects_indivisible_lane_in_mixed_batch(self):
        configs = [_config("lem", 0), _config("lem", 1).replace(width=20)]
        with pytest.raises(LaunchConfigError, match="tile"):
            BatchedTiledEngine(configs, seeds=(0, 1))
