"""Batched-vs-solo equivalence: every lane of a :class:`BatchedEngine`
must be bit-identical to a solo :class:`SequentialEngine` run with the
same config and seed — trajectories, pheromone fields, crossing
bookkeeping and per-step throughput series alike. Holds for homogeneous
batches (shared config, distinct seeds) and for padded heterogeneous
batches (per-lane configs differing in population and grid shape)."""

import numpy as np
import pytest

from repro import SimulationConfig
from repro.engine import BatchedEngine, build_engine, run_batched
from repro.errors import EngineError
from repro.grid import build_distance_tables, offsets_array
from repro.models import GreedyParams, LEMParams, aco_numerators
from repro.rng import BatchedPhiloxRNG, PhiloxKeyedRNG, RaggedLaneRNG, Stream
from repro.types import Group


def _solo_run(cfg, seed, steps=None):
    # The sequential reference: the solo "vectorized" engine is itself a
    # one-lane BatchedEngine, so comparing against it would be circular.
    eng = build_engine(cfg, engine="sequential", seed=seed)
    result = eng.run(steps=steps, record_timeline=True)
    return eng, result


def _assert_lane_matches_solo(batched, lane, solo_engine):
    assert batched.lane_environment(lane).equals(solo_engine.env)
    assert batched.lane_population(lane).equals(solo_engine.pop)
    if solo_engine.pher is None:
        assert batched.lane_pheromone(lane, Group.TOP) is None
    else:
        for group in (Group.TOP, Group.BOTTOM):
            assert np.array_equal(
                batched.lane_pheromone(lane, group), solo_engine.pher.field(group)
            )


class TestBatchedRNG:
    """The per-lane keys reproduce the solo Philox streams exactly."""

    def test_words_match_solo_per_seed(self):
        seeds = (0, 7, 2**40 + 3)
        batched = BatchedPhiloxRNG(seeds)
        lanes = np.arange(33, dtype=np.uint64)
        got = batched.words(Stream.LEM_SELECT, step=5, lane=lanes)
        for b, seed in enumerate(seeds):
            solo = PhiloxKeyedRNG(seed).words(Stream.LEM_SELECT, 5, lanes)
            assert np.array_equal(got[:, b, :], solo)

    def test_normal12_and_uniform_match_solo(self):
        seeds = (11, 13)
        batched = BatchedPhiloxRNG(seeds)
        lanes = np.arange(17, dtype=np.uint64)
        for b, seed in enumerate(seeds):
            solo = PhiloxKeyedRNG(seed)
            assert np.array_equal(
                batched.uniform(Stream.ACO_SELECT, 3, lanes)[b],
                solo.uniform(Stream.ACO_SELECT, 3, lanes),
            )
            assert np.array_equal(
                batched.normal12(Stream.LEM_SELECT, 9, lanes)[b],
                solo.normal12(Stream.LEM_SELECT, 9, lanes),
            )

    def test_scattered_draws_match_solo(self):
        seeds = (21, 22)
        batched = BatchedPhiloxRNG(seeds)
        rep = np.array([0, 1, 1, 0])
        lane = np.array([4, 4, 9, 9], dtype=np.uint64)
        got = batched.uniform_at(Stream.MOVE_WINNER, 2, rep, lane)
        for i in range(4):
            solo = PhiloxKeyedRNG(seeds[rep[i]]).uniform(
                Stream.MOVE_WINNER, 2, np.uint64(lane[i])
            )
            assert got[i] == solo[0]

    def test_ragged_view_matches_grid(self):
        batched = BatchedPhiloxRNG((5, 6, 7))
        lanes = np.arange(1, 11, dtype=np.uint64)
        grid = batched.uniform(Stream.TIEBREAK, 4, lanes)
        ragged = batched.ragged(np.repeat(np.arange(3), 10)).uniform(
            Stream.TIEBREAK, 4, np.tile(lanes, 3)
        )
        assert np.array_equal(grid.ravel(), ragged)

    def test_rejects_bad_shapes(self):
        batched = BatchedPhiloxRNG((1, 2))
        with pytest.raises(ValueError):
            batched.words(Stream.TIEBREAK, 0, np.zeros((3, 4), dtype=np.uint64))
        with pytest.raises(ValueError):
            batched.ragged(np.zeros(4)).uniform(
                Stream.TIEBREAK, 0, np.zeros(5, dtype=np.uint64)
            )
        with pytest.raises(ValueError):
            BatchedPhiloxRNG(())

    def test_ragged_view_matches_solo(self):
        """Ragged member counts per replication key each element correctly."""
        seeds = (5, 6, 7)
        batched = BatchedPhiloxRNG(seeds)
        rep = np.array([0, 0, 0, 1, 2, 2])  # 3, 1 and 2 members
        lanes = np.array([1, 2, 3, 1, 1, 2], dtype=np.uint64)
        ragged = batched.ragged(rep)
        got_u = ragged.uniform(Stream.ACO_SELECT, 4, lanes)
        got_n = ragged.normal12(Stream.LEM_SELECT, 4, lanes)
        for i in range(rep.size):
            solo = PhiloxKeyedRNG(seeds[rep[i]])
            lane = np.uint64(lanes[i])
            assert got_u[i] == solo.uniform(Stream.ACO_SELECT, 4, lane)[0]
            assert got_n[i] == solo.normal12(Stream.LEM_SELECT, 4, lane)[0]

    def test_ragged_subset_matches_full_view(self):
        """A subset view draws exactly the full view's elements at ``rows``."""
        batched = BatchedPhiloxRNG((5, 6, 7))
        rep = np.array([0, 0, 1, 2, 2, 2])
        lanes = np.array([1, 2, 1, 1, 2, 3], dtype=np.uint64)
        full = batched.ragged(rep)
        rows = np.array([1, 3, 5])
        sub = full.subset(rows)
        assert isinstance(sub, RaggedLaneRNG)
        assert np.array_equal(
            sub.normal12(Stream.LEM_SELECT, 2, lanes[rows]),
            full.normal12(Stream.LEM_SELECT, 2, lanes)[rows],
        )
        assert sub.subset(np.array([], dtype=np.intp)).uniform(
            Stream.ACO_SELECT, 2, np.zeros(0, dtype=np.uint64)
        ).shape == (0,)

    def test_ragged_view_rejects_misaligned_lanes(self):
        batched = BatchedPhiloxRNG((1, 2))
        ragged = batched.ragged(np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            ragged.uniform(Stream.TIEBREAK, 0, np.zeros(2, dtype=np.uint64))
        with pytest.raises(ValueError):
            batched.ragged(np.array([0, 2]))  # rep out of range
        assert isinstance(ragged, RaggedLaneRNG)


class TestBatchedEquivalence:
    """Lane-for-lane trajectory equality with solo sequential runs."""

    @pytest.mark.parametrize("model", ["lem", "aco"])
    @pytest.mark.parametrize("seeds", [(3,), (0, 11, 42)])
    def test_lanes_bit_identical(self, small_config, model, seeds):
        cfg = small_config.with_model(model)
        batched = BatchedEngine(cfg, seeds)
        results = batched.run(record_timeline=True)
        batched.validate_state()
        for lane, seed in enumerate(seeds):
            solo_engine, solo_result = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)
            lane_result = results[lane]
            assert lane_result.seed == seed
            assert lane_result.throughput_total == solo_result.throughput_total
            assert lane_result.throughput_top == solo_result.throughput_top
            assert lane_result.throughput_bottom == solo_result.throughput_bottom
            assert np.array_equal(
                lane_result.moved_per_step, solo_result.moved_per_step
            )
            assert np.array_equal(
                lane_result.crossings_per_step, solo_result.crossings_per_step
            )

    @pytest.mark.parametrize("model", ["random", "greedy"])
    def test_baseline_policies_bit_identical(self, tiny_config, model):
        cfg = tiny_config.with_model(model)
        seeds = (1, 9)
        batched = BatchedEngine(cfg, seeds)
        batched.run(record_timeline=False)
        for lane, seed in enumerate(seeds):
            solo_engine, _ = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)

    def test_slow_agents_extension_batched(self, tiny_config):
        cfg = tiny_config.replace(slow_fraction=0.5, slow_period=3)
        seeds = (2, 5)
        batched = BatchedEngine(cfg, seeds)
        batched.run(record_timeline=False)
        for lane, seed in enumerate(seeds):
            solo_engine, _ = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)

    def test_lane_order_does_not_matter(self, tiny_config):
        """A lane's trajectory is independent of its batch neighbours."""
        a = BatchedEngine(tiny_config, (4, 8))
        b = BatchedEngine(tiny_config, (8, 4, 15))
        a.run(record_timeline=False)
        b.run(record_timeline=False)
        assert a.lane_environment(1).equals(b.lane_environment(0))
        assert a.lane_population(1).equals(b.lane_population(0))

    def test_stepwise_equivalence(self, tiny_config):
        """Per-step reports match the solo engine's step reports."""
        seeds = (6, 7)
        batched = BatchedEngine(tiny_config, seeds)
        solos = [
            build_engine(tiny_config, engine="sequential", seed=s) for s in seeds
        ]
        for _ in range(10):
            report = batched.step()
            for lane, solo in enumerate(solos):
                solo_report = solo.step()
                assert report.decided[lane] == solo_report.decided
                assert report.moved[lane] == solo_report.moved
                assert report.new_crossings[lane] == solo_report.new_crossings
        batched.validate_state()


class TestBatchedEngineAPI:
    def test_requires_seeds(self, tiny_config):
        with pytest.raises(EngineError):
            BatchedEngine(tiny_config, ())

    def test_rejects_duplicate_seeds(self, tiny_config):
        with pytest.raises(EngineError):
            BatchedEngine(tiny_config, (3, 3))

    def test_single_lane_batch(self, tiny_config):
        batched = BatchedEngine(tiny_config, (12,))
        results = batched.run(record_timeline=True)
        assert len(results) == 1
        solo_engine, solo_result = _solo_run(tiny_config, 12)
        _assert_lane_matches_solo(batched, 0, solo_engine)
        assert results[0].throughput_total == solo_result.throughput_total
        # The solo "vectorized" engine is this one-lane batch; its env/pop
        # are live views of lane 0.
        vec = build_engine(tiny_config, engine="vectorized", seed=12)
        assert isinstance(vec, BatchedEngine) and vec.n_lanes == 1
        assert vec.run().throughput_total == solo_result.throughput_total
        assert np.shares_memory(vec.env.mat, vec.mats)
        assert np.shares_memory(vec.pop.rows, vec.rows)
        assert vec.lane_environment(0).equals(vec.env)
        assert vec.lane_population(0).equals(vec.pop)

    def test_run_batched_helper(self, tiny_config):
        out = run_batched(tiny_config, (0, 1), record_timeline=False)
        assert out.n_lanes == 2
        assert out.seeds == (0, 1)
        assert out.wall_seconds > 0
        assert out.wall_seconds_per_lane == pytest.approx(out.wall_seconds / 2)
        assert all(r.platform == "batched" for r in out.results)

    def test_zero_steps(self, tiny_config):
        out = run_batched(tiny_config, (0, 1), steps=0)
        assert all(r.steps_run == 0 for r in out.results)
        assert all(r.moved_per_step.size == 0 for r in out.results)

    def test_obstacles_batched(self, tiny_config):
        from repro import ObstacleSpec

        cfg = tiny_config.replace(obstacles=ObstacleSpec("bottleneck", gap=6))
        seeds = (3, 14)
        batched = BatchedEngine(cfg, seeds)
        batched.run(record_timeline=False)
        for lane, seed in enumerate(seeds):
            solo_engine, _ = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)


def _mixed_configs(model, steps=20):
    """Three lanes differing in population *and* grid shape."""
    return [
        c.with_model(model)
        for c in (
            SimulationConfig(height=16, width=16, n_per_side=12, steps=steps),
            SimulationConfig(height=16, width=16, n_per_side=6, steps=steps),
            SimulationConfig(height=24, width=20, n_per_side=30, steps=steps),
        )
    ]


class TestPaddedHeterogeneousLanes:
    """Mixed-scenario padded batches stay bit-identical lane-for-lane."""

    @pytest.mark.parametrize("model", ["lem", "aco"])
    @pytest.mark.parametrize("seeds", [(0, 0, 0), (3, 1, 4)])
    def test_mixed_lanes_bit_identical(self, model, seeds):
        configs = _mixed_configs(model)
        batched = BatchedEngine(configs, seeds)
        assert batched.padded_fraction > 0.0
        results = batched.run(record_timeline=True)
        batched.validate_state()
        for lane, (cfg, seed) in enumerate(zip(configs, seeds)):
            solo_engine, solo_result = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)
            assert batched.lane_config(lane) == cfg
            lane_result = results[lane]
            assert lane_result.seed == seed
            assert lane_result.throughput_total == solo_result.throughput_total
            assert np.array_equal(
                lane_result.moved_per_step, solo_result.moved_per_step
            )
            assert np.array_equal(
                lane_result.crossings_per_step, solo_result.crossings_per_step
            )

    def test_padding_slots_stay_inert(self):
        """Masked padding slots never scan, decide, move, deposit or cross."""
        configs = _mixed_configs("aco")
        batched = BatchedEngine(configs, (0, 1, 2))
        stage = batched._stage_move
        handed = []

        def spy(t, movers):
            # Every move select hands over starts on a live agent of the
            # mover's own lane.
            lane, _code, cell = movers
            agent = batched._index_p.reshape(-1)[cell]
            handed.append(lane.size)
            assert np.all(batched.active[lane, agent])
            return stage(t, movers)

        batched._stage_move = spy
        for _ in range(10):
            batched.step()
            for lane, cfg in enumerate(configs):
                pad = ~batched.active[lane]
                pad[0] = False
                assert not np.any(batched.ids[lane, pad])
                assert not np.any(batched.crossed[lane, pad])
                assert np.all(batched.tour[lane, pad] == 0.0)
                # Grid padding keeps its obstacle sentinel, so no agent
                # index can ever appear outside the lane's real region.
                assert not np.any(batched.index[lane, cfg.height :, :])
                assert not np.any(batched.index[lane, :, cfg.width :])
                assert int(batched.index[lane].max()) <= int(
                    batched.lane_agents[lane]
                )
        assert sum(handed) > 0
        batched.validate_state()

    @pytest.mark.parametrize(
        "grid, cell, value, engine",
        [
            ("_mats_p", (1, 0, 5), 0, "batched"),  # lane 1's top halo row
            ("_mats_p", (0, 9, 17), 0, "batched"),  # lane 0's right halo column
            ("_index_p", (2, 25, 3), 7, "batched"),  # lane 2's bottom halo row
            ("_index_p", (1, 4, 0), 1, "batched"),  # lane 1's left halo column
            # The solo whole-array engine is a one-lane batch with the
            # same halo (16x16 grid: padded rows and columns 0 and 17).
            ("_mats_p", (0, 0, 5), 0, "vectorized"),  # top halo row
            ("_index_p", (0, 9, 17), 1, "vectorized"),  # right halo column
        ],
    )
    def test_validate_state_guards_the_halo(self, grid, cell, value, engine):
        """Halo cells must hold the obstacle sentinel and no agent index."""
        if engine == "batched":
            batched = BatchedEngine(_mixed_configs("lem"), (0, 1, 2))
        else:
            batched = build_engine(_mixed_configs("lem")[0], engine, seed=0)
        batched.step()
        batched.validate_state()
        getattr(batched, grid)[cell] = value
        with pytest.raises(AssertionError, match="halo"):
            batched.validate_state()

    def test_lane_composition_does_not_matter(self):
        """A lane's trajectory is independent of its padded neighbours."""
        big = SimulationConfig(height=24, width=24, n_per_side=40, steps=20)
        small = SimulationConfig(height=16, width=16, n_per_side=8, steps=20)
        a = BatchedEngine([small, big], (4, 8))
        b = BatchedEngine([big, small, small], (8, 11, 4))
        a.run(record_timeline=False)
        b.run(record_timeline=False)
        assert a.lane_environment(1).equals(b.lane_environment(0))
        assert a.lane_population(1).equals(b.lane_population(0))
        assert a.lane_environment(0).equals(b.lane_environment(2))
        assert a.lane_population(0).equals(b.lane_population(2))

    def test_mixed_extension_knobs(self, tiny_config):
        """Per-lane forward_priority / slow-class settings stay solo-exact."""
        configs = [
            tiny_config,
            tiny_config.replace(forward_priority=False),
            tiny_config.replace(slow_fraction=0.5, slow_period=3),
        ]
        seeds = (2, 2, 5)
        batched = BatchedEngine(configs, seeds)
        batched.run(record_timeline=False)
        for lane, (cfg, seed) in enumerate(zip(configs, seeds)):
            solo_engine, _ = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)

    def test_mixed_obstacles(self, tiny_config):
        from repro import ObstacleSpec

        configs = [
            tiny_config.replace(obstacles=ObstacleSpec("bottleneck", gap=6)),
            tiny_config.replace(n_per_side=8),
        ]
        seeds = (3, 3)
        batched = BatchedEngine(configs, seeds)
        batched.run(record_timeline=False)
        for lane, (cfg, seed) in enumerate(zip(configs, seeds)):
            solo_engine, _ = _solo_run(cfg, seed)
            _assert_lane_matches_solo(batched, lane, solo_engine)

    def test_rejects_duplicate_config_seed_pairs(self, tiny_config):
        with pytest.raises(EngineError):
            BatchedEngine([tiny_config, tiny_config], (3, 3))
        # Same seed under different configs is a valid heterogeneous batch.
        BatchedEngine([tiny_config, tiny_config.replace(n_per_side=8)], (3, 3))

    def test_rejects_incompatible_lanes(self, tiny_config):
        with pytest.raises(EngineError):
            BatchedEngine([tiny_config, tiny_config.with_model("aco")], (0, 1))
        with pytest.raises(EngineError):
            BatchedEngine([tiny_config, tiny_config.replace(steps=7)], (0, 1))
        with pytest.raises(EngineError):
            BatchedEngine([tiny_config], (0, 1))  # one config per lane

    def test_run_batched_heterogeneous_result(self, tiny_config):
        configs = [tiny_config, tiny_config.replace(n_per_side=8)]
        out = run_batched(configs, (0, 0), record_timeline=False)
        assert out.config is None  # no single shared config
        assert out.configs == tuple(configs)
        assert out.n_lanes == 2
        homo = run_batched(tiny_config, (0, 1), record_timeline=False)
        assert homo.config == tiny_config
        assert homo.configs == (tiny_config, tiny_config)


def _blocked_agents(engine, lane):
    """Agents of ``lane`` whose forward cell is an obstacle, an agent or
    off the grid, read from the lane's host state."""
    env = engine.lane_environment(lane)
    pop = engine.lane_population(lane)
    h, w = env.shape
    blocked = []
    for a in range(1, pop.n_agents + 1):
        dr, dc = offsets_array(Group(int(pop.ids[a])))[0]
        r, c = int(pop.rows[a]) + dr, int(pop.cols[a]) + dc
        if not (0 <= r < h and 0 <= c < w and env.mat[r, c] == 0):
            blocked.append(a)
    return blocked


def _movable_agents(engine, lane):
    """Agents of ``lane`` with at least one empty neighbour cell, read from
    the lane's host state."""
    env = engine.lane_environment(lane)
    pop = engine.lane_population(lane)
    h, w = env.shape
    movable = set()
    for a in range(1, pop.n_agents + 1):
        r0, c0 = int(pop.rows[a]), int(pop.cols[a])
        for dr, dc in offsets_array(Group(int(pop.ids[a]))):
            r, c = r0 + dr, c0 + dc
            if 0 <= r < h and 0 <= c < w and env.mat[r, c] == 0:
                movable.add(a)
                break
    return movable


def _spy_select(engine):
    """Record each ``model.select`` call as a list of (lane, agent) rows."""
    calls = []
    select = engine.model.select

    def spy(scan, rng, step, lanes):
        calls.append(sorted(zip(rng._rep.tolist(), lanes.tolist())))
        return select(scan, rng, step, lanes)

    engine.model.select = spy
    return calls


class TestForwardFirstSelect:
    """Only rows that decide and can move reach eq. 1 / eq. 2 and the RNG:
    a row whose lane has forward priority and whose forward cell is empty
    takes slot 0, and a deciding row with no empty neighbour takes -1,
    both with no model call."""

    def _step_and_check(self, engine, seqs, calls, deciding):
        """One step of ``engine`` against per-lane sequential runs. The rows
        select saw must be the ``deciding(lane)`` rows with an empty
        neighbour; returns them and the number of deciding rows without
        one (stuck rows)."""
        expected, stuck = [], 0
        for lane in range(engine.n_lanes):
            movable = _movable_agents(engine, lane)
            rows = list(deciding(lane))
            expected += [(lane, a) for a in rows if a in movable]
            stuck += sum(a not in movable for a in rows)
        expected.sort()
        calls.clear()
        report = engine.step()
        seen = [row for call in calls for row in call]
        assert sorted(seen) == expected
        assert len(calls) == (1 if expected else 0)
        engine.validate_state()
        for lane, seq in enumerate(seqs):
            seq_report = seq.step()
            # Stuck rows must not count as decided: they end at -1.
            assert int(report.decided[lane]) == seq_report.decided
            assert int(report.moved[lane]) == seq_report.moved
            _assert_lane_matches_solo(engine, lane, seq)
        return expected, stuck

    def test_free_flow_step_never_calls_select(self):
        cfg = SimulationConfig(height=32, width=32, n_per_side=24, steps=12, seed=0)
        engine = BatchedEngine(cfg, (0,))
        seq = build_engine(cfg, engine="sequential", seed=0)
        calls = _spy_select(engine)
        free_steps = 0
        for _ in range(cfg.steps):
            rows, _ = self._step_and_check(
                engine, [seq], calls, lambda lane: _blocked_agents(engine, lane)
            )
            free_steps += not rows
        assert free_steps >= 5  # the scenario really is in free flow

    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_jammed_step_selects_exactly_the_blocked_rows(self, model):
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=200, steps=8, seed=1
        ).with_model(model)
        engine = BatchedEngine(cfg, (1, 2))
        seqs = [build_engine(cfg, engine="sequential", seed=s) for s in (1, 2)]
        calls = _spy_select(engine)
        total_stuck = 0
        for _ in range(cfg.steps):
            rows, stuck = self._step_and_check(
                engine, seqs, calls, lambda lane: _blocked_agents(engine, lane)
            )
            assert rows  # every jammed step selects
            total_stuck += stuck
        assert total_stuck > 0  # and some blocked rows are stuck

    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_lane_without_forward_priority_selects_every_row(self, model):
        base = SimulationConfig(height=16, width=16, n_per_side=30, steps=10)
        configs = [
            base.with_model(model),
            base.replace(height=24, width=20, n_per_side=20, forward_priority=False)
            .with_model(model),
        ]
        seeds = (4, 4)
        engine = BatchedEngine(configs, seeds)
        seqs = [
            build_engine(cfg, engine="sequential", seed=s)
            for cfg, s in zip(configs, seeds)
        ]
        calls = _spy_select(engine)

        def deciding(lane):
            if lane == 1:
                return range(1, int(engine.lane_agents[1]) + 1)
            return _blocked_agents(engine, lane)

        for _ in range(base.steps):
            self._step_and_check(engine, seqs, calls, deciding)

    @pytest.mark.parametrize("model", ["lem", "aco", "greedy", "random"])
    def test_select_never_sees_a_stuck_row(self, model):
        """In a dense jam most blocked rows have no empty neighbour. The
        spy checks, inside every ``model.select`` call, that each row has
        a candidate in its scan row and an empty neighbour on the grid;
        the stuck rows end at -1, so the decided counts and states still
        match the sequential engine's on every step."""
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=100, steps=30, seed=3
        ).with_model(model)
        engine = BatchedEngine(cfg, (3, 4))
        seqs = [build_engine(cfg, engine="sequential", seed=s) for s in (3, 4)]
        movable = {}
        select = engine.model.select

        def spy(scan, rng, step, lanes):
            assert scan.shape[0] and bool((scan != 0.0).any(axis=1).all())
            for lane, agent in zip(rng._rep.tolist(), lanes.tolist()):
                assert agent in movable[lane]
            return select(scan, rng, step, lanes)

        engine.model.select = spy
        stuck = blocked = 0
        for _ in range(cfg.steps):
            for lane in range(engine.n_lanes):
                movable[lane] = _movable_agents(engine, lane)
                rows = _blocked_agents(engine, lane)
                blocked += len(rows)
                stuck += sum(a not in movable[lane] for a in rows)
            report = engine.step()
            for lane, seq in enumerate(seqs):
                seq_report = seq.step()
                assert int(report.decided[lane]) == seq_report.decided
                _assert_lane_matches_solo(engine, lane, seq)
        assert stuck > blocked // 10  # the jam really has stuck rows


def _tied_slot_count(model, scan_row, z):
    """How many slots tie at the score ``model`` selects from ``scan_row``
    (a host list), given the row's ``LEM_SELECT`` normal ``z`` (ignored by
    greedy) — a scalar restatement of eq. 1's selection."""
    cand = [v for v in scan_row if v > 0.0]
    if not cand:
        return 0
    dmin = min(cand)
    if model.name == "greedy":
        return cand.count(dmin)
    x = min(max(model.mu + model.sigma * z, 0.0), 1.0)
    scores = [dmin / v for v in cand]
    if model.rule == "floor":
        eligible = [c for c in scores if c <= x]
        pick = max(eligible, default=None)
    else:
        eligible = [c for c in scores if c >= x]
        pick = min(eligible, default=None)
    return eligible.count(pick) if eligible else 0


class TestTieOnlyDraws:
    """A row with one slot at its selected score takes it without a
    ``TIEBREAK`` draw: the slot-key order only matters among 2+ tied
    slots, and draws are keyed per (lane, agent), so skipping one changes
    no other. On every step each engine draws exactly for the rows that
    reach select with 2+ tied slots."""

    STEPS = 15

    @staticmethod
    def _record(engine):
        """Per step, the (lane, agent) rows with 2+ tied slots (from the
        scan rows select receives) and the rows that draw a ``TIEBREAK``
        word, plus the number of rows select saw."""
        expected, drawn, seen = [], [], []
        model, rng = engine.model, engine.rng
        select, words = model.select, rng._words_flat
        solo = [PhiloxKeyedRNG(seed) for seed in engine.seeds]

        def select_spy(scan, sub_rng, step, lanes):
            want = []
            for row, lane, agent in zip(
                scan.tolist(), sub_rng._rep.tolist(), lanes.tolist()
            ):
                z = solo[lane].normal12_scalar(Stream.LEM_SELECT, step, agent)
                if _tied_slot_count(model, row, z) >= 2:
                    want.append((lane, agent))
            expected[-1] += want
            seen[-1] += len(lanes)
            return select(scan, sub_rng, step, lanes)

        def words_spy(stream, step, rep, lanes, *args, **kwargs):
            if stream == Stream.TIEBREAK:
                drawn[-1] += zip(rep.tolist(), lanes.tolist())
            return words(stream, step, rep, lanes, *args, **kwargs)

        model.select = select_spy
        rng._words_flat = words_spy

        def step():
            expected.append([])
            drawn.append([])
            seen.append(0)
            engine.step()

        return step, expected, drawn, seen

    @pytest.mark.parametrize(
        "params", [LEMParams(), LEMParams(rule="ceil"), GreedyParams()],
        ids=["lem-floor", "lem-ceil", "greedy"],
    )
    def test_only_rows_with_ties_draw(self, params):
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=100, steps=self.STEPS, seed=11
        ).with_model(params)
        engines = (
            build_engine(cfg, "vectorized"),
            BatchedEngine([cfg, cfg], seeds=(cfg.seed + 1, cfg.seed)),
        )
        logs = [self._record(e) for e in engines]
        for _ in range(self.STEPS):
            for step, *_ in logs:
                step()
        for _, expected, drawn, seen in logs:
            for t, (want, got) in enumerate(zip(expected, drawn)):
                assert sorted(got) == sorted(want), t
            n_drawn = sum(map(len, drawn))
            # Ties occur, and most selecting rows have none.
            assert 0 < n_drawn < sum(seen)


def _positive_weights(engine, lane):
    """Per agent of ``lane``, how many eq. 2 numerators (ACO, recomputed
    through :func:`aco_numerators` from the raw distance tables) or empty
    neighbours (random) are positive, read from the lane's host state."""
    cfg = engine.lane_config(lane)
    env = engine.lane_environment(lane)
    pop = engine.lane_population(lane)
    dist = build_distance_tables(cfg.height)
    model = engine.model
    h, w = env.shape
    counts = {}
    for a in range(1, pop.n_agents + 1):
        group = Group(int(pop.ids[a]))
        r0, c0 = int(pop.rows[a]), int(pop.cols[a])
        cand = np.zeros(8, dtype=bool)
        tau = np.zeros(8)
        for s, (dr, dc) in enumerate(offsets_array(group)):
            r, c = r0 + dr, c0 + dc
            if 0 <= r < h and 0 <= c < w and env.mat[r, c] == 0:
                cand[s] = True
                if model.uses_pheromone:
                    tau[s] = engine.lane_pheromone(lane, group)[r, c]
        if model.name == "aco":
            num = aco_numerators(
                dist[group].table[r0][None], cand[None], tau[None],
                model.alpha, model.beta,
            )[0]
            counts[a] = int(np.count_nonzero(num > 0.0))
        else:
            counts[a] = int(np.count_nonzero(cand))
    return counts


class TestSoleNumeratorDraws:
    """A row with one positive eq. 2 weight takes that slot without an
    ``ACO_SELECT`` (or ``RANDOM_POLICY``) draw: the inverse CDF picks it
    for every uniform, and draws are keyed per (lane, agent), so skipping
    one changes no other. On every step each engine draws exactly for the
    rows that reach select with two or more positive weights."""

    STEPS = 15
    STREAMS = {"aco": Stream.ACO_SELECT, "random": Stream.RANDOM_POLICY}

    @classmethod
    def _record(cls, engine):
        """Per step, the (lane, agent) rows select saw with 2+ positive
        weights and the rows that drew from the model's stream, plus the
        number of rows select saw."""
        expected, drawn, seen = [], [], []
        model, rng = engine.model, engine.rng
        select, words = model.select, rng._words_flat
        stream = cls.STREAMS[model.name]

        def select_spy(scan, sub_rng, step, lanes):
            positive = {}
            for lane, agent in zip(sub_rng._rep.tolist(), lanes.tolist()):
                if lane not in positive:
                    positive[lane] = _positive_weights(engine, lane)
                if positive[lane][agent] >= 2:
                    expected[-1].append((lane, agent))
            seen[-1] += len(lanes)
            return select(scan, sub_rng, step, lanes)

        def words_spy(stream_, step, rep, lanes, *args, **kwargs):
            if stream_ == stream:
                drawn[-1] += zip(rep.tolist(), lanes.tolist())
            return words(stream_, step, rep, lanes, *args, **kwargs)

        model.select = select_spy
        rng._words_flat = words_spy

        def step():
            expected.append([])
            drawn.append([])
            seen.append(0)
            engine.step()

        return step, expected, drawn, seen

    @pytest.mark.parametrize("model", ["aco", "random"])
    def test_only_rows_with_two_positive_weights_draw(self, model):
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=100, steps=self.STEPS, seed=11
        ).with_model(model)
        small = cfg.replace(height=12, width=20, n_per_side=60)
        engines = (
            build_engine(cfg, "vectorized"),
            BatchedEngine([cfg, small], seeds=(cfg.seed, cfg.seed + 1)),
        )
        logs = [self._record(e) for e in engines]
        for _ in range(self.STEPS):
            for step, *_ in logs:
                step()
        for _, expected, drawn, seen in logs:
            for t, (want, got) in enumerate(zip(expected, drawn)):
                assert sorted(got) == sorted(want), t
            n_drawn = sum(map(len, drawn))
            # Both kinds of row occur: some draw, and some take their one
            # positive weight without a draw.
            assert 0 < n_drawn < sum(seen)


class TestBatchedThroughputMatchesSequential:
    """A one-lane batch (the solo ``vectorized`` engine) equals sequential."""

    def test_three_way_equality(self):
        cfg = SimulationConfig(height=16, width=16, n_per_side=12, steps=15, seed=0)
        batched = BatchedEngine(cfg, (5,))
        batched.run(record_timeline=False)
        seq = build_engine(cfg, engine="sequential", seed=5)
        seq.run(record_timeline=False)
        assert batched.lane_environment(0).equals(seq.env)
        assert batched.lane_population(0).equals(seq.pop)
