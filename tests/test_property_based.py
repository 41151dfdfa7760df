"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_engine
from repro.engine import BatchedEngine, shift, winner_rank
from repro.grid import DistanceTable
from repro.models import fast_pow
from repro.models.mathops import fast_pow_scalar
from repro.rng import PhiloxKeyedRNG, Stream, categorical, philox4x32
from repro.types import Group

# Engine runs are comparatively slow; keep example counts tight and silence
# the too-slow health check for the full-simulation properties.
slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPhiloxProperties:
    @given(
        counter=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4),
        key=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_bijection_determinism(self, counter, key):
        c = np.array([[w] for w in counter], dtype=np.uint32)
        k = np.array([[w] for w in key], dtype=np.uint32)
        assert np.array_equal(philox4x32(c, k), philox4x32(c, k))

    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from(list(Stream)),
        step=st.integers(0, 2**40),
        lane=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_always_in_open_unit_interval(self, seed, stream, step, lane):
        u = PhiloxKeyedRNG(seed).uniform_scalar(stream, step, lane)
        assert 0.0 < u < 1.0

    @given(
        weights=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=8
        ),
        u=st.floats(1e-9, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_categorical_never_selects_zero_weight(self, weights, u):
        w = np.array([weights])
        idx = int(categorical(w, np.array([u]))[0])
        if sum(weights) <= 0:
            assert idx == -1
        else:
            assert weights[idx] > 0.0


class TestNumericProperties:
    @given(
        base=st.floats(1e-6, 1e6, allow_nan=False),
        exponent=st.integers(-8, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_fast_pow_scalar_vector_agree_bitwise(self, base, exponent):
        vec = float(fast_pow(np.array([base]), float(exponent))[0])
        assert fast_pow_scalar(base, float(exponent)) == vec

    @given(height=st.integers(4, 200), group=st.sampled_from([Group.TOP, Group.BOTTOM]))
    @settings(max_examples=50, deadline=None)
    def test_distance_ranking_holds_everywhere(self, height, group):
        """Slot 1 is never farther than any other in-bounds slot."""
        table = DistanceTable(height, group).table
        forward = table[:, 0]
        others = table[:, 1:]
        finite = np.isfinite(forward)
        assert np.all(forward[finite, None] <= others[finite] + 1e-12)


class TestShiftProperties:
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        dr=st.integers(-3, 3),
        dc=st.integers(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_matches_bruteforce(self, h, w, dr, dc):
        arr = np.arange(h * w, dtype=np.int64).reshape(h, w) + 1
        out = shift(arr, dr, dc, fill=0)
        for i in range(h):
            for j in range(w):
                si, sj = i + dr, j + dc
                expected = arr[si, sj] if 0 <= si < h and 0 <= sj < w else 0
                assert out[i, j] == expected

    @given(
        u=st.floats(0.0, 1.0, exclude_max=True),
        k=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_winner_rank_in_range(self, u, k):
        pick = int(winner_rank(np.float64(u), np.int64(k)))
        assert 0 <= pick < k


class TestPheromoneProperties:
    @given(
        rho=st.floats(0.01, 0.9),
        seed=st.integers(0, 200),
    )
    @slow
    def test_pheromone_mass_bounded(self, rho, seed):
        """Total pheromone stays within [tau_min * cells, steady-state + deposits]."""
        from repro.models import ACOParams

        cfg = SimulationConfig(
            height=16, width=16, n_per_side=25, steps=15, seed=seed,
            params=ACOParams(rho=rho),
        )
        eng = build_engine(cfg, "vectorized")
        params = cfg.params
        cells = 16 * 16
        for _ in range(15):
            report = eng.step()
            for total in eng.pher.totals().values():
                assert total >= params.tau_min * cells - 1e-9
                # One step adds at most q per mover (L >= 1 after a move).
                assert total <= params.tau0 * cells + 15 * 50 * params.deposit_q

    @given(gap=st.integers(1, 14), seed=st.integers(0, 100))
    @slow
    def test_obstacles_are_inviolable(self, gap, seed):
        from repro.grid import ObstacleSpec

        cfg = SimulationConfig(
            height=16, width=16, n_per_side=20, steps=10, seed=seed,
            obstacles=ObstacleSpec("bottleneck", gap=gap),
        )
        eng = build_engine(cfg, "vectorized")
        wall = eng.env.obstacle_mask().copy()
        for _ in range(10):
            eng.step()
        assert np.array_equal(eng.env.obstacle_mask(), wall)
        assert not wall[eng.pop.rows[1:], eng.pop.cols[1:]].any()
        eng.validate_state()


class TestSimulationProperties:
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(4, 100),
        model=st.sampled_from(["lem", "aco", "random", "greedy"]),
    )
    @slow
    def test_engines_bit_identical(self, seed, n, model):
        """The headline invariant under arbitrary seeds and populations.

        Populations reach near-jam (100 per side fills 8 of 16 rows), where
        contested cells are common; lane 0 of a 2-lane batch must track the
        solo engines step for step.
        """
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=n, steps=12, seed=seed
        ).with_model(model)
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        til = build_engine(cfg, "tiled")
        bat = BatchedEngine([cfg, cfg], seeds=(seed, seed + 1))
        for _ in range(12):
            rs, rv, rt = seq.step(), vec.step(), til.step()
            rb = bat.step()
            assert rs == rv == rt
            assert (int(rb.decided[0]), int(rb.moved[0]), int(rb.new_crossings[0])) == (
                rv.decided, rv.moved, rv.new_crossings
            )
            assert seq.state_equals(vec)
            assert vec.state_equals(til)
            assert bat.lane_environment(0).equals(vec.env)
            assert bat.lane_population(0).equals(vec.pop)
            vec.validate_state()
            bat.validate_state()

    @given(seed=st.integers(0, 1000), model=st.sampled_from(["lem", "aco"]))
    @slow
    def test_conservation_and_consistency(self, seed, model):
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=30, steps=15, seed=seed
        ).with_model(model)
        eng = build_engine(cfg, "vectorized")
        for _ in range(15):
            eng.step()
        eng.validate_state()
        assert eng.env.count(Group.TOP) == 30
        assert eng.env.count(Group.BOTTOM) == 30

    @given(seed=st.integers(0, 500))
    @slow
    def test_throughput_monotone_in_steps(self, seed):
        """Crossing counts are cumulative: more steps never reduce them."""
        cfg = SimulationConfig(height=16, width=16, n_per_side=20, steps=30, seed=seed)
        eng = build_engine(cfg, "vectorized")
        last = 0
        for _ in range(30):
            eng.step()
            now = eng.throughput()
            assert now >= last
            last = now
