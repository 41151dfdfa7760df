"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_engine
from repro.engine import BatchedEngine, shift, winner_rank
from repro.grid import DistanceTable, ObstacleSpec
from repro.models import (
    ACOParams,
    GreedyParams,
    LEMParams,
    build_model,
    fast_pow,
    lem_scores,
)
from repro.models.base import _row_cumsum
from repro.models.mathops import fast_pow_scalar
from repro.rng import (
    PhiloxKeyedRNG,
    Stream,
    categorical,
    categorical_from_cumsum,
    clip_lem_draw,
    philox4x32,
)
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


class _FixedUniforms:
    """RNG stand-in: the uniform of lane ``i`` is ``u[i]``, and a subset
    keeps the lane addressing, so a draw sees the same ``u`` whichever
    rows draw."""

    def __init__(self, u):
        self.u = u

    def subset(self, rows):
        return self

    def uniform(self, stream, step, lanes):
        return self.u[lanes]


#: Weights that exercise the helper's row classes: zeros (all-zero and
#: single-positive rows), the smallest subnormal, and ordinary values.
_WEIGHT = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.sampled_from([1e-300, 0.25, 1.0, 3.0, 1e6]),
    st.floats(0.0, 1e6, allow_nan=False),
)
#: The extreme uniforms a Philox word maps to, and anything between.
_UNIFORM = st.one_of(
    st.sampled_from([0.5 / 2**32, 1.0 - 0.5 / 2**32]),
    st.floats(0.5 / 2**32, 1.0 - 0.5 / 2**32),
)


def _first_hit(weights, u):
    """Scalar inverse CDF, as the sequential engine's ``select_scalar``
    runs it: the first slot whose running sum reaches ``u * total`` and
    is positive; -1 when the total is not positive."""
    total = 0.0
    for v in weights:
        total = total + v
    if total <= 0.0:
        return -1
    threshold = u * total
    acc = 0.0
    for j, v in enumerate(weights):
        acc = acc + v
        if acc >= threshold and acc > 0.0:
            return j
    raise AssertionError("unreachable: the final sum is the total")


class TestProportionalSlots:
    """The random-proportional helper (draws only for rows with 2+
    positive weights) picks what the plain inverse CDF over every row
    picks."""

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(_WEIGHT, min_size=8, max_size=8),
                st.integers(-1, 7),
                _UNIFORM,
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_categorical_from_cumsum(self, rows):
        """``keep`` >= 0 zeroes every weight but that slot's, so rows with
        one positive weight (or none, when that weight is 0) are common."""
        w = np.array([weights for weights, _, _ in rows])
        for i, (_, keep, _) in enumerate(rows):
            if keep >= 0:
                w[i, np.arange(8) != keep] = 0.0
        u = np.array([uniform for _, _, uniform in rows])
        model = build_model(ACOParams())
        got = model.proportional_slots(
            w, _FixedUniforms(u), Stream.ACO_SELECT, 0, np.arange(len(rows))
        )
        want = categorical_from_cumsum(np.cumsum(w, axis=1), u)
        assert np.array_equal(got, want)
        assert want.tolist() == [_first_hit(row, x) for row, x in zip(w.tolist(), u)]
        positive = w > 0.0
        assert np.all((got == -1) == ~positive.any(axis=1))
        live = got >= 0
        assert np.all(positive[live, got[live]])


    @given(
        weights=st.lists(
            st.lists(_WEIGHT, min_size=1, max_size=10).map(tuple),
            min_size=1, max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        u=_UNIFORM,
    )
    # u * total underflows to 0.0: the leading zero-weight slot must lose.
    @example(weights=[(0.0, 5e-324, 0.0)], u=0.5 / 2**32)
    @settings(max_examples=200, deadline=None)
    def test_one_compare_rule_is_the_first_hit(self, weights, u):
        """``categorical_from_cumsum`` counts the slots below
        ``max(u * total, 5e-324)``; at every row width (the TSP baseline
        uses widths other than 8) that is the scalar first-hit rule."""
        w = np.array(weights)
        got = categorical_from_cumsum(np.cumsum(w, axis=1), np.full(len(w), u))
        assert got.tolist() == [_first_hit(row, u) for row in weights]


class TestRowCumsum:
    @given(rows=st.lists(st.lists(_WEIGHT, min_size=8, max_size=8), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_column_adds_are_cumsum(self, rows):
        """The in-place column adds of ``proportional_slots`` give
        ``np.cumsum``'s running sums bit for bit."""
        w = np.array(rows)
        want = np.cumsum(w, axis=1)
        assert np.array_equal(_row_cumsum(w.copy()).view(np.uint64), want.view(np.uint64))


def _row_major_tiebreak(tied, rng, step, lanes):
    """The first-tied-slot rule on ``(n, 8)`` rows: the lowest
    ``slot_number ^ b`` among the tied slots (0 on a row with none)."""
    bits = (rng.words(Stream.TIEBREAK, step, lanes)[0] & np.uint32(1)).astype(np.int64)
    keys = np.where(tied, np.arange(1, 9) ^ bits[:, None], 1 << 30)
    return keys.argmin(axis=1)


def _row_major_lem(scan, params, rng, step, lanes):
    """Eq. 1 and the clipped-normal rank rule with row-wise reductions
    over ``(n, 8)``, as the LEM ran before its slot-major rewrite."""
    candidates = scan > 0.0
    scores = lem_scores(scan, candidates)
    c_max = scores.max(axis=1)
    z = rng.normal12(Stream.LEM_SELECT, step, lanes)
    x = clip_lem_draw(z, params.mu, params.sigma, c_max)
    if params.rule == "floor":
        eligible = candidates & (scores <= x[:, None])
        contended = np.where(eligible, scores, -np.inf)
        c_sel = contended.max(axis=1)
        has_choice = np.isfinite(c_sel) & candidates.any(axis=1)
    else:
        eligible = candidates & (scores >= x[:, None])
        contended = np.where(eligible, scores, np.inf)
        c_sel = contended.min(axis=1)
        has_choice = candidates.any(axis=1)
    tied = eligible & (contended == c_sel[:, None])
    return np.where(has_choice, _row_major_tiebreak(tied, rng, step, lanes), -1)


def _row_major_greedy(scan, rng, step, lanes):
    candidates = scan > 0.0
    scores = lem_scores(scan, candidates)
    best = candidates & (scores == scores.max(axis=1)[:, None])
    slot = _row_major_tiebreak(best, rng, step, lanes)
    return np.where(candidates.any(axis=1), slot, -1)


#: Scan entries: non-candidates (0 and a negative), repeated distances
#: (ties), the distance extremes and anything between.
_SCAN_VALUE = st.one_of(
    st.sampled_from([0.0, -1.0]),
    st.sampled_from([1.0, 2.0 ** 0.5, 2.0, 5.0 ** 0.5, 3.0]),
    st.sampled_from([5e-324, 1e-300, 1e308, np.inf]),
    st.floats(0.5, 500.0),
)


@st.composite
def _scan(draw):
    """``(n, 8)`` scans; a row may mirror its left/right pairs (0-based
    slots (1, 2), (3, 4), (6, 7), the pairs that tie on distance) or be
    all zero."""
    rows = draw(st.lists(
        st.tuples(
            st.lists(_SCAN_VALUE, min_size=8, max_size=8),
            st.sampled_from(["plain", "mirror", "zero"]),
        ),
        min_size=1, max_size=16,
    ))
    scan = np.array([values for values, _ in rows])
    for i, (_, kind) in enumerate(rows):
        if kind == "mirror":
            scan[i, [2, 4, 7]] = scan[i, [1, 3, 6]]
        elif kind == "zero":
            scan[i] = 0.0
    return scan


class TestSlotMajorSelect:
    """The slot-major LEM and greedy selects pick what the row-major
    rules pick, draw for draw."""

    @given(
        scan=_scan(),
        rule=st.sampled_from(["floor", "ceil"]),
        mu=st.floats(0.0, 1.5),
        sigma=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**64 - 1),
        step=st.integers(0, 2**40),
    )
    @settings(max_examples=300, deadline=None)
    def test_lem_matches_row_major(self, scan, rule, mu, sigma, seed, step):
        params = LEMParams(mu=mu, sigma=sigma, rule=rule)
        rng = PhiloxKeyedRNG(seed)
        lanes = np.arange(1, len(scan) + 1, dtype=np.uint64)
        got = build_model(params).select(scan.copy(), rng, step, lanes)
        want = _row_major_lem(scan, params, rng, step, lanes)
        assert np.array_equal(got, want)

    @given(scan=_scan(), seed=st.integers(0, 2**64 - 1), step=st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_row_major(self, scan, seed, step):
        rng = PhiloxKeyedRNG(seed)
        lanes = np.arange(1, len(scan) + 1, dtype=np.uint64)
        got = build_model(GreedyParams()).select(scan.copy(), rng, step, lanes)
        assert np.array_equal(got, _row_major_greedy(scan, rng, step, lanes))


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
        bat = BatchedEngine([cfg, cfg], seeds=(seed, seed + 1))
        for _ in range(12):
            rs, rv = seq.step(), vec.step()
            rb = bat.step()
            assert rs == rv
            assert (int(rb.decided[0]), int(rb.moved[0]), int(rb.new_crossings[0])) == (
                rv.decided, rv.moved, rv.new_crossings
            )
            assert seq.state_equals(vec)
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


@st.composite
def _border_lane(draw):
    """One small lane's geometry: a 4-24 edge grid (often non-square,
    often the paper's 16-cell tile edge), a population up to
    what its placement band holds, an optional obstacle layout, and the
    lane's forward-priority and velocity-class knobs. Small grids put most
    agents next to a border, where the halo replaces the bounds test; the
    knobs decide which rows reach select and which may move.
    """
    h = draw(st.one_of(st.just(16), st.integers(4, 24)))
    w = draw(st.one_of(st.just(16), st.integers(4, 24)))
    n = draw(st.integers(1, max(1, (h // 2) * w * 4 // 5)))
    layout = draw(st.sampled_from([None, "bottleneck", "pillars", "rects"]))
    if layout == "bottleneck":
        obstacles = ObstacleSpec("bottleneck", gap=draw(st.integers(1, w)))
    elif layout == "pillars":
        obstacles = ObstacleSpec("pillars", spacing=3, size=draw(st.integers(1, 2)))
    elif layout == "rects":
        # Walls flush with the left and right edges of the middle rows.
        mid = h // 2
        obstacles = ObstacleSpec(
            "rects", rects=((mid - 1, 0, mid + 1, 1), (mid, w - 1, mid + 1, w))
        )
    else:
        obstacles = None
    return dict(
        height=h, width=w, n_per_side=n, obstacles=obstacles,
        forward_priority=draw(st.booleans()),
        # Half the lanes keep a single velocity class.
        slow_fraction=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
        slow_period=draw(st.integers(2, 4)),
    )


class TestBorderDifferential:
    @given(
        lanes=st.lists(_border_lane(), min_size=2, max_size=2),
        scan_range=st.sampled_from([1, 2, 3]),
        model=st.sampled_from(["lem", "aco"]),
        seed=st.integers(0, 1000),
    )
    @settings(slow, max_examples=30)
    def test_padded_lanes_match_sequential_at_borders(
        self, lanes, scan_range, model, seed
    ):
        """Halo and lane-padding cells stand in for the bounds test.

        A solo whole-array engine and a 2-lane batch whose lanes differ
        in shape (so the smaller lane reads the larger one's padding as
        well as its own halo) and may differ in forward priority and
        velocity classes must track per-lane sequential runs step for
        step, with every state invariant checked each step.
        """
        assume((lanes[0]["height"], lanes[0]["width"]) != (
            lanes[1]["height"], lanes[1]["width"]
        ))
        params = {"lem": LEMParams, "aco": ACOParams}[model](scan_range=scan_range)
        steps = 10
        try:
            cfgs = [
                SimulationConfig(steps=steps, seed=seed, params=params, **lane)
                for lane in lanes
            ]
            seqs = [build_engine(cfg, "sequential") for cfg in cfgs]
        except ValueError:  # the layout leaves the band too few free cells
            assume(False)
        solo = build_engine(cfgs[0], "vectorized")
        bat = BatchedEngine(cfgs, seeds=(seed, seed))
        for _ in range(steps):
            reports = [seq.step() for seq in seqs]
            rb = bat.step()
            assert solo.step() == reports[0]
            assert seqs[0].state_equals(solo)
            solo.validate_state()
            bat.validate_state()
            for lane, seq in enumerate(seqs):
                assert (
                    int(rb.decided[lane]), int(rb.moved[lane]),
                    int(rb.new_crossings[lane]),
                ) == (reports[lane].decided, reports[lane].moved,
                      reports[lane].new_crossings)
                assert bat.lane_environment(lane).equals(seq.env)
                assert bat.lane_population(lane).equals(seq.pop)
                for group in (Group.TOP, Group.BOTTOM):
                    tau = bat.lane_pheromone(lane, group)
                    if seq.pher is None:
                        assert tau is None
                    else:
                        assert np.array_equal(tau, seq.pher.field(group))
