"""Conflict-resolution helper tests, and the contested-cell tie-break."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_engine
from repro.backend import resolve_backend
from repro.engine import DIRECTION_INDEX, BatchedEngine, shift, winner_rank
from repro.engine.conflict import (
    DIRECTION_TABLE,
    NTH_BIT,
    POPCOUNT,
    SLOT_DIRECTION16,
    SLOT_OFFSETS16,
    claim_heads,
)
from repro.grid import ABSOLUTE_OFFSETS
from repro.rng import Stream
from repro.types import Group


class TestShift:
    def test_identity(self):
        arr = np.arange(12).reshape(3, 4)
        assert np.array_equal(shift(arr, 0, 0), arr)

    def test_reads_neighbor(self):
        arr = np.arange(12).reshape(3, 4)
        out = shift(arr, 1, 0)
        # out[i,j] = arr[i+1,j]
        assert np.array_equal(out[0], arr[1])
        assert np.array_equal(out[1], arr[2])

    def test_fill_outside(self):
        arr = np.ones((3, 3), dtype=np.int32)
        out = shift(arr, -1, 0, fill=9)
        assert np.all(out[0] == 9)
        assert np.all(out[1:] == 1)

    def test_diagonal(self):
        arr = np.arange(9).reshape(3, 3)
        out = shift(arr, 1, 1)
        assert out[0, 0] == arr[1, 1]
        assert out[2, 2] == 0  # filled

    def test_large_shift_all_fill(self):
        arr = np.ones((2, 2), dtype=np.int64)
        out = shift(arr, 5, 0, fill=-3)
        assert np.all(out == -3)


class TestWinnerRank:
    def test_range(self):
        u = np.linspace(0.001, 0.999, 100)
        k = np.full(100, 5)
        picks = winner_rank(u, k)
        assert picks.min() >= 0 and picks.max() <= 4

    def test_uniformity(self, rng):
        from repro.rng import Stream

        u = rng.uniform(Stream.EXPERIMENT, 0, np.arange(100000))
        picks = winner_rank(u, np.full(100000, 4))
        for v in range(4):
            assert abs(np.mean(picks == v) - 0.25) < 0.01

    def test_single_candidate(self):
        assert winner_rank(np.array([0.7]), np.array([1]))[0] == 0

    def test_clamp_at_boundary(self):
        almost_one = np.nextafter(1.0, 0.0)
        assert winner_rank(np.array([almost_one]), np.array([3]))[0] == 2


class TestDirectionIndex:
    def test_covers_all_offsets(self):
        assert set(DIRECTION_INDEX.keys()) == set(ABSOLUTE_OFFSETS)

    def test_indices_match_sweep_order(self):
        for d, off in enumerate(ABSOLUTE_OFFSETS):
            assert DIRECTION_INDEX[off] == d

    def test_table_matches_index(self):
        for (dr, dc), d in DIRECTION_INDEX.items():
            assert DIRECTION_TABLE[(dr + 1) * 3 + (dc + 1)] == d

    def test_slot_codes_point_back_to_the_mover(self):
        """Slot code ``gslot * 8 + slot`` moves by ``SLOT_OFFSETS16`` and
        its target gathers the mover from ``SLOT_DIRECTION16``."""
        for code, (dr, dc) in enumerate(SLOT_OFFSETS16.tolist()):
            assert ABSOLUTE_OFFSETS[SLOT_DIRECTION16[code]] == (-dr, -dc)


@st.composite
def _contested_cells(draw):
    """Random target cells of 1-4 lanes, keyed ``lane * cells_per_lane +
    cell`` like the engine's padded cells, each with 1-8 distinct gather
    directions and a rank in ``[0, k)``; the candidates come shuffled.
    Returns ``(n_cells, gather, ranks, order)``, where ``gather`` is the
    brute-force per-cell gather: key -> ascending directions."""
    n_lanes = draw(st.integers(1, 4))
    cells_per_lane = draw(st.integers(1, 30))
    keys = draw(st.lists(
        st.integers(0, n_lanes * cells_per_lane - 1), min_size=1, max_size=40,
        unique=True,
    ))
    gather = {
        key: sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=8)))
        for key in keys
    }
    ranks = {key: draw(st.integers(0, len(dirs) - 1)) for key, dirs in gather.items()}
    order = draw(st.permutations(
        [(key, d) for key, dirs in gather.items() for d in dirs]
    ))
    return n_lanes * cells_per_lane, gather, ranks, order


class TestClaimMaskPick:
    """The claim-mask pick equals the paper's per-cell gather: the
    rank-``k`` winner of a cell is its ``k``-th candidate in ascending
    gather direction, whatever order the candidates arrive in."""

    @settings(max_examples=300, deadline=None)
    @given(_contested_cells())
    def test_pick_matches_per_cell_gather(self, case):
        n_cells, gather, ranks, order = case
        target = np.array([key for key, _ in order], dtype=np.int64)
        direction = np.array([d for _, d in order], dtype=np.int64)
        claim = np.zeros(n_cells, dtype=np.int32)
        mask, heads = claim_heads(target, direction, claim, resolve_backend("numpy"))
        assert not claim.any()
        # One head per distinct cell, and it is that cell's
        # lowest-direction candidate.
        head_keys = target[heads].tolist()
        assert sorted(head_keys) == sorted(gather)
        assert direction[heads].tolist() == [gather[k][0] for k in head_keys]
        assert POPCOUNT[mask].tolist() == [len(gather[k]) for k in head_keys]
        rank = np.array([ranks[k] for k in head_keys], dtype=np.int64)
        picked = NTH_BIT[mask * 8 + rank]
        assert picked.tolist() == [gather[k][ranks[k]] for k in head_keys]

    @settings(max_examples=100, deadline=None)
    @given(_contested_cells(), st.floats(0.0, 1.0, exclude_max=True))
    def test_winner_rank_picks_a_candidate(self, case, u):
        """``winner_rank`` of a cell's popcount always names a set bit."""
        n_cells, gather, _ranks, order = case
        target = np.array([key for key, _ in order], dtype=np.int64)
        direction = np.array([d for _, d in order], dtype=np.int64)
        claim = np.zeros(n_cells, dtype=np.int32)
        mask, heads = claim_heads(target, direction, claim, resolve_backend("numpy"))
        assert not claim.any()
        count = POPCOUNT[mask]
        rank = winner_rank(np.full(count.size, u), count)
        picked = NTH_BIT[mask * 8 + rank]
        for key, d, k in zip(target[heads].tolist(), picked.tolist(), rank.tolist()):
            assert d == gather[key][k]


def _handoff_targets(engine, movers, width):
    """``(lane, row * width + col)`` of every move select handed over."""
    if not isinstance(engine, BatchedEngine):
        return [(0, key) for key, cands in movers.items() for _ in cands]
    lane, code, cell = movers
    target = cell + engine._code_lin[code]
    rc = target - lane * (engine._hp * engine._wp) - (engine._wp + 1)
    rows, cols = np.divmod(rc, engine._wp)
    return list(zip(lane.tolist(), (rows * width + cols).tolist()))


class TestContestedCells:
    """Cells targeted by 3+ agents resolve identically on every engine.

    The winner is ``candidates[winner_rank(u, k)]`` with the candidates
    in gather-direction order, so only cells with several candidates
    exercise that order; with 3+ a wrong order changes the winner for
    most draws. The near-jam configs guarantee such cells occur.
    """

    STEPS = 15

    @staticmethod
    def _count_hot_cells(engine):
        """Wrap the move stage to count cells that 3+ agents target."""
        hot = []
        stage = engine._stage_move
        width = engine.env.width

        def counting(t, movers):
            targets = Counter(_handoff_targets(engine, movers, width))
            hot.append(sum(k >= 3 for k in targets.values()))
            return stage(t, movers)

        engine._stage_move = counting
        return hot

    @pytest.mark.parametrize("forward_priority", [True, False])
    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_engines_agree_on_contested_cells(self, model, forward_priority):
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=100, steps=self.STEPS, seed=11,
            forward_priority=forward_priority,
        ).with_model(model)
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        batched = BatchedEngine([cfg, cfg], seeds=(cfg.seed + 1, cfg.seed))
        hot = self._count_hot_cells(vec)
        for _ in range(self.STEPS):
            seq.step()
            vec.step()
            batched.step()
            assert seq.state_equals(vec)
            assert batched.lane_environment(1).equals(vec.env)
            assert batched.lane_population(1).equals(vec.pop)
            if vec.pher is not None:
                for group in Group:
                    assert np.array_equal(
                        batched.lane_pheromone(1, group), vec.pher.field(group)
                    )
        assert sum(hot) > 0

    @staticmethod
    def _record_winner_draws(engine, width):
        """Wrap the move stage and the RNG to log, per step, the cells that
        2+ agents target and the cells that draw a ``MOVE_WINNER``
        uniform, both as ``(lane, cell lane)`` pairs."""
        contested, drawn = [], []
        batched = isinstance(engine, BatchedEngine)
        stage = engine._stage_move
        name = "uniform_at" if batched else "uniform"
        draw = getattr(engine.rng, name)

        def staged(t, movers):
            targets = Counter(_handoff_targets(engine, movers, width))
            contested.append(sorted(p for p, k in targets.items() if k >= 2))
            drawn.append([])
            return stage(t, movers)

        def spy(stream, step, *args):
            if stream == Stream.MOVE_WINNER:
                rep, lane = args[:2] if batched else ([0] * len(args[0]), args[0])
                drawn[-1].extend(
                    zip(np.asarray(rep).tolist(), np.asarray(lane).tolist())
                )
            return draw(stream, step, *args)

        engine._stage_move = staged
        setattr(engine.rng, name, spy)
        return contested, drawn

    @pytest.mark.parametrize("forward_priority", [True, False])
    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_only_contested_cells_draw(self, model, forward_priority):
        """A cell with one candidate takes it without a winner draw: on
        every step each engine draws once for exactly the cells that 2+
        agents target (winner_rank(u, 1) is 0, so the draw is dead work)."""
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=100, steps=self.STEPS, seed=11,
            forward_priority=forward_priority,
        ).with_model(model)
        engines = (
            build_engine(cfg, "sequential"),
            build_engine(cfg, "vectorized"),
            BatchedEngine([cfg, cfg], seeds=(cfg.seed + 1, cfg.seed)),
        )
        logs = [self._record_winner_draws(e, cfg.width) for e in engines]
        for _ in range(self.STEPS):
            for engine in engines:
                engine.step()
        for contested, drawn in logs:
            assert len(drawn) == self.STEPS
            for step, (want, got) in enumerate(zip(contested, drawn)):
                assert sorted(got) == want, step
            assert sum(map(len, drawn)) > 0
