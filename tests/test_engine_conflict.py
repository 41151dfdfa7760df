"""Conflict-resolution helper tests, and the contested-cell tie-break."""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine
from repro.agents.population import NO_FUTURE
from repro.engine import DIRECTION_INDEX, BatchedEngine, shift, winner_rank
from repro.engine.conflict import DIRECTION_TABLE, group_by_cell
from repro.grid import ABSOLUTE_OFFSETS
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


class TestGroupByCell:
    def test_runs_sorted_by_cell_then_direction(self):
        cell = np.array([7, 3, 7, 9, 3, 7], dtype=np.int64)
        direction = np.array([4, 6, 0, 2, 1, 7], dtype=np.int64)
        order, start, count = group_by_cell(cell, direction)
        assert order.tolist() == [4, 1, 2, 0, 5, 3]
        assert start.tolist() == [0, 2, 5]
        assert count.tolist() == [2, 3, 1]

    def test_unsigned_cell_keys(self):
        cell = np.array([5, 2, 5], dtype=np.uint64)
        direction = np.array([3, 0, 1], dtype=np.int64)
        order, start, count = group_by_cell(cell, direction)
        assert order.tolist() == [1, 2, 0]
        assert start.tolist() == [0, 1]
        assert count.tolist() == [1, 2]


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

        def counting(t):
            pop = engine.pop
            deciding = pop.future_rows != NO_FUTURE
            cells = pop.future_rows[deciding] * width + pop.future_cols[deciding]
            _, counts = np.unique(cells, return_counts=True)
            hot.append(int((counts >= 3).sum()))
            return stage(t)

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
