"""Environment / index matrix tests."""

import numpy as np
import pytest

from repro.grid import Environment
from repro.types import CellState, Group


def _reference_violation(env):
    """The first failing invariant by boolean gathers and ``np.unique``
    (the message it raises), or ``None`` when the grid is consistent."""
    idx = env.index
    if np.any(idx[env.mat == 0] != 0):
        return "index matrix non-zero on an empty cell"
    agents = (env.mat == 1) | (env.mat == 2)
    if np.any(idx[agents] < 1):
        return "agent cell without a valid agent index"
    if np.any(idx[env.mat == 3] != 0):
        return "obstacle cell carries an agent index"
    if np.unique(idx[agents]).size != idx[agents].size:
        return "duplicate agent index in the index matrix"
    return None


class TestConstruction:
    def test_starts_empty(self):
        env = Environment(10, 12)
        assert env.shape == (10, 12)
        assert env.n_cells == 120
        assert np.all(env.mat == 0)
        assert np.all(env.index == 0)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            Environment(0, 5)


class TestPlacement:
    def test_place_and_query(self):
        env = Environment(8, 8)
        env.place(2, 3, int(Group.TOP), 1)
        assert not env.is_empty(2, 3)
        assert env.count(Group.TOP) == 1
        assert env.index[2, 3] == 1

    def test_place_occupied_raises(self):
        env = Environment(8, 8)
        env.place(2, 3, int(Group.TOP), 1)
        with pytest.raises(ValueError, match="occupied"):
            env.place(2, 3, int(Group.BOTTOM), 2)

    def test_place_out_of_bounds_raises(self):
        env = Environment(8, 8)
        with pytest.raises(ValueError, match="bounds"):
            env.place(8, 0, int(Group.TOP), 1)

    def test_place_bad_index_raises(self):
        env = Environment(8, 8)
        with pytest.raises(ValueError, match="agent_index"):
            env.place(0, 0, int(Group.TOP), 0)


class TestMove:
    def test_move_exchanges_contents(self):
        env = Environment(8, 8)
        env.place(1, 1, int(Group.BOTTOM), 5)
        env.move(1, 1, 0, 1)
        assert env.is_empty(1, 1)
        assert env.mat[0, 1] == int(Group.BOTTOM)
        assert env.index[0, 1] == 5

    def test_move_from_empty_raises(self):
        env = Environment(8, 8)
        with pytest.raises(ValueError, match="empty"):
            env.move(0, 0, 1, 1)

    def test_move_to_occupied_raises(self):
        env = Environment(8, 8)
        env.place(0, 0, 1, 1)
        env.place(1, 1, 2, 2)
        with pytest.raises(ValueError, match="occupied"):
            env.move(0, 0, 1, 1)


class TestInvariants:
    def test_validate_accepts_consistent(self):
        env = Environment(6, 6)
        env.place(0, 0, 1, 1)
        env.place(5, 5, 2, 2)
        env.validate()

    def test_validate_rejects_index_on_empty(self):
        env = Environment(6, 6)
        env.index[3, 3] = 7
        with pytest.raises(AssertionError, match="non-zero on an empty cell"):
            env.validate()

    def test_validate_rejects_duplicate_indices(self):
        env = Environment(6, 6)
        env.place(0, 0, 1, 4)
        env.mat[1, 1] = 1
        env.index[1, 1] = 4
        with pytest.raises(AssertionError, match="duplicate agent index"):
            env.validate()

    @pytest.mark.parametrize("index", [0, -3])
    def test_validate_rejects_agent_without_index(self, index):
        env = Environment(6, 6)
        env.place(0, 0, 1, 1)
        env.mat[2, 2] = int(Group.BOTTOM)
        env.index[2, 2] = index
        with pytest.raises(AssertionError, match="without a valid agent index"):
            env.validate()

    def test_validate_rejects_index_on_obstacle(self):
        env = Environment(6, 6)
        env.place(0, 0, 1, 1)
        env.mat[4, 4] = int(CellState.OBSTACLE)
        env.index[4, 4] = 2
        with pytest.raises(AssertionError, match="obstacle cell carries"):
            env.validate()

    def test_validate_reports_the_first_failing_check(self):
        env = Environment(6, 6)
        env.place(0, 0, 1, 4)
        env.place(1, 1, 1, 4)  # duplicate index ...
        env.index[3, 3] = 9  # ... and an index on an empty cell
        with pytest.raises(AssertionError, match="non-zero on an empty cell"):
            env.validate()

    def test_validate_accepts_obstacles_and_unknown_labels(self):
        """Only empty, agent and obstacle cells are checked: a cell with
        an unknown label may carry any index, even an agent's."""
        env = Environment(6, 6)
        env.add_obstacles(np.eye(6, dtype=bool))
        env.place(0, 1, 1, 1)
        env.place(5, 4, 2, 2)
        env.mat[2, 4] = 7
        env.index[2, 4] = 1
        env.mat[3, 1] = -5
        env.index[3, 1] = -2
        env.validate()

    def test_validate_accepts_an_empty_grid(self):
        Environment(3, 4).validate()

    def test_validate_matches_the_gather_reference(self):
        """Random label/index grids: the whole-array checks raise exactly
        when, and with the message that, the boolean-gather checks with
        ``np.unique`` do."""
        gen = np.random.default_rng(11)
        outcomes = set()
        for _ in range(600):
            shape = tuple(gen.integers(1, 7, size=2))
            env = Environment(*shape)
            env.mat[...] = gen.choice([0, 0, 1, 2, 3, 5], size=shape)
            # Mostly a valid numbering, with a few corrupted cells.
            agents = (env.mat == 1) | (env.mat == 2)
            env.index[agents] = gen.permutation(int(agents.sum())) + 1
            for _ in range(gen.integers(0, 3)):
                r, c = (int(gen.integers(0, n)) for n in shape)
                env.index[r, c] = gen.integers(-2, 4)
            expected = _reference_violation(env)
            outcomes.add(expected)
            if expected is None:
                env.validate()
            else:
                with pytest.raises(AssertionError) as err:
                    env.validate()
                assert str(err.value) == expected
        assert len(outcomes) == 5  # every message and the pass case occur

    def test_copy_is_deep(self):
        env = Environment(6, 6)
        env.place(0, 0, 1, 1)
        dup = env.copy()
        dup.mat[0, 0] = 0
        assert env.mat[0, 0] == 1

    def test_equals(self):
        a = Environment(6, 6)
        b = Environment(6, 6)
        assert a.equals(b)
        a.place(0, 0, 1, 1)
        assert not a.equals(b)


class TestLanes:
    def test_cell_lane_row_major(self):
        env = Environment(5, 7)
        assert int(env.cell_lane(0, 0)) == 0
        assert int(env.cell_lane(1, 0)) == 7
        assert int(env.cell_lane(4, 6)) == 34

    def test_cell_lane_vectorized(self):
        env = Environment(5, 7)
        lanes = env.cell_lane(np.array([0, 1]), np.array([3, 4]))
        assert np.array_equal(lanes, [3, 11])

    def test_occupied_cells_row_major(self):
        env = Environment(4, 4)
        env.place(2, 1, 1, 1)
        env.place(0, 3, 2, 2)
        cells = env.occupied_cells()
        assert np.array_equal(cells, [[0, 3], [2, 1]])
