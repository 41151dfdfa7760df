"""Property-matrix (Population) tests."""

import numpy as np
import pytest

from repro.agents import Population
from repro.grid import place_groups
from repro.rng import PhiloxKeyedRNG
from repro.types import Group


@pytest.fixture
def placed_env():
    return place_groups(20, 10, 15, 3, PhiloxKeyedRNG(1))


@pytest.fixture
def pop(placed_env):
    return Population.from_environment(placed_env)


class TestConstruction:
    def test_sentinel_row(self, pop):
        """Index 0 is the paper's sentinel row: no agent, no tour."""
        assert pop.ids[0] == 0
        assert pop.tour[0] == 0.0
        assert not pop.crossed[0]

    def test_size(self, pop):
        assert pop.n_agents == 30
        assert pop.ids.shape == (31,)

    def test_positions_match_index_matrix(self, placed_env, pop):
        pop.validate_against(placed_env)

    def test_group_membership(self, pop):
        assert len(pop.members(Group.TOP)) == 15
        assert len(pop.members(Group.BOTTOM)) == 15
        assert np.all(pop.members(Group.TOP) < pop.members(Group.BOTTOM).min())

    def test_initial_tour_zero(self, pop):
        assert np.all(pop.tour == 0.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Population(0)

    def test_non_dense_index_raises(self, placed_env):
        placed_env.index[placed_env.index > 0] += 5  # break 1..n density
        with pytest.raises(ValueError):
            Population.from_environment(placed_env)


class TestFutures:
    def test_reset_futures(self, pop):
        """Decided moves pass from select to move and are never stored,
        so the support kernel's reset is a no-op stub."""
        assert "future_rows" not in Population.FIELDS
        assert not hasattr(pop, "future_rows")
        before = pop.copy()
        pop.reset_futures()
        assert pop.equals(before)


class TestCrossings:
    def test_no_initial_crossings(self, pop):
        assert pop.record_crossings(20, 3, step=0) == 0
        assert pop.crossed_count() == 0

    def test_top_crossing_detected(self, pop):
        a = pop.members(Group.TOP)[0]
        pop.rows[a] = 17  # inside the bottom band (rows 17..19)
        assert pop.record_crossings(20, 3, step=5) == 1
        assert pop.crossed[a]
        assert pop.crossed_step[a] == 5
        assert pop.crossed_count(Group.TOP) == 1
        assert pop.crossed_count(Group.BOTTOM) == 0

    def test_bottom_crossing_detected(self, pop):
        b = pop.members(Group.BOTTOM)[0]
        pop.rows[b] = 2
        assert pop.record_crossings(20, 3, step=1) == 1
        assert pop.crossed_count(Group.BOTTOM) == 1

    def test_crossing_latched(self, pop):
        a = pop.members(Group.TOP)[0]
        pop.rows[a] = 18
        pop.record_crossings(20, 3, step=2)
        pop.rows[a] = 10  # wanders back
        assert pop.record_crossings(20, 3, step=3) == 0
        assert pop.crossed_count() == 1

    def test_no_double_count(self, pop):
        a = pop.members(Group.TOP)[0]
        pop.rows[a] = 18
        pop.record_crossings(20, 3, step=2)
        assert pop.record_crossings(20, 3, step=3) == 0


class TestCopyEquality:
    def test_copy_deep(self, pop):
        dup = pop.copy()
        dup.rows[1] += 1
        assert pop.rows[1] != dup.rows[1]

    def test_equals(self, pop):
        dup = pop.copy()
        assert pop.equals(dup)
        dup.tour[2] = 1.0
        assert not pop.equals(dup)

    def test_validate_detects_drift(self, placed_env, pop):
        pop.rows[1] = (pop.rows[1] + 1) % 20
        with pytest.raises(AssertionError):
            pop.validate_against(placed_env)
