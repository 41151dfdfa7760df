"""Engine step semantics: the paper's synchronous two-phase update rules."""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine
from repro.engine import BatchedEngine
from repro.engine.conflict import SLOT_DIRECTION16, SLOT_OFFSETS16
from repro.grid import ABSOLUTE_OFFSETS
from repro.types import Group


@pytest.fixture(params=["sequential", "vectorized"])
def engine_name(request):
    return request.param


def handed_moves(engine, movers):
    """``(agent, source, target, gather direction)`` of every move select
    hands to the move stage, read from either engine's hand-off."""
    rows = engine.pop.rows.tolist()
    cols = engine.pop.cols.tolist()
    if not isinstance(engine, BatchedEngine):
        width = engine.env.width
        return [
            (a, (rows[a], cols[a]), divmod(key, width), d)
            for key, cands in movers.items()
            for d, a in cands
        ]
    _lane, code, cell = movers
    agents = engine._index_p.reshape(-1)[cell].tolist()
    return [
        (a, (rows[a], cols[a]), (rows[a] + dr, cols[a] + dc), d)
        for a, (dr, dc), d in zip(
            agents, SLOT_OFFSETS16[code].tolist(), SLOT_DIRECTION16[code].tolist()
        )
    ]


def make_engine(engine_name, model="lem", **kw):
    defaults = dict(height=32, width=32, n_per_side=60, steps=50, seed=13)
    defaults.update(kw)
    cfg = SimulationConfig(**defaults).with_model(model)
    return build_engine(cfg, engine_name)


class TestStateInvariants:
    def test_population_conserved(self, engine_name):
        eng = make_engine(engine_name)
        for _ in range(30):
            eng.step()
        assert eng.env.count(Group.TOP) == 60
        assert eng.env.count(Group.BOTTOM) == 60

    def test_index_consistency_every_step(self, engine_name):
        eng = make_engine(engine_name, model="aco")
        for _ in range(20):
            eng.step()
            eng.validate_state()

    def test_one_agent_per_cell(self, engine_name):
        eng = make_engine(engine_name)
        for _ in range(30):
            eng.step()
        idx = eng.env.index[eng.env.index > 0]
        assert len(np.unique(idx)) == idx.size

    def test_moves_are_single_cell(self, engine_name):
        eng = make_engine(engine_name)
        for _ in range(25):
            before_r = eng.pop.rows.copy()
            before_c = eng.pop.cols.copy()
            eng.step()
            dr = np.abs(eng.pop.rows - before_r)
            dc = np.abs(eng.pop.cols - before_c)
            assert dr.max() <= 1 and dc.max() <= 1

    def test_agents_stay_in_bounds(self, engine_name):
        eng = make_engine(engine_name, model="random")
        for _ in range(30):
            eng.step()
        rows = eng.pop.rows[1:]
        cols = eng.pop.cols[1:]
        assert rows.min() >= 0 and rows.max() < 32
        assert cols.min() >= 0 and cols.max() < 32


class TestTwoPhaseUpdate:
    def test_moves_only_into_cells_empty_at_step_start(self, engine_name):
        eng = make_engine(engine_name)
        for _ in range(20):
            empty_before = eng.env.mat == 0
            before_r = eng.pop.rows.copy()
            before_c = eng.pop.cols.copy()
            eng.step()
            moved = (eng.pop.rows != before_r) | (eng.pop.cols != before_c)
            moved[0] = False
            dst_r = eng.pop.rows[moved]
            dst_c = eng.pop.cols[moved]
            assert np.all(empty_before[dst_r, dst_c])

    def test_futures_cleared_after_step(self, engine_name):
        """Decided moves go from select straight to the move stage: one
        per deciding agent, each into a neighbouring cell that is empty
        at the start of the step. No FUTURE field outlives the step."""
        eng = make_engine(engine_name, forward_priority=False)
        stage = eng._stage_move
        handed = []

        def spy(t, movers):
            handed.append(handed_moves(eng, movers))
            empty = eng.env.mat == 0
            for agent, (r, c), (tr, tc), d in handed[-1]:
                assert empty[tr, tc]
                assert ABSOLUTE_OFFSETS[d] == (r - tr, c - tc)
            return stage(t, movers)

        eng._stage_move = spy
        for _ in range(5):
            report = eng.step()
            agents = [move[0] for move in handed[-1]]
            assert len(agents) == len(set(agents)) == report.decided > 0
        assert not hasattr(eng.pop, "future_rows")
        assert not hasattr(eng.pop, "future_cols")

    def test_scan_cleared_after_step(self, engine_name):
        eng = make_engine(engine_name)
        eng.step()
        # Every scan hands its values and forward flags straight to select:
        # no scan matrix or FRONT CELL field exists to outlive the step.
        assert not hasattr(eng, "scan")
        assert not hasattr(eng.pop, "front_empty")


class TestTour:
    def test_tour_monotone_nondecreasing(self, engine_name):
        eng = make_engine(engine_name, model="aco")
        prev = eng.pop.tour.copy()
        for _ in range(15):
            eng.step()
            assert np.all(eng.pop.tour >= prev)
            prev = eng.pop.tour.copy()

    def test_tour_increment_values(self, engine_name):
        """Each move adds exactly 1 or sqrt(2)."""
        eng = make_engine(engine_name)
        for _ in range(15):
            before = eng.pop.tour.copy()
            eng.step()
            delta = eng.pop.tour - before
            changed = delta[delta > 0]
            assert np.all(
                np.isclose(changed, 1.0) | np.isclose(changed, np.sqrt(2.0))
            )

    def test_moved_count_matches_tour_changes(self, engine_name):
        eng = make_engine(engine_name)
        for _ in range(10):
            before = eng.pop.tour.copy()
            report = eng.step()
            assert int(np.count_nonzero(eng.pop.tour != before)) == report.moved


class TestForwardPriority:
    def test_forward_priority_off_changes_behaviour(self):
        """Disabling the paper's modification must alter the trajectory."""
        base = dict(height=32, width=32, n_per_side=100, steps=30, seed=2)
        on = build_engine(SimulationConfig(**base, forward_priority=True), "vectorized")
        off = build_engine(SimulationConfig(**base, forward_priority=False), "vectorized")
        for _ in range(30):
            on.step()
            off.step()
        assert not on.env.equals(off.env)

    def test_free_agent_moves_forward(self):
        """A lone agent with forward priority marches straight to the wall."""
        cfg = SimulationConfig(height=16, width=16, n_per_side=1, steps=20, seed=0)
        eng = build_engine(cfg, "vectorized")
        a = eng.pop.members(Group.TOP)[0]
        col0 = int(eng.pop.cols[a])
        rows = []
        for _ in range(15):
            eng.step()
            rows.append(int(eng.pop.rows[a]))
        assert rows == sorted(rows)
        assert int(eng.pop.cols[a]) == col0
        assert rows[-1] == 15  # reached the end row


class TestPheromoneDynamics:
    def test_mass_balance(self, engine_name):
        """After one step: tau = (1-rho) tau0 everywhere except deposits."""
        eng = make_engine(engine_name, model="aco")
        params = eng.config.params
        report = eng.step()
        total = sum(eng.pher.totals().values())
        base = 2 * 32 * 32 * params.tau0 * (1 - params.rho)
        assert total > base  # deposits added
        # Deposit per mover is q / tour <= q / 1.
        assert total <= base + report.moved * params.deposit_q + 1e-9

    def test_lem_engine_has_no_pheromone(self, engine_name):
        eng = make_engine(engine_name, model="lem")
        assert eng.pher is None
