"""Baseline policy tests (random / greedy)."""

import numpy as np
import pytest

from repro.models import GreedyModel, GreedyParams, RandomModel, RandomParams
from repro.rng import PhiloxKeyedRNG


class TestRandomModel:
    def test_uniform_over_candidates(self):
        model = RandomModel(RandomParams())
        rng = PhiloxKeyedRNG(2)
        scan = np.zeros((60000, 8))
        scan[:, [1, 4, 7]] = 1.0
        slots = model.select(scan, rng, 0, np.arange(1, 60001))
        for s in (1, 4, 7):
            assert np.mean(slots == s) == pytest.approx(1 / 3, abs=0.01)

    def test_no_candidates(self, rng):
        model = RandomModel(RandomParams())
        assert model.select(np.zeros((1, 8)), rng, 0, np.array([1]))[0] == -1

    def test_scan_values_are_indicators(self):
        model = RandomModel(RandomParams())
        cand = np.array([[True, False] * 4])
        vals = model.scan_values(np.ones((1, 8)), cand)
        assert np.array_equal(vals, cand.astype(float))

    def test_scalar_matches(self):
        model = RandomModel(RandomParams())
        rng = PhiloxKeyedRNG(4)
        scan = np.zeros((30, 8))
        scan[:, 2] = 1.0
        scan[::2, 5] = 1.0
        vec = model.select(scan, rng, 1, np.arange(1, 31))
        variates = model.scalar_prepare(rng, 1, 30)
        for i in range(30):
            assert model.select_scalar(list(scan[i]), i + 1, variates) == vec[i]


class TestGreedyModel:
    def test_always_picks_nearest(self):
        model = GreedyModel(GreedyParams())
        rng = PhiloxKeyedRNG(2)
        scan = np.zeros((100, 8))
        scan[:, 0] = 5.0
        scan[:, 3] = 2.0  # nearest
        slots = model.select(scan, rng, 0, np.arange(1, 101))
        assert np.all(slots == 3)

    def test_tie_break_unbiased(self):
        model = GreedyModel(GreedyParams())
        rng = PhiloxKeyedRNG(2)
        scan = np.zeros((20000, 8))
        scan[:, 1] = scan[:, 2] = 3.0
        slots = model.select(scan, rng, 0, np.arange(1, 20001))
        assert abs(np.mean(slots == 1) - 0.5) < 0.02

    def test_no_candidates(self, rng):
        model = GreedyModel(GreedyParams())
        assert model.select(np.zeros((1, 8)), rng, 0, np.array([1]))[0] == -1

    def test_scalar_matches(self):
        model = GreedyModel(GreedyParams())
        rng = PhiloxKeyedRNG(6)
        gen = np.random.default_rng(0)
        scan = np.where(gen.random((40, 8)) < 0.6, gen.integers(1, 5, (40, 8)).astype(float), 0.0)
        vec = model.select(scan, rng, 2, np.arange(1, 41))
        variates = model.scalar_prepare(rng, 2, 40)
        for i in range(40):
            assert model.select_scalar(list(scan[i]), i + 1, variates) == vec[i]


def _registered_models():
    from repro.components.models import MODEL_CLASSES

    return sorted(MODEL_CLASSES.names())


class TestNoCandidateContract:
    """Every registered model returns -1 ("no move") on a row with no
    candidate. The whole-array engines rely on it: a deciding row with no
    empty neighbour writes -1 without calling ``select`` at all, which is
    exact only if ``select`` would have returned -1 for it."""

    def test_registry_holds_the_built_ins(self):
        assert {"lem", "aco", "random", "greedy"} <= set(_registered_models())

    @pytest.mark.parametrize("name", _registered_models())
    def test_select_returns_minus_one_on_all_false_rows(self, name):
        from repro.models import build_model, params_from_name
        from repro.rng import BatchedPhiloxRNG

        model = build_model(params_from_name(name))
        n = 64
        candidates = np.zeros((n, 8), dtype=bool)
        # Every other row has candidates, so -1 is per row, not per call.
        candidates[1::2, 1:6] = True
        dist = np.tile(np.linspace(1.0, 3.0, 8), (n, 1))
        tau = np.ones((n, 8))
        scan = model.scan_values(model.slot_table(dist), candidates, tau)
        lanes = np.arange(1, n + 1)
        ragged = BatchedPhiloxRNG((7, 8)).ragged(np.arange(n) % 2)
        for rng in (PhiloxKeyedRNG(7), ragged):
            for step in range(5):
                slots = model.select(scan, rng, step, lanes)
                assert np.all(slots[0::2] == -1)
                # Rows with candidates take one of them (the LEM may wait).
                live = slots[1::2]
                took = candidates[1::2][np.arange(n // 2), live]
                assert np.all((live == -1) | took)

    @pytest.mark.parametrize("name", _registered_models())
    def test_select_scalar_returns_minus_one_on_all_zero_rows(self, name):
        from repro.models import build_model, params_from_name

        model = build_model(params_from_name(name))
        rng = PhiloxKeyedRNG(7)
        for step in range(5):
            variates = model.scalar_prepare(rng, step, 4)
            for agent in range(1, 5):
                assert model.select_scalar([0.0] * 8, agent, variates) == -1
