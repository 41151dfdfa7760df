"""ACO decision kernel tests (eq. 2 semantics)."""

import inspect

import numpy as np
import pytest

from repro.components.hooks import panic_variant
from repro.errors import ConfigurationError
from repro.experiments.ablations import sweep_alpha_beta
from repro.models import ACOModel, ACOParams, aco_numerators, params_from_name
from repro.rng import PhiloxKeyedRNG


class TestNumerators:
    def test_formula(self):
        dist = np.array([[2.0] + [np.inf] * 7])
        cand = np.zeros((1, 8), dtype=bool)
        cand[0, 0] = True
        tau = np.full((1, 8), 0.5)
        num = aco_numerators(dist, cand, tau, alpha=1.0, beta=2.0)
        assert num[0, 0] == pytest.approx(0.5 * (1.0 / 2.0) ** 2)
        assert np.count_nonzero(num) == 1

    def test_non_candidates_exact_zero(self):
        dist = np.full((1, 8), 3.0)
        cand = np.zeros((1, 8), dtype=bool)
        tau = np.full((1, 8), 1.0)
        num = aco_numerators(dist, cand, tau, 1.0, 2.0)
        assert np.all(num == 0.0)

    def test_infinite_distance_vanishes(self):
        """Out-of-bounds slots have D = inf; numerator must be 0 even if
        candidate flags were (incorrectly) set."""
        dist = np.full((1, 8), np.inf)
        cand = np.ones((1, 8), dtype=bool)
        tau = np.full((1, 8), 1.0)
        num = aco_numerators(dist, cand, tau, 1.0, 2.0)
        assert np.all(num == 0.0)

    def test_alpha_zero_ignores_pheromone(self):
        dist = np.full((1, 8), 2.0)
        cand = np.ones((1, 8), dtype=bool)
        tau = np.linspace(0.1, 1.0, 8)[None, :]
        num = aco_numerators(dist, cand, tau, 0.0, 2.0)
        assert np.allclose(num, num[0, 0])

    def test_beta_zero_ignores_distance(self):
        dist = np.linspace(1, 8, 8)[None, :]
        cand = np.ones((1, 8), dtype=bool)
        tau = np.full((1, 8), 0.7)
        num = aco_numerators(dist, cand, tau, 1.0, 0.0)
        assert np.allclose(num, 0.7)


class TestSelect:
    def _model(self, **kw):
        return ACOModel(ACOParams(**kw))

    def test_empty_row_stays(self, rng):
        model = self._model()
        slot = model.select(np.zeros((1, 8)), rng, 0, np.array([1]))
        assert slot[0] == -1

    def test_single_candidate_chosen(self, rng):
        model = self._model()
        scan = np.zeros((1, 8))
        scan[0, 4] = 0.3
        slot = model.select(scan, rng, 0, np.array([1]))
        assert slot[0] == 4

    def test_proportional_sampling(self):
        """Slot frequencies must match the random proportional rule."""
        model = self._model()
        rng = PhiloxKeyedRNG(5)
        scan = np.zeros((100000, 8))
        scan[:, 0] = 3.0
        scan[:, 1] = 1.0
        slots = model.select(scan, rng, 0, np.arange(1, 100001))
        f0 = np.mean(slots == 0)
        assert f0 == pytest.approx(0.75, abs=0.01)

    def test_pheromone_bias(self):
        """Higher tau on a slot increases its selection frequency."""
        model = self._model()
        rng = PhiloxKeyedRNG(9)
        dist = np.full((50000, 8), np.inf)
        dist[:, 1] = dist[:, 2] = 2.0
        cand = np.zeros((50000, 8), dtype=bool)
        cand[:, 1] = cand[:, 2] = True
        tau = np.zeros((50000, 8))
        tau[:, 1] = 0.9
        tau[:, 2] = 0.1
        scan = model.scan_values(model.slot_table(dist), cand, tau)
        slots = model.select(scan, rng, 0, np.arange(1, 50001))
        assert np.mean(slots == 1) == pytest.approx(0.9, abs=0.01)

    def test_scan_requires_tau(self):
        model = self._model()
        with pytest.raises(ValueError, match="pheromone"):
            model.scan_values(np.ones((1, 8)), np.ones((1, 8), dtype=bool), None)

    def test_uses_pheromone_flag(self):
        assert self._model().uses_pheromone


class TestScalarEquivalence:
    def test_scalar_matches_vectorized(self):
        model = ACOModel(ACOParams())
        rng = PhiloxKeyedRNG(23)
        n = 50
        gen = np.random.default_rng(1)
        scan = np.where(gen.random((n, 8)) < 0.5, gen.random((n, 8)), 0.0)
        lanes = np.arange(1, n + 1)
        for step in range(4):
            vec = model.select(scan, rng, step, lanes)
            variates = model.scalar_prepare(rng, step, n)
            for i in range(n):
                assert model.select_scalar(list(scan[i]), i + 1, variates) == vec[i]

    def test_scan_value_scalar_matches(self):
        model = ACOModel(ACOParams(alpha=1.0, beta=2.0))
        dist = np.array([[2.5, np.inf, 3.0, 1.0, 4.0, 5.0, 6.0, 7.0]])
        cand = np.array([[True, False, True, True, True, True, True, True]])
        tau = np.array([[0.3, 0.0, 0.2, 0.8, 0.1, 0.5, 0.4, 0.9]])
        table = model.slot_table(dist)
        vec = model.scan_values(table.copy(), cand, tau)
        assert np.array_equal(vec, aco_numerators(dist, cand, tau, 1.0, 2.0))
        for s in range(8):
            if cand[0, s]:
                assert model.scan_value_scalar(table[0, s], tau[0, s]) == vec[0, s]


class TestNumeratorOverflow:
    """The engines mask eq. 2 numerators by multiplying with the candidate
    flags, exact only while every numerator is finite, so a bundle whose
    largest numerator ``tau_max^alpha * (1/MIN_DISTANCE)^beta`` overflows
    float64 is refused up front."""

    @pytest.mark.parametrize(
        "params",
        [ACOParams(), panic_variant(ACOParams()), ACOParams(beta=1.5)]
        + [
            ACOParams(alpha=a, beta=b)
            for a, b in inspect.signature(sweep_alpha_beta).parameters[
                "pairs"
            ].default
        ],
        ids=repr,
    )
    def test_shipped_bundles_pass(self, params):
        params.validate()

    def test_overflowing_beta_raises(self):
        with pytest.raises(ConfigurationError, match="overflow"):
            ACOParams(beta=60).validate()

    def test_overflowing_alpha_raises_without_overflow_error(self):
        # 1e3 ** 200 raises OverflowError in Python float arithmetic.
        with pytest.raises(ConfigurationError, match="overflow"):
            ACOParams(alpha=200.0).validate()

    def test_cli_run_exits_2(self, monkeypatch, capsys):
        import repro.config
        from repro.cli import main

        def steep(name):
            return ACOParams(beta=60) if name == "aco" else params_from_name(name)

        monkeypatch.setattr(repro.config, "params_from_name", steep)
        code = main(
            ["run", "--height", "16", "--width", "16", "--agents", "10",
             "--steps", "5", "--model", "aco"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "error:" in out and "overflow" in out
