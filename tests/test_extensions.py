"""Tests for the Section VII future-work extensions."""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine
from repro.errors import ConfigurationError
from repro.components.hooks import PanicHook, hook_from_dict
from repro.extensions import panic_variant
from repro.models import ACOParams, LEMParams, RandomParams


class TestPanicVariant:
    def test_lem_panic_always_moves(self):
        p = panic_variant(LEMParams())
        assert p.rule == "ceil"
        p.validate()

    def test_aco_panic_weights(self):
        base = ACOParams()
        p = panic_variant(base)
        assert p.beta >= 3.0
        assert p.rho > base.rho
        p.validate()

    def test_unknown_params_raise(self):
        with pytest.raises(ConfigurationError):
            panic_variant(RandomParams())


class TestPanicAlarm:
    """The Section VII panic alarm, configured as a :class:`PanicHook`."""

    def _cfg(self, model="lem", trigger=None):
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=140, steps=80, seed=12
        ).with_model(model)
        if trigger is not None:
            cfg = cfg.replace(hooks=(PanicHook(trigger_step=trigger),))
        return cfg

    def test_fires_once_at_trigger(self):
        cfg = self._cfg(trigger=20)
        eng = build_engine(cfg, "vectorized")
        for _ in range(20):
            eng.step()
        assert eng.model.params == cfg.params
        eng.step()  # the hook fires before step 20 executes
        assert eng.model.params == panic_variant(cfg.params)
        for _ in range(10):
            eng.step()
        assert eng.model.params == panic_variant(cfg.params)

    def test_changes_trajectory(self):
        base = build_engine(self._cfg(), "vectorized")
        base.run(record_timeline=False)
        panicked = build_engine(self._cfg(trigger=10), "vectorized")
        panicked.run(record_timeline=False)
        assert not base.env.equals(panicked.env)

    def test_no_effect_before_trigger(self):
        a = build_engine(self._cfg(), "vectorized")
        b = build_engine(self._cfg(trigger=30), "vectorized")
        for _ in range(30):
            assert a.step() == b.step()
        assert a.state_equals(b)
        assert b.model.params == a.model.params
        b.step()
        assert b.model.params == panic_variant(a.model.params)

    def test_panicked_lem_unjams_medium_density(self):
        """At the jamming knee, panic (always-move) raises throughput."""
        cfg = self._cfg("lem").replace(n_per_side=90, steps=120)
        calm = build_engine(cfg, "vectorized")
        calm.run(record_timeline=False)
        panicked = build_engine(
            cfg.replace(hooks=(PanicHook(trigger_step=5),)), "vectorized"
        )
        panicked.run(record_timeline=False)
        assert panicked.throughput() > calm.throughput()

    def test_equivalence_preserved_under_panic(self):
        cfg = self._cfg("aco", trigger=15).replace(n_per_side=60, steps=40)
        seq = build_engine(cfg, "sequential")
        vec = build_engine(cfg, "vectorized")
        for _ in range(40):
            assert seq.step() == vec.step()
        assert seq.state_equals(vec)

    def test_swap_to_pheromone_model_creates_field(self):
        eng = build_engine(self._cfg("lem"), "vectorized")
        assert eng.pher is None
        eng.swap_model(ACOParams())
        assert eng.pher is not None
        eng.step()
        eng.validate_state()

    def test_swap_away_from_pheromone_drops_field(self):
        eng = build_engine(self._cfg("aco"), "vectorized")
        eng.swap_model(LEMParams())
        assert eng.pher is None

    def test_trigger_validation(self):
        with pytest.raises(ConfigurationError):
            self._cfg(trigger=-1)
        with pytest.raises(ConfigurationError):
            hook_from_dict({"kind": "panic", "trigger_step": "soon"})


class TestHeterogeneousSpeeds:
    def _cfg(self, slow=0.5, period=2):
        return SimulationConfig(
            height=32, width=32, n_per_side=50, steps=120, seed=21,
            slow_fraction=slow, slow_period=period,
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(slow_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(slow_period=1)

    def test_eligibility_mask_default_all(self):
        eng = build_engine(self._cfg(slow=0.0), "vectorized")
        assert eng.eligible_mask(3).all()

    def test_slow_fraction_assignment(self):
        eng = build_engine(self._cfg(slow=0.5), "vectorized")
        frac = eng._slow_mask[1:].mean()
        assert frac == pytest.approx(0.5, abs=0.15)
        assert not eng._slow_mask[0]

    def test_slow_agents_gated_by_period(self):
        eng = build_engine(self._cfg(slow=1.0, period=3), "vectorized")
        masks = np.stack([eng.eligible_mask(t)[1:] for t in range(3)])
        # Each agent is eligible in exactly one of any 3 consecutive steps.
        assert np.array_equal(masks.sum(axis=0), np.ones(eng.pop.n_agents))

    def test_slow_crowd_crosses_later(self):
        from repro.metrics import ThroughputTracker

        def mean_step(slow):
            eng = build_engine(self._cfg(slow=slow), "vectorized")
            tracker = ThroughputTracker()
            eng.run(callback=tracker, record_timeline=False)
            return tracker.summary().mean_crossing_step

        assert mean_step(0.8) > mean_step(0.0)

    def test_equivalence_with_speed_classes(self):
        cfg = self._cfg(slow=0.4).replace(steps=40)
        for model in ("lem", "aco"):
            seq = build_engine(cfg.with_model(model), "sequential")
            vec = build_engine(cfg.with_model(model), "vectorized")
            til = build_engine(cfg.with_model(model), "tiled")
            for _ in range(40):
                rs, rv, rt = seq.step(), vec.step(), til.step()
                assert rs == rv == rt
            assert seq.state_equals(vec) and vec.state_equals(til)

    def test_slow_agents_move_less(self):
        cfg = self._cfg(slow=0.5, period=2).replace(steps=60)
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        slow_tours = eng.pop.tour[eng._slow_mask]
        fast_tours = eng.pop.tour[~eng._slow_mask & (eng.pop.ids > 0)]
        assert slow_tours.mean() < fast_tours.mean()