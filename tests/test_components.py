"""Component framework: registries, step hooks and named scenarios.

Covers the registry contract (duplicates refused, unknown names listed),
the model registry behind :func:`repro.models.build_model`, step-hook
wire round-trips and engine semantics (including per-lane hooks inside
padded batches staying bit-identical to solo runs), and the named
scenario families end-to-end through configs, digests, sweeps and the
analytics store.
"""

import numpy as np
import pytest

from repro import SimulationConfig
from repro.analytics import RunStore
from repro.components import MODEL_PARAMS, Registry
from repro.components.hooks import HOOKS, PanicHook, hook_from_dict, panic_variant
from repro.components.scenarios import (
    SCENARIOS,
    build_scenario,
    expand_scenarios,
    parse_scenario_name,
)
from repro.engine import BatchedEngine, build_engine
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import SweepPoint, SweepRunner, named_sweep_points
from repro.io import config_digest, engine_state_digest
from repro.models import build_model, params_from_dict, params_from_name


class TestRegistry:
    def test_register_get_and_names(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        assert reg.get("alpha") == 1
        assert reg.names() == ["alpha", "beta"]
        assert "alpha" in reg and len(reg) == 2
        assert dict(reg.entries) == {"alpha": 1, "beta": 2}

    def test_lookup_normalises_case_and_whitespace(self):
        reg = Registry("widget")
        reg.register("Alpha", 1)
        assert reg.get("  alpha ") == 1

    def test_duplicate_name_is_refused(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("alpha", 2)
        # The original binding survives the failed attempt.
        assert reg.get("alpha") == 1

    def test_blank_name_is_refused(self):
        reg = Registry("widget")
        with pytest.raises(ConfigurationError):
            reg.register("   ", 1)

    def test_unknown_name_lists_registered(self):
        reg = Registry("widget")
        reg.register("beta", 2)
        reg.register("alpha", 1)
        with pytest.raises(
            ConfigurationError, match=r"\['alpha', 'beta'\]"
        ) as excinfo:
            reg.get("gamma")
        assert "unknown widget 'gamma'" in str(excinfo.value)


class TestModelRegistry:
    def test_all_four_models_registered(self):
        for name in ("lem", "aco", "random", "greedy"):
            assert name in MODEL_PARAMS

    def test_build_model_dispatches_by_params_name(self):
        for name in ("lem", "aco", "random", "greedy"):
            model = build_model(params_from_name(name))
            assert model.params.model_name == name

    def test_unknown_model_is_configuration_error_not_typeerror(self):
        class FakeParams:
            model_name = "boids"

        with pytest.raises(ConfigurationError, match="boids"):
            build_model(FakeParams())

    def test_params_from_dict_unknown_model_lists_names(self):
        with pytest.raises(ConfigurationError, match="registered"):
            params_from_dict({"model_name": "boids"})

    def test_params_from_dict_bad_field_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            params_from_dict({"model_name": "lem", "no_such_knob": 3})


def _cfg(**kw):
    base = dict(height=18, width=12, n_per_side=10, steps=24, seed=3)
    base.update(kw)
    return SimulationConfig(**base)


class TestHookConfig:
    def test_panic_hook_registered(self):
        assert "panic" in HOOKS

    def test_negative_trigger_refused(self):
        with pytest.raises(ConfigurationError):
            _cfg(hooks=(PanicHook(trigger_step=-1),))

    def test_plain_config_wire_format_unchanged(self):
        # Pre-framework digests must not move: a config without
        # components emits neither key.
        out = _cfg().to_dict()
        assert "hooks" not in out and "scenario" not in out

    def test_hooked_config_round_trips_and_changes_digest(self):
        plain = _cfg()
        hooked = plain.replace(hooks=(PanicHook(trigger_step=7),))
        assert config_digest(hooked) != config_digest(plain)
        back = SimulationConfig.from_dict(hooked.to_dict())
        assert back == hooked
        assert config_digest(back) == config_digest(hooked)

    def test_hook_dict_round_trip(self):
        hook = PanicHook(
            trigger_step=4, panic_params=panic_variant(params_from_name("aco"))
        )
        assert hook_from_dict(hook.to_dict()) == hook

    def test_unknown_hook_kind_listed(self):
        with pytest.raises(ConfigurationError, match="registered"):
            hook_from_dict({"kind": "teleport"})

    def test_panic_variant_requires_panicable_model(self):
        with pytest.raises(ConfigurationError):
            panic_variant(params_from_name("random"))


class TestHookSemantics:
    def test_hook_changes_solo_trajectory(self):
        cfg = _cfg(steps=30).with_model("lem")
        plain = build_engine(cfg, engine="vectorized").run(record_timeline=True)
        hooked = build_engine(
            cfg.replace(hooks=(PanicHook(trigger_step=5),)), engine="vectorized"
        ).run(record_timeline=True)
        assert not np.array_equal(plain.moved_per_step, hooked.moved_per_step)

    def test_sequential_matches_vectorized_with_hook(self):
        cfg = _cfg(steps=30).with_model("aco").replace(
            hooks=(PanicHook(trigger_step=6),)
        )
        seq = build_engine(cfg, engine="sequential").run(record_timeline=True)
        vec = build_engine(cfg, engine="vectorized").run(record_timeline=True)
        assert np.array_equal(seq.moved_per_step, vec.moved_per_step)
        assert seq.throughput_total == vec.throughput_total

    def test_hook_matches_legacy_panic_alarm_callback(self):
        # Final-state digests of the retired ``PanicAlarm`` run callback
        # (trigger 0 fired before step 1, like trigger 1), recorded
        # before it was removed: the hook must keep reproducing them.
        legacy_digests = {0: "440ed82a95dd46c5", 1: "440ed82a95dd46c5",
                          11: "13daadc5a270467f"}
        cfg = _cfg(steps=24).with_model("lem")
        for trigger, digest in legacy_digests.items():
            hooked = build_engine(
                cfg.replace(hooks=(PanicHook(trigger_step=trigger),)),
                engine="vectorized",
            )
            hooked.run(record_timeline=False)
            assert engine_state_digest(hooked) == digest
            assert hooked.model.params == panic_variant(cfg.params)

    @pytest.mark.parametrize("model", ["lem", "aco"])
    def test_batched_mixed_hooked_lanes_match_solo(self, model):
        # The regression the framework closes: a hooked lane inside a
        # padded batch next to an unhooked lane must reproduce its solo
        # trajectory bit-for-bit, and must not perturb its neighbour.
        hook = PanicHook(trigger_step=5)
        hooked_cfg = _cfg(steps=20).with_model(model).replace(hooks=(hook,))
        plain_cfg = _cfg(steps=20, n_per_side=8).with_model(model)
        seeds = (3, 4)
        batched = BatchedEngine([hooked_cfg, plain_cfg], seeds)
        got = batched.run(record_timeline=True)
        for lane, cfg in enumerate((hooked_cfg, plain_cfg)):
            solo = build_engine(cfg, engine="vectorized", seed=seeds[lane])
            res = solo.run(record_timeline=True)
            assert np.array_equal(
                got[lane].moved_per_step, res.moved_per_step
            )
            assert got[lane].throughput_total == res.throughput_total

    def test_batched_lane_model_swap_guard(self):
        from repro.errors import EngineError

        cfg = _cfg(steps=10).with_model("lem")
        batched = BatchedEngine(cfg, (0, 1))
        with pytest.raises(EngineError):
            batched.swap_lane_model(0, params_from_name("aco"))


class TestScenarioRegistry:
    def test_families_registered(self):
        for family in ("paper", "boarding", "crossing"):
            assert family in SCENARIOS

    def test_parse_scenario_name(self):
        assert parse_scenario_name("boarding:30x7") == ("boarding", "30x7")
        with pytest.raises(ConfigurationError):
            parse_scenario_name("")

    def test_unknown_family_lists_registered(self):
        with pytest.raises(ConfigurationError, match="boarding"):
            build_scenario("metro:1")

    def test_expand_handles_commas_wildcards_and_dedup(self):
        names = expand_scenarios("crossing:*,crossing:12x12,boarding:12x5")
        assert names[-1] == "boarding:12x5"
        assert len(names) == len(set(names))
        assert all(n.startswith(("crossing:", "boarding:")) for n in names)

    def test_paper_family_preserved(self):
        cfg = build_scenario("paper:2", scale="tiny")
        assert cfg.scenario == "paper:2"
        from repro.experiments.scenarios import scenario_config, scenario_spec

        legacy = scenario_config(scenario_spec(2), model="lem", scale="tiny")
        assert cfg.replace(scenario=None) == legacy

    def test_boarding_geometry(self):
        cfg = build_scenario("boarding:30x7", scale="tiny")
        assert (cfg.height, cfg.width) == (38, 7)
        assert cfg.obstacles.kind == "rects"
        aisle = cfg.width // 2
        for top, left, bottom, right in cfg.obstacles.rects:
            assert 0 <= top < bottom <= cfg.height
            assert 0 <= left < right <= cfg.width
            # Seat rows never block the aisle column or the spawn bands.
            assert not (left <= aisle < right)
            assert top >= cfg.band_rows
            assert bottom <= cfg.height - cfg.band_rows

    def test_crossing_geometry(self):
        cfg = build_scenario("crossing:40x40", scale="tiny")
        assert (cfg.height, cfg.width) == (40, 40)
        assert len(cfg.obstacles.rects) == 4
        for top, left, bottom, right in cfg.obstacles.rects:
            assert 0 <= top < bottom <= cfg.height
            assert 0 <= left < right <= cfg.width

    def test_undersized_dims_refused(self):
        with pytest.raises(ConfigurationError):
            build_scenario("boarding:3x3")
        with pytest.raises(ConfigurationError):
            build_scenario("crossing:4x4")
        with pytest.raises(ConfigurationError):
            build_scenario("boarding:7")

    def test_every_registered_variant_builds_and_steps(self):
        for family in SCENARIOS.names():
            for name in expand_scenarios([f"{family}:*"]):
                cfg = build_scenario(name, scale="tiny")
                assert cfg.scenario == name
                eng = build_engine(cfg, engine="vectorized")
                eng.run(steps=3)

    def test_scenario_label_round_trips_through_digest(self):
        a = build_scenario("crossing:12x12", scale="tiny")
        b = build_scenario("crossing:12x12", scale="tiny")
        assert config_digest(a) == config_digest(b)
        back = SimulationConfig.from_dict(a.to_dict())
        assert back.scenario == "crossing:12x12"
        assert config_digest(back) == config_digest(a)
        # The label is part of the identity: same geometry, new name.
        assert config_digest(a) != config_digest(a.replace(scenario=None))

    def test_run_store_keeps_named_label(self, tmp_path):
        store = RunStore(str(tmp_path / "runs.sqlite"))
        named = build_scenario("boarding:12x5", scale="tiny")
        plain = _cfg()
        store.begin_runs(
            [
                ("run-1", named, "vectorized", config_digest(named)),
                ("run-2", plain, "vectorized", config_digest(plain)),
            ]
        )
        rows = {r["run_id"]: r for r in store.runs()}
        assert rows["run-1"]["scenario"] == "boarding:12x5"
        assert rows["run-2"]["scenario"] == f"{plain.height}x{plain.width}"
        assert store.runs(scenario="boarding:12x5")[0]["run_id"] == "run-1"
        store.close()


class TestNamedSweep:
    def test_point_needs_exactly_one_selector(self):
        with pytest.raises(ExperimentError):
            SweepPoint(scenario_index=1, scenario="boarding:12x5")
        with pytest.raises(ExperimentError):
            SweepPoint(scenario_index=0)

    def test_named_points_expand_scenario_major(self):
        pts = named_sweep_points(
            ["crossing:*"], seeds=(0, 1), models=("lem",), scale="tiny"
        )
        assert [p.scenario for p in pts[:2]] == ["crossing:12x12"] * 2
        assert all(p.scenario_index == 0 for p in pts)
        assert {p.seed for p in pts} == {0, 1}

    def test_padded_named_sweep_matches_solo_runs(self):
        pts = named_sweep_points(
            ["boarding:12x5", "crossing:12x12"],
            seeds=(0, 1),
            models=("lem",),
            scale="tiny",
        )
        padded = SweepRunner(max_lanes=4, pad_lanes=True, max_pad_waste=0.9)
        solo = SweepRunner(max_lanes=1)
        key = lambda r: (r.scenario, r.model, r.seed)  # noqa: E731
        got = {key(r): r.throughput for r in padded.run(pts)}
        want = {key(r): r.throughput for r in solo.run(pts)}
        assert got == want
        assert set(got) == {
            ("boarding:12x5", "lem", 0),
            ("boarding:12x5", "lem", 1),
            ("crossing:12x12", "lem", 0),
            ("crossing:12x12", "lem", 1),
        }
