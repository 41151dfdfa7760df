"""Cross-module integration tests: full pipelines end to end."""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine, paper_config, run_simulation
from repro.experiments import run_all
from repro.io import read_json_record, read_text_table
from repro.metrics import (
    GridlockDetector,
    ThroughputTracker,
    efficiency_report,
    lane_order_parameter,
)


class TestFullPipeline:
    def test_run_with_all_hooks(self, small_aco_config):
        eng = build_engine(small_aco_config, "vectorized")
        tracker = ThroughputTracker()
        detector = GridlockDetector()

        def hooks(engine, report):
            tracker(engine, report)
            detector(engine, report)

        result = eng.run(steps=60, callback=hooks)
        assert result.steps_run == 60
        summary = tracker.summary()
        assert summary.crossed_total == result.throughput_total
        report = efficiency_report(eng)
        assert report.crossed_fraction == summary.fraction

    def test_low_density_full_crossing_both_models(self):
        for model in ("lem", "aco"):
            cfg = SimulationConfig(
                height=48, width=48, n_per_side=40, steps=300, seed=11
            ).with_model(model)
            out = run_simulation(cfg)
            assert out.result.throughput_total == 80, model

    def test_high_density_lem_jams_aco_flows(self):
        """The paper's core finding at a scaled medium density."""
        base = paper_config(2560 * 14).scaled(10)  # 48x48, 14th scenario density
        lem = run_simulation(base.with_model("lem"), seed=0)
        aco = run_simulation(base.with_model("aco"), seed=0)
        assert aco.result.throughput_total > lem.result.throughput_total

    def test_aco_lane_formation_exceeds_random(self):
        """Pheromone following should segregate directions more than a
        random-walk crowd at the same density."""
        cfg = SimulationConfig(height=48, width=48, n_per_side=300, steps=250, seed=5)
        aco_eng = build_engine(cfg.with_model("aco"), "vectorized")
        rnd_eng = build_engine(cfg.with_model("random"), "vectorized")
        aco_eng.run(record_timeline=False)
        rnd_eng.run(record_timeline=False)
        aco_lanes = lane_order_parameter(aco_eng.env.mat)
        rnd_lanes = lane_order_parameter(rnd_eng.env.mat)
        assert aco_lanes >= rnd_lanes


class TestRunnerEndToEnd:
    def test_run_all_tiny(self, tmp_path):
        outdir = str(tmp_path / "results")
        report = run_all(
            outdir,
            scale="tiny",
            fig6a_seeds=(0,),
            fig6a_scenarios=(1, 8, 14),
            fig6b_scenarios=(14, 18),
            fig6b_seeds_cpu=(100, 101),
            fig6b_seeds_gpu=(200, 201),
            fig5_scenarios=(1, 3),
            fig5_steps=20,
            verbose=False,
        )
        # All artefacts written and readable.
        fig5 = read_text_table(f"{outdir}/fig5_modelled.txt")
        assert len(fig5["total_agents"]) == 40
        fig6a = read_text_table(f"{outdir}/fig6a_throughput.txt")
        assert list(fig6a["scenario"]) == [1.0, 8.0, 14.0]
        blob = read_json_record(f"{outdir}/report.json")
        assert blob["scale"] == "tiny"
        assert blob["fig6b_pvalue"] == pytest.approx(report.fig6b_pvalue)
        assert (np.asarray(fig5["speedup"]) > 10).all()


class TestPaperScaleSmoke:
    def test_one_step_at_paper_scale(self):
        """A single 480x480 step with 2,560 agents on the whole-array
        engine; guards against scaling regressions."""
        cfg = paper_config(2560, "aco").replace(steps=1)
        eng = build_engine(cfg, "vectorized")
        report = eng.step()
        assert report.moved > 0
        eng.validate_state()
