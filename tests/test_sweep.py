"""Sweep runner: grid expansion, batch planning (same-shape and padded
heterogeneous), execution equivalence, duplicate handling, process-pool
path, and the report/CLI surface."""

import multiprocessing
import os
import typing
from concurrent.futures import Future
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.engine import run_simulation
from repro.engine.batched import BatchedTimedResult
from repro.errors import ExperimentError
from repro.exec import launch_cost
from repro.exec.scheduler import BatchScheduler
from repro.experiments import (
    AGENT_INCREMENT,
    SweepPoint,
    SweepRunner,
    scenario_config,
    scenario_spec,
    smoke_sweep_points,
    sweep_grid,
)
from repro.io import read_json_record, read_text_table


@pytest.fixture
def launched(monkeypatch):
    """Every LaunchWork the scheduler runs inline, in run order."""
    import repro.exec.scheduler as scheduler_mod

    works = []
    real = scheduler_mod.execute_launch

    def record(work):
        works.append(work)
        return real(work)

    monkeypatch.setattr(scheduler_mod, "execute_launch", record)
    return works


def _seeds(points, batch):
    """The seeds of a planned batch's lanes, in lane order."""
    return tuple(points[i].seed for i in batch.indices)


class TestGridExpansion:
    def test_full_factorial_order(self):
        points = sweep_grid(
            (1, 2), (0, 1), models=("lem", "aco"), engines=("vectorized",), scale="tiny"
        )
        assert len(points) == 8
        # Scenario-major, then model, then seed.
        assert points[0] == SweepPoint(1, "lem", "vectorized", 0, "tiny")
        assert points[1] == SweepPoint(1, "lem", "vectorized", 1, "tiny")
        assert points[2] == SweepPoint(1, "aco", "vectorized", 0, "tiny")
        assert points[-1] == SweepPoint(2, "aco", "vectorized", 1, "tiny")

    def test_point_config_applies_steps_override(self):
        p = SweepPoint(1, scale="tiny", steps=7)
        assert p.config().steps == 7
        assert SweepPoint(1, scale="tiny").config().steps > 7

    def test_smoke_grid_is_tiny(self):
        points = smoke_sweep_points()
        assert len(points) == 8
        assert all(p.scale == "tiny" for p in points)


class TestPlanning:
    def test_same_key_seeds_batch_together(self):
        runner = SweepRunner(max_lanes=8)
        points = sweep_grid((1,), (0, 1, 2), models=("lem",), scale="tiny")
        units = runner.plan(points)
        assert len(units) == 1
        assert units[0].batched and _seeds(points, units[0]) == (0, 1, 2)

    def test_lane_cap_chunks_seeds(self):
        runner = SweepRunner(max_lanes=2)
        points = sweep_grid((1,), (0, 1, 2, 3, 4), scale="tiny")
        units = runner.plan(points)
        assert [_seeds(points, u) for u in units] == [(0, 1), (2, 3), (4,)]
        assert [u.batched for u in units] == [True, True, False]

    def test_max_lanes_one_disables_batching(self):
        runner = SweepRunner(max_lanes=1)
        units = runner.plan(sweep_grid((1,), (0, 1, 2), scale="tiny"))
        assert all(not u.batched and u.n_lanes == 1 for u in units)

    def test_sequential_engine_never_batches(self):
        runner = SweepRunner(max_lanes=8)
        units = runner.plan(
            sweep_grid((1,), (0, 1), engines=("sequential",), scale="tiny")
        )
        assert all(not u.batched for u in units)

    def test_duplicate_seeds_fall_back_to_solo(self):
        runner = SweepRunner(max_lanes=8)
        points = [SweepPoint(1, scale="tiny", seed=0), SweepPoint(1, scale="tiny", seed=0)]
        units = runner.plan(points)
        assert all(not u.batched for u in units)

    def test_duplicate_seed_only_degrades_the_duplicates(self):
        """Distinct seeds still batch; only the repeats run solo."""
        runner = SweepRunner(max_lanes=8)
        seeds = (0, 1, 0, 2, 1)
        points = [SweepPoint(1, scale="tiny", seed=s) for s in seeds]
        units = runner.plan(points)
        assert [(_seeds(points, u), u.batched) for u in units] == [
            ((0, 1, 2), True),
            ((0,), False),
            ((1,), False),
        ]
        # Every requested position is covered exactly once.
        covered = sorted(i for u in units for i in u.indices)
        assert covered == list(range(len(points)))

    def test_plan_units_carry_request_indices(self):
        runner = SweepRunner(max_lanes=2)
        points = sweep_grid((1, 2), (0, 1), scale="tiny")
        units = runner.plan(points)
        covered = sorted(i for u in units for i in u.indices)
        assert covered == list(range(len(points)))
        # Batches follow request order: lanes of scenario 1, then 2.
        assert [_seeds(points, u) for u in units] == [(0, 1), (0, 1)]
        assert [u.indices for u in units] == [(0, 1), (2, 3)]

    def test_invalid_parameters(self):
        with pytest.raises(ExperimentError):
            SweepRunner(max_lanes=0)
        with pytest.raises(ExperimentError):
            SweepRunner(processes=0)
        with pytest.raises(ExperimentError):
            SweepRunner(max_pad_waste=1.0)
        with pytest.raises(ExperimentError):
            SweepRunner(max_pad_waste=-0.1)


class TestScenarioTableCoupling:
    """SweepPoint.config() follows the paper's scenario table."""

    def test_config_population_matches_scenario_spec(self):
        for k in (1, 2, 7):
            point = SweepPoint(k, scale="tiny")
            expected = scenario_config(scenario_spec(k), scale="tiny")
            assert point.config().total_agents == expected.total_agents
            assert point.config() == expected

    def test_agent_increment_drives_the_table(self):
        assert scenario_spec(3).total_agents == 3 * AGENT_INCREMENT

    def test_rejects_scenario_index_below_one(self):
        with pytest.raises(ExperimentError):
            SweepPoint(0, scale="tiny")
        with pytest.raises(ExperimentError):
            scenario_spec(-2)

    def test_cli_exits_2_on_bad_scenario(self, capsys):
        assert main(["sweep", "--scenarios", "0-2", "--scale", "tiny",
                     "--models", "lem", "--seeds", "1"]) == 2
        assert "scenario_index must be >= 1" in capsys.readouterr().out


class TestPaddedPacking:
    """pad_lanes fuses mixed-scenario points under the waste bound."""

    def test_mixed_scenarios_fuse_into_padded_units(self):
        runner = SweepRunner(max_lanes=8, pad_lanes=True)
        points = sweep_grid((2, 3, 4), (0,), models=("lem",), scale="tiny")
        units = runner.plan(points)
        assert len(units) == 1
        unit = units[0]
        assert unit.batched and unit.mixed
        # Packed largest-population-first.
        assert [points[i].scenario_index for i in unit.indices] == [4, 3, 2]
        assert sorted(unit.indices) == [0, 1, 2]

    def test_waste_bound_splits_batches(self):
        # Scenario 1 (6 agents at tiny scale) against 4x larger lanes
        # pushes the padded fraction past the bound and is left out.
        runner = SweepRunner(max_lanes=8, pad_lanes=True, max_pad_waste=0.3)
        points = sweep_grid((1, 2, 3, 4), (0,), models=("lem",), scale="tiny")
        units = runner.plan(points)
        assert [tuple(points[i].scenario_index for i in u.indices)
                for u in units] == [(4, 3, 2), (1,)]
        assert not units[1].batched
        # A zero waste bound only fuses identically-sized lanes.
        strict = SweepRunner(max_lanes=8, pad_lanes=True, max_pad_waste=0.0)
        assert all(
            not u.mixed for u in strict.plan(points)
        )

    def test_same_key_chunks_still_batch_under_pad_mode(self):
        runner = SweepRunner(max_lanes=8, pad_lanes=True)
        points = sweep_grid((1,), (0, 1, 2), models=("lem",), scale="tiny")
        units = runner.plan(points)
        assert len(units) == 1
        assert units[0].batched and not units[0].mixed

    def test_padded_records_match_solo_runs(self):
        points = sweep_grid((1, 2, 3, 4), (0, 1), models=("lem", "aco"),
                            scale="tiny")
        padded = SweepRunner(max_lanes=8, pad_lanes=True).run(points)
        solo = SweepRunner(max_lanes=1).run(points)
        assert [r.throughput for r in padded] == [r.throughput for r in solo]
        assert [r.total_agents for r in padded] == [r.total_agents for r in solo]
        for point, record in zip(points, padded):
            assert (record.scenario_index, record.model, record.seed) == (
                point.scenario_index,
                point.model,
                point.seed,
            )

    def test_padded_cli_flag(self, capsys):
        assert main(["sweep", "--scenarios", "1-3", "--seeds", "1",
                     "--models", "lem", "--scale", "tiny", "--pad-lanes"]) == 0
        assert "padded lanes" in capsys.readouterr().out


class TestDuplicatePointRecords:
    """Identical requested points each keep their own record."""

    def test_duplicated_points_all_return_records(self):
        point = SweepPoint(1, scale="tiny", seed=0)
        records = SweepRunner(max_lanes=8).run([point, point, point])
        assert len(records) == 3
        assert all(r.seed == 0 and r.scenario_index == 1 for r in records)
        assert all(r.wall_seconds > 0 for r in records)

    def test_mixed_duplicates_preserve_request_order(self):
        points = [
            SweepPoint(1, scale="tiny", seed=0),
            SweepPoint(1, scale="tiny", seed=1),
            SweepPoint(1, scale="tiny", seed=0),
            SweepPoint(2, scale="tiny", seed=0),
        ]
        records = SweepRunner(max_lanes=8).run(points)
        assert [(r.scenario_index, r.seed) for r in records] == [
            (1, 0), (1, 1), (1, 0), (2, 0),
        ]


class TestPlatformCompat:
    """Explicit multiprocessing context + result-type annotations."""

    def test_pool_start_method_is_explicit_and_not_fork(self):
        from repro.exec import MP_START_METHOD

        assert MP_START_METHOD in multiprocessing.get_all_start_methods()
        assert MP_START_METHOD != "fork"

    def test_batched_result_config_annotation_is_optional(self):
        hints = typing.get_type_hints(BatchedTimedResult)
        assert hints["config"] == typing.Optional[SimulationConfig]
        assert BatchedTimedResult([], 0.0).config is None


class TestExecution:
    def test_records_match_solo_runs(self):
        points = sweep_grid((1, 2), (0, 1), models=("lem", "aco"), scale="tiny")
        records = SweepRunner(max_lanes=4).run(points)
        assert len(records) == len(points)
        for point, record in zip(points, records):
            assert (record.scenario_index, record.model, record.seed) == (
                point.scenario_index,
                point.model,
                point.seed,
            )
            solo = run_simulation(
                point.config(), engine=point.engine, record_timeline=False
            )
            assert record.throughput == solo.result.throughput_total
            assert record.steps == solo.result.steps_run

    def test_batched_and_solo_paths_agree(self):
        points = sweep_grid((2,), (0, 1, 2), models=("aco",), scale="tiny")
        batched = SweepRunner(max_lanes=4).run(points)
        solo = SweepRunner(max_lanes=1).run(points)
        assert [r.throughput for r in batched] == [r.throughput for r in solo]

    def test_process_pool_path(self):
        points = sweep_grid((1, 2), (0, 1), models=("lem", "aco"), scale="tiny")
        pooled = SweepRunner(max_lanes=2, processes=2).run(points)
        inline = SweepRunner(max_lanes=2, processes=1).run(points)
        assert [r.throughput for r in pooled] == [r.throughput for r in inline]

    def test_run_report_metadata(self):
        report = SweepRunner(max_lanes=2).run_report(smoke_sweep_points())
        assert report.n_points == 8
        assert report.max_lanes == 2
        assert report.wall_seconds > 0
        assert report.total_throughput > 0


class TestSweepCLI:
    def test_smoke_flag(self, capsys):
        assert main(["sweep", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "8 runs" in out
        assert "lem/vectorized" in out and "aco/vectorized" in out

    def test_writes_records(self, tmp_path, capsys):
        outdir = str(tmp_path / "sweep")
        code = main(
            [
                "sweep",
                "--scenarios",
                "1-2",
                "--seeds",
                "2",
                "--models",
                "lem",
                "--scale",
                "tiny",
                "--lanes",
                "2",
                "--out",
                outdir,
            ]
        )
        assert code == 0
        blob = read_json_record(os.path.join(outdir, "sweep.json"))
        assert blob["n_points"] == 4
        assert len(blob["records"]) == 4
        table = read_text_table(os.path.join(outdir, "sweep.txt"))
        assert table["throughput"].shape == (4,)

    def test_scenario_range_parsing(self):
        from repro.cli import _parse_scenarios

        assert _parse_scenarios("1,3,5-7") == [1, 3, 5, 6, 7]
        with pytest.raises(SystemExit):
            _parse_scenarios(",")
        with pytest.raises(SystemExit):
            _parse_scenarios("foo")

    def test_clean_errors_exit_2(self, capsys):
        assert main(["sweep", "--scenarios", "1", "--scale", "tiny",
                     "--models", "boids"]) == 2
        assert "unknown model" in capsys.readouterr().out
        assert main(["sweep", "--scenarios", "1", "--scale", "tiny",
                     "--lanes", "0"]) == 2
        assert "max_lanes" in capsys.readouterr().out

    def test_empty_grid_axes_exit_2(self, capsys):
        assert main(["sweep", "--scenarios", "1", "--scale", "tiny",
                     "--seeds", "0"]) == 2
        assert "--seeds selects no runs" in capsys.readouterr().out
        assert main(["sweep", "--scenarios", "1", "--scale", "tiny",
                     "--models", ","]) == 2
        assert "--models selects no runs" in capsys.readouterr().out


class TestDerivedPadWaste:
    """Default max_pad_waste derives from the cost model's dispatch overhead."""

    def test_bound_is_clamped_and_scale_monotone(self):
        from repro.planner import (
            MAX_PAD_WASTE_CEILING,
            MIN_PAD_WASTE,
            derived_pad_waste,
        )

        tiny = scenario_config(scenario_spec(1), model="lem", scale="tiny")
        paper = scenario_config(scenario_spec(40), model="lem", scale="standard")
        w_tiny = derived_pad_waste(tiny, 8)
        w_paper = derived_pad_waste(paper, 8)
        assert MIN_PAD_WASTE <= w_paper <= w_tiny <= MAX_PAD_WASTE_CEILING
        # Tiny grids are dispatch-dominated -> loose bound; paper scale is
        # compute-dominated -> tight bound.
        assert w_tiny > w_paper

    def test_default_runner_uses_derived_bound(self):
        # At the tiny scale the derived bound is looser than the old 0.3
        # hard-code, so scenario 1 now fuses into the padded batch instead
        # of falling out solo.
        runner = SweepRunner(max_lanes=8, pad_lanes=True)
        points = sweep_grid((1, 2, 3, 4), (0,), models=("lem",), scale="tiny")
        units = runner.plan(points)
        assert len(units) == 1 and units[0].mixed

    def test_explicit_bound_still_wins(self):
        runner = SweepRunner(max_lanes=8, pad_lanes=True, max_pad_waste=0.0)
        points = sweep_grid((1, 2), (0,), models=("lem",), scale="tiny")
        assert all(not u.mixed for u in runner.plan(points))

    def test_cli_pad_waste_override(self, capsys):
        assert main(["sweep", "--scenarios", "1-3", "--seeds", "1",
                     "--models", "lem", "--scale", "tiny", "--pad-lanes",
                     "--pad-waste", "0.0"]) == 0
        capsys.readouterr()

    def test_invalid_explicit_bound_still_rejected(self):
        with pytest.raises(ExperimentError):
            SweepRunner(max_pad_waste=1.0)


class _RecordingExecutor:
    """Stands in for an ExecutorPool: runs each launch at submit time and
    records the order launches were submitted in."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, work, cost, priority, owner):
        self.submitted.append(work)
        future = Future()
        future.set_result(fn(work))
        return future

    def peak_busy_for(self, owner):
        return 1


@dataclass(frozen=True)
class _PriorityJob:
    config: SimulationConfig
    engine: str = "vectorized"
    priority: int = 0


class TestPaddingAwarePoolScheduling:
    """Pool dispatch orders units by real agent-steps (LPT), not lane count."""

    def test_unit_cost_counts_real_agents_not_lanes(self, launched):
        runner = SweepRunner(max_lanes=8, pad_lanes=True)
        points = sweep_grid((1, 2, 3, 4), (0,), models=("lem",), scale="tiny")
        units = runner.plan(points)
        runner.run(points)
        assert len(launched) == len(units)
        for unit, work in zip(units, launched):
            lane_points = [points[i] for i in unit.indices]
            expected = sum(
                p.config().total_agents * p.config().steps for p in lane_points
            )
            assert launch_cost(work) == expected

    def test_heaviest_unit_dispatches_first(self):
        # Submission order is priority first, then real agent-steps, then
        # plan order. Four seeds of the 6-agent scenario 1 form the
        # widest launch, but one seed of the 50-agent scenario 8 is
        # heavier; a light priority-1 run goes ahead of both; and two
        # equal-cost solo runs keep their plan order.
        small = SweepPoint(1, scale="tiny", steps=5).config()
        big = SweepPoint(8, scale="tiny", steps=5).config()
        jobs = [_PriorityJob(small.replace(seed=s)) for s in range(4)]
        jobs.append(_PriorityJob(big))
        jobs.append(_PriorityJob(small.replace(seed=9), engine="sequential"))
        jobs.append(_PriorityJob(small.replace(seed=8), engine="sequential"))
        jobs.append(_PriorityJob(small.replace(steps=3), priority=1))
        executor = _RecordingExecutor()
        scheduler = BatchScheduler(max_lanes=4, pad_lanes=False, executor=executor)
        outcomes, stats = scheduler.execute(jobs)

        assert stats.engine_launches == 5
        assert all(o.error is None for o in outcomes)
        index = {job.config: i for i, job in enumerate(jobs)}
        submitted = [
            tuple(index[c] for c in work.configs) for work in executor.submitted
        ]
        assert submitted == [(7,), (4,), (0, 1, 2, 3), (5,), (6,)]

    def test_pool_path_matches_inline_records(self):
        points = sweep_grid((1, 2, 3, 4), (0, 1), models=("lem",), scale="tiny")
        pooled = SweepRunner(max_lanes=4, processes=2, pad_lanes=True).run(points)
        inline = SweepRunner(max_lanes=4, processes=1, pad_lanes=True).run(points)
        assert [r.throughput for r in pooled] == [r.throughput for r in inline]
        assert [r.seed for r in pooled] == [r.seed for r in inline]


class TestSweepBackendSelection:
    """SweepRunner(backend=...) threads the array backend to every lane."""

    def test_backend_applied_to_unit_configs(self, launched):
        runner = SweepRunner(max_lanes=4, backend="numpy")
        points = sweep_grid((1,), (0, 1), models=("lem",), scale="tiny")
        runner.run(points)
        assert len(launched) == 1
        configs = launched[0].configs
        assert all(cfg.backend == "numpy" for cfg in configs)

    def test_unavailable_backend_fails_fast(self):
        from repro.errors import BackendUnavailableError

        with pytest.raises(BackendUnavailableError):
            SweepRunner(backend="tpu")

    def test_cli_backend_flag_exit_codes(self, capsys):
        assert main(["sweep", "--scenarios", "1", "--seeds", "1",
                     "--models", "lem", "--scale", "tiny",
                     "--backend", "numpy"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--smoke", "--backend", "tpu"]) == 2
        assert "tpu" in capsys.readouterr().out


class TestFailedLaunch:
    """A launch that raises fails the sweep with the point it carried."""

    @pytest.fixture
    def scenario_2_fails(self, monkeypatch):
        import repro.exec.scheduler as scheduler_mod

        doomed = SweepPoint(2, scale="tiny").config().total_agents
        real = scheduler_mod.execute_launch

        def launch(work):
            if any(c.total_agents == doomed for c in work.configs):
                raise RuntimeError("engine blew up")
            return real(work)

        monkeypatch.setattr(scheduler_mod, "execute_launch", launch)

    def test_run_raises_naming_the_point(self, scenario_2_fails):
        points = sweep_grid((1, 2), (0,), models=("lem",), scale="tiny")
        with pytest.raises(ExperimentError) as info:
            SweepRunner(max_lanes=2).run(points)
        message = str(info.value)
        assert "scenario_index=2" in message
        assert "engine blew up" in message

    def test_cli_exits_2(self, scenario_2_fails, capsys):
        assert main(["sweep", "--scenarios", "1-2", "--seeds", "1",
                     "--models", "lem", "--scale", "tiny"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert "scenario_index=2" in out and "engine blew up" in out
