"""CLI tests."""

import pytest

from repro.cli import build_parser, main
from repro.engine import available_engines


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("info", "run", "sweep", "occupancy", "speedup"):
            assert parser.parse_args([cmd]).command == cmd

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--model", "aco", "--engine", "sequential", "--steps", "5"]
        )
        assert args.model == "aco" and args.engine == "sequential" and args.steps == 5

    @pytest.mark.parametrize("command", ["run", "submit"])
    def test_engine_choices_are_the_registry(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--engine", "tiled"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'tiled'" in err
        for name in available_engines():
            assert name in err

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--scenarios", "1-3", "--lanes", "4", "--smoke"]
        )
        assert args.scenarios == "1-3" and args.lanes == 4 and args.smoke

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "boids"])

    def test_serve_analytics_db_option(self):
        args = build_parser().parse_args(
            ["serve", "--analytics-db", "runs.sqlite"]
        )
        assert args.analytics_db == "runs.sqlite"
        assert build_parser().parse_args(["serve"]).analytics_db is None

    def test_analytics_options(self):
        args = build_parser().parse_args(
            ["analytics", "--db", "runs.sqlite", "--scenario", "64x64",
             "--diagram"]
        )
        assert args.db == "runs.sqlite"
        assert args.scenario == "64x64" and args.diagram

    def test_analytics_db_and_host_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analytics", "--db", "a.sqlite", "--host", "localhost"]
            )


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX 560 Ti" in out and "scales:" in out

    def test_run(self, capsys):
        code = main(
            ["run", "--height", "16", "--width", "16", "--agents", "10",
             "--steps", "20", "--model", "aco"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crossed" in out
        assert "lane order" in out

    def test_run_named_scenario(self, capsys):
        code = main(
            ["run", "--scenario", "crossing:12x12", "--scale", "tiny"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "12x12" in out and "crossed" in out

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "--scenario", "metro:9"]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and "registered" in out

    def test_run_profile_dispatch(self, capsys):
        code = main(
            ["run", "--height", "16", "--width", "16", "--agents", "10",
             "--steps", "5", "--profile-dispatch"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crossed" in out
        assert "dispatch profile over 5 steps" in out
        assert "ops/step" in out and "hottest ops:" in out

    def test_sweep_named_scenarios_smoke(self, capsys):
        code = main(["sweep", "--scenario", "crossing:*", "--smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "crossing:12x12" in out and "crossing:16x16" in out

    def test_sweep_named_scenarios(self, capsys):
        code = main(
            ["sweep", "--scenario", "boarding:12x5", "--scale", "tiny",
             "--seeds", "2", "--models", "lem"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "boarding:12x5" in out

    def test_sweep_bad_named_scenario_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "boarding:2x2"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_run_render(self, capsys):
        code = main(
            ["run", "--height", "16", "--width", "16", "--agents", "10",
             "--steps", "5", "--render"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crossed" in out and len(out.splitlines()) > 10

    def test_occupancy(self, capsys):
        assert main(["occupancy", "--threads", "256", "--registers", "20"]) == 0
        out = capsys.readouterr().out
        assert "100%" in out

    def test_speedup(self, capsys):
        assert main(["speedup", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "17.95x" in out or "agents:" in out

    def test_notes(self, capsys):
        assert main(["notes", "--agents", "2560"]) == 0
        out = capsys.readouterr().out
        assert "Implementation notes" in out
        assert "initial_calculation" in out

    def test_figures_tiny(self, tmp_path, capsys):
        code = main(
            ["figures", "--outdir", str(tmp_path / "res"), "--scale", "tiny",
             "--seeds", "1"]
        )
        assert code == 0
        assert (tmp_path / "res" / "report.json").exists()
        assert (tmp_path / "res" / "fig6a_throughput.txt").exists()
        assert (tmp_path / "res" / "table1_hardware.txt").exists()


class TestAnalyticsCommand:
    @pytest.fixture()
    def db(self, tmp_path, tiny_config):
        # Two completed runs on different geometries, written the same
        # way the service writes them.
        from repro.analytics import RunStore

        path = str(tmp_path / "runs.sqlite")
        store = RunStore(path)
        for i, cfg in enumerate(
            (tiny_config, tiny_config.replace(height=24, width=24, seed=5))
        ):
            rid = f"job-{i:06d}"
            store.begin_run(rid, cfg, "vectorized", f"d{i}")
            store.finish_run(
                rid, "done", throughput_total=12 + i, wall_seconds=0.1
            )
        store.close()
        return path

    def test_offline_listing(self, db, capsys):
        assert main(["analytics", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "16x16" in out and "24x24" in out

    def test_offline_diagram(self, db, capsys):
        assert main(["analytics", "--db", db, "--diagram"]) == 0
        out = capsys.readouterr().out
        assert "fundamental diagram" in out
        assert "2 completed run(s) plotted" in out

    def test_offline_json(self, db, capsys):
        import json

        assert main(["analytics", "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert len(payload["points"]) == 2
        assert payload["scenarios"] == ["16x16", "24x24"]

    def test_scenario_filter(self, db, capsys):
        assert main(["analytics", "--db", db, "--scenario", "24x24"]) == 0
        out = capsys.readouterr().out
        assert "1 run(s) in 24x24" in out

    def test_missing_db_is_a_clean_error(self, tmp_path, capsys):
        assert main(["analytics", "--db", str(tmp_path / "nope.sqlite")]) == 2
        assert "no analytics store" in capsys.readouterr().out
