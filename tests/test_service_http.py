"""HTTP front end: submit/status/stats endpoints, bursts, error mapping."""

import json
import urllib.error
import urllib.request

import pytest

from repro import SimulationConfig
from repro.errors import ServiceError
from repro.service import (
    ServiceServer,
    SimulationService,
    get_analytics_runs,
    get_job,
    get_stats,
    list_jobs,
    submit_jobs,
    wait_for_jobs,
)


def _spec(seed=0, n_per_side=16, steps=30):
    cfg = SimulationConfig(
        height=24, width=24, n_per_side=n_per_side, steps=steps, seed=seed
    )
    return {"config": cfg.to_dict(), "engine": "vectorized"}


@pytest.fixture
def server(tmp_path):
    svc = SimulationService(str(tmp_path))
    srv = ServiceServer(svc, port=0, tick_interval=0.02)
    srv.start()
    yield srv
    srv.shutdown()


class TestEndpoints:
    def test_submit_burst_runs_in_one_batch(self, server):
        port = server.port
        jobs = submit_jobs([_spec(seed=s) for s in range(4)], port=port)
        assert len(jobs) == 4
        assert all(j["state"] == "queued" for j in jobs)
        done = wait_for_jobs([j["job_id"] for j in jobs], port=port, timeout=60)
        assert all(j["state"] == "done" for j in done.values())
        assert all(
            j["result"]["throughput_total"] >= 0 for j in done.values()
        )
        stats = get_stats(port=port)
        assert stats["engine_launches"] < 4
        assert stats["multi_lane_batches"] >= 1

    def test_duplicate_submission_is_cache_hit(self, server):
        port = server.port
        (first,) = submit_jobs([_spec(seed=9)], port=port)
        wait_for_jobs([first["job_id"]], port=port, timeout=60)
        (second,) = submit_jobs([_spec(seed=9)], port=port)
        assert second["digest"] == first["digest"]
        done = wait_for_jobs([second["job_id"]], port=port, timeout=60)
        job = done[second["job_id"]]
        assert job["cache_hit"] is True
        assert get_stats(port=port)["cache_hits"] >= 1

    def test_job_listing_and_lookup(self, server):
        port = server.port
        (job,) = submit_jobs([_spec(seed=2)], port=port)
        listed = list_jobs(port=port)
        assert any(j["job_id"] == job["job_id"] for j in listed)
        wait_for_jobs([job["job_id"]], port=port, timeout=60)
        back = get_job(job["job_id"], port=port)
        assert back["state"] == "done"
        assert back["config"]["seed"] == 2

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError, match="404"):
            get_job("job-424242", port=server.port)

    def test_bad_config_is_400(self, server):
        with pytest.raises(ServiceError, match="400"):
            submit_jobs(
                [{"config": {"height": 24, "nonsense_field": 1}}],
                port=server.port,
            )

    def test_unknown_model_is_400_not_500(self, server):
        # The registry turns the old bare TypeError into a
        # ConfigurationError, which the HTTP layer maps to a client error.
        spec = _spec(seed=3)
        spec["config"]["params"]["model_name"] = "boids"
        with pytest.raises(ServiceError, match="400") as excinfo:
            submit_jobs([spec], port=server.port)
        assert "boids" in str(excinfo.value)

    def test_unknown_engine_is_400(self, server):
        # "tiled" names a retired engine: it takes the same path.
        for engine in ("bogus", "tiled"):
            spec = dict(_spec(seed=4), engine=engine)
            with pytest.raises(ServiceError, match="400") as excinfo:
                submit_jobs([spec], port=server.port)
            assert engine in str(excinfo.value)
        assert list_jobs(port=server.port) == []

    def test_unknown_backend_is_400(self, server):
        spec = _spec(seed=4)
        spec["config"]["backend"] = "bogus"
        with pytest.raises(ServiceError, match="400") as excinfo:
            submit_jobs([spec], port=server.port)
        assert "bogus" in str(excinfo.value)
        assert list_jobs(port=server.port) == []

    def test_scenario_travels_the_job_wire(self, server):
        from repro.components.scenarios import build_scenario

        cfg = build_scenario("crossing:12x12", scale="tiny")
        (job,) = submit_jobs(
            [{"config": cfg.to_dict(), "engine": "vectorized"}],
            port=server.port,
        )
        assert job["scenario"] == "crossing:12x12"
        done = wait_for_jobs([job["job_id"]], port=server.port, timeout=60)
        back = done[job["job_id"]]
        assert back["scenario"] == "crossing:12x12"
        assert back["config"]["scenario"] == "crossing:12x12"
        plain = submit_jobs([_spec(seed=8)], port=server.port)
        assert plain[0]["scenario"] is None

    def test_bad_json_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=5)
        assert excinfo.value.code == 400

    def test_healthz_and_unknown_route(self, server):
        port = server.port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=5
        ) as resp:
            assert json.loads(resp.read()) == {"ok": True}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope", timeout=5)
        assert excinfo.value.code == 404

    def test_connection_refused_maps_to_service_error(self):
        with pytest.raises(ServiceError):
            get_stats(port=1, timeout=1)

    def test_priority_and_deadline_travel_the_wire(self, server):
        port = server.port
        spec = dict(_spec(seed=5), priority=3, deadline_s=2.5)
        (job,) = submit_jobs([spec], port=port)
        assert job["priority"] == 3
        assert job["deadline_s"] == 2.5
        done = wait_for_jobs([job["job_id"]], port=port, timeout=60)
        assert done[job["job_id"]]["priority"] == 3

    def test_bad_priority_is_400(self, server):
        with pytest.raises(ServiceError, match="400"):
            submit_jobs(
                [dict(_spec(seed=1), priority="high")], port=server.port
            )
        for deadline in ("soon", float("nan"), float("inf"), float("-inf"), -1.0):
            with pytest.raises(ServiceError, match="400"):
                submit_jobs(
                    [dict(_spec(seed=1), deadline_s=deadline)], port=server.port
                )
        for limit in (-1, "ten"):
            with pytest.raises(ServiceError, match="400"):
                get_analytics_runs(port=server.port, limit=limit)

    def test_stats_report_workers_and_cache_budget_fields(self, server):
        stats = get_stats(port=server.port)
        assert stats["workers"] == 1
        assert "peak_concurrent_launches" in stats
        assert "cache_bytes" in stats and "cache_evictions" in stats


class TestMultiWorkerServer:
    def test_mixed_burst_resolves_concurrently(self, tmp_path):
        svc = SimulationService(str(tmp_path), workers=2)
        srv = ServiceServer(svc, port=0, tick_interval=0.02)
        srv.start()
        try:
            port = srv.port
            # One atomic POST whose specs cannot fuse into one launch
            # (two models): the tick dispatches >= 2 launches onto the
            # 2-worker pool at once.
            specs = [_spec(seed=s) for s in range(2)]
            aco = SimulationConfig(
                height=24, width=24, n_per_side=16, steps=30, seed=0
            ).with_model("aco")
            specs.append({"config": aco.to_dict(), "engine": "vectorized"})
            jobs = submit_jobs(specs, port=port)
            done = wait_for_jobs(
                [j["job_id"] for j in jobs], port=port, timeout=120
            )
            assert all(j["state"] == "done" for j in done.values())
            stats = get_stats(port=port)
            assert stats["workers"] == 2
            assert stats["peak_concurrent_launches"] >= 2
        finally:
            srv.shutdown()


class TestShutdown:
    def test_shutdown_is_idempotent(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        srv = ServiceServer(svc, port=0, tick_interval=0.02)
        srv.start()
        srv.shutdown()
        srv.shutdown()

    def test_rejects_nonpositive_tick(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        with pytest.raises(ServiceError):
            ServiceServer(svc, port=0, tick_interval=0.0)

    def test_taken_port_raises_service_error(self, tmp_path, server):
        # Binding the port the fixture server already holds must surface
        # as the clean ServiceError path (CLI exit 2), not a raw OSError.
        svc = SimulationService(str(tmp_path / "other"))
        with pytest.raises(ServiceError, match="cannot bind"):
            ServiceServer(svc, port=server.port)
