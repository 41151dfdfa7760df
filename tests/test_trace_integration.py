"""End-to-end tracing: exec boundary, service span trees, HTTP, CLI.

The contracts PR 9 must not regress:

* launch spans survive the forkserver boundary bit-for-bit (pool and
  inline executions produce the same span structure);
* tracing never perturbs a trajectory (traced == untraced results);
* a crashed worker leaves a *closed* trace — the torn launch phases
  are stood in for by one error span, never dangling open spans;
* every finished job serves a span tree whose phases sum to roughly
  the end-to-end duration;
* deadline misses are visible on the job wire and in ``/stats``;
* the analytics store migrates v3 → v4 in place and persists spans;
* ``GET /metrics`` and ``GET /jobs/<id>/trace`` speak the documented
  protocol (Prometheus text, 404/409 mapping);
* borrowed executor pools account concurrency per owner.
"""

import json
import os
import signal
import sqlite3
import time
import urllib.request

import pytest

from repro import SimulationConfig, run_simulation
from repro.analytics import SCHEMA_VERSION, RunStore
from repro.cli import main as cli_main
from repro.errors import ServiceError
from repro.exec import ExecutorPool, LaunchWork, execute_launch
from repro.obs import PHASES, ROOT_SPAN, TraceSpec, Tracer
from repro.service import (
    ServiceServer,
    SimulationService,
    get_job_trace,
    get_metrics_text,
    submit_jobs,
    wait_for_jobs,
)
import repro.exec.scheduler as scheduler_mod


def _cfg(seed=0, n_per_side=16, steps=30, **kw):
    kw.setdefault("height", 24)
    kw.setdefault("width", 24)
    return SimulationConfig(n_per_side=n_per_side, steps=steps, seed=seed, **kw)


def _traced_work(configs, **kw):
    return LaunchWork(
        configs=configs, trace=TraceSpec(dispatched_unix=time.time()), **kw
    )


#: Step marker that makes `_crashing_execute_launch` SIGKILL its worker.
_CRASH_STEPS = 13


def _crashing_execute_launch(work):
    """Module-level (picklable) launch executor that dies for marked configs."""
    if any(c.steps == _CRASH_STEPS for c in work.configs):
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_launch(work)


def _hold(tag, barrier_ignored, delay):
    """Module-level sleeper for pool concurrency tests."""
    time.sleep(delay)
    return tag


class TestExecuteLaunchSpans:
    def test_solo_launch_phases(self):
        outcome = execute_launch(_traced_work((_cfg(),)))
        names = [s["name"] for s in outcome.spans]
        assert names == ["dispatch", "warm_backend", "engine.run", "to_host"]
        assert all(s["status"] == "ok" for s in outcome.spans)
        assert all(s["duration_s"] is not None for s in outcome.spans)
        run = next(s for s in outcome.spans if s["name"] == "engine.run")
        assert run["attrs"]["steps"] == _cfg().steps

    def test_batched_launch_reports_lanes(self):
        cfgs = tuple(_cfg(seed=s) for s in range(2))
        outcome = execute_launch(_traced_work(cfgs, batched=True))
        run = next(s for s in outcome.spans if s["name"] == "engine.run")
        assert run["attrs"]["lanes"] == 2

    def test_untraced_work_ships_no_spans(self):
        assert execute_launch(LaunchWork(configs=(_cfg(),))).spans == ()

    def test_phase_names_are_canonical(self):
        outcome = execute_launch(_traced_work((_cfg(),)))
        assert all(s["name"] in PHASES for s in outcome.spans)

    def test_tracing_is_bit_identical(self):
        traced = execute_launch(
            _traced_work((_cfg(seed=5),), record_timeline=True)
        )
        plain = execute_launch(
            LaunchWork(configs=(_cfg(seed=5),), record_timeline=True)
        )
        assert (
            traced.results[0].throughput_total
            == plain.results[0].throughput_total
        )
        import numpy as np

        assert np.array_equal(
            traced.results[0].moved_per_step, plain.results[0].moved_per_step
        )


class TestForkserverParity:
    def test_pool_and_inline_span_structure_match(self):
        work = _traced_work((_cfg(seed=2),))
        inline = execute_launch(work)
        with ExecutorPool(1) as pool:
            pooled = pool.submit(execute_launch, work).result(timeout=120)
        shape = lambda o: [(s["name"], s["status"]) for s in o.spans]
        assert shape(pooled) == shape(inline)
        # And the payload itself crossed the boundary unscathed.
        assert (
            pooled.results[0].throughput_total
            == inline.results[0].throughput_total
        )


class TestRunSimulationTracer:
    def test_tracer_does_not_perturb_the_run(self):
        cfg = _cfg(seed=7, steps=25)
        tracer = Tracer()
        traced = run_simulation(cfg, tracer=tracer)
        plain = run_simulation(cfg)
        assert traced.result.throughput_total == plain.result.throughput_total
        import numpy as np

        assert np.array_equal(
            traced.result.moved_per_step, plain.result.moved_per_step
        )
        assert any(s.name == "engine.run" for s in tracer.spans)


class TestServiceTraces:
    def test_finished_job_serves_full_span_tree(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        try:
            job = svc.submit(_cfg(seed=1))
            svc.run_until_idle()
            payload = svc.trace_payload(job.job_id)
        finally:
            svc.close()
        assert payload["job_id"] == job.job_id
        assert payload["trace_id"] == job.trace_id
        spans = payload["spans"]
        names = {s["name"] for s in spans}
        assert names == {
            ROOT_SPAN, "queue_wait", "plan", "dispatch",
            "warm_backend", "engine.run", "to_host", "commit",
        }
        assert all(s["trace_id"] == job.trace_id for s in spans)
        root = next(s for s in spans if s["name"] == ROOT_SPAN)
        assert root["status"] == "ok"
        # The phases account for (almost all of) the end-to-end time:
        # only spans parented directly under the root sum cleanly.
        direct = sum(
            s["duration_s"]
            for s in spans
            if s["parent_id"] == root["span_id"] and s["duration_s"]
        )
        assert direct <= root["duration_s"] * 1.05
        assert direct >= root["duration_s"] * 0.5

    def test_cache_hit_gets_minimal_trace(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        try:
            first = svc.submit(_cfg(seed=4))
            svc.run_until_idle()
            hit = svc.submit(_cfg(seed=4))
            svc.run_until_idle()
            payload = svc.trace_payload(hit.job_id)
        finally:
            svc.close()
        root = next(
            s for s in payload["spans"] if s["name"] == ROOT_SPAN
        )
        assert root["attrs"].get("cache_hit") is True
        assert first.job_id != hit.job_id
        # No engine phases: the job never launched.
        assert not any(
            s["name"] == "engine.run" for s in payload["spans"]
        )

    def test_trace_survives_pool_execution(self, tmp_path):
        svc = SimulationService(str(tmp_path), workers=2)
        try:
            jobs = [svc.submit(_cfg(seed=s)) for s in range(2)]
            svc.run_until_idle()
            payloads = [svc.trace_payload(j.job_id) for j in jobs]
        finally:
            svc.close()
        for payload in payloads:
            names = {s["name"] for s in payload["spans"]}
            assert "engine.run" in names and ROOT_SPAN in names

    def test_latency_summary_feeds_stats(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        try:
            for s in range(2):
                svc.submit(_cfg(seed=s))
            svc.run_until_idle()
            stats = svc.stats_dict()
        finally:
            svc.close()
        assert stats["trace"] is True
        e2e = stats["latency"]["end_to_end"]
        assert e2e["count"] == 2
        assert 0 < e2e["p50"] <= e2e["p99"]
        assert "engine.run" in stats["latency"]["phases"]

    def test_tracing_disabled_records_nothing(self, tmp_path):
        svc = SimulationService(str(tmp_path), trace=False)
        try:
            job = svc.submit(_cfg(seed=3))
            svc.run_until_idle()
            assert svc.trace_payload(job.job_id) is None
            assert svc.stats_dict()["latency"]["end_to_end"] is None
        finally:
            svc.close()


class TestCrashTornSpans:
    def test_worker_crash_closes_the_trace_with_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            scheduler_mod, "execute_launch", _crashing_execute_launch
        )
        svc = SimulationService(str(tmp_path), workers=2)
        try:
            doomed = svc.submit(_cfg(seed=0, steps=_CRASH_STEPS))
            healthy = svc.submit(_cfg(seed=1))
            svc.run_until_idle()
            doomed_trace = svc.trace_payload(doomed.job_id)
            healthy_trace = svc.trace_payload(healthy.job_id)
        finally:
            svc.close()
        assert doomed_trace["state"] == "failed"
        root = next(
            s for s in doomed_trace["spans"] if s["name"] == ROOT_SPAN
        )
        assert root["status"] == "error"
        assert root["error"]
        # The torn launch is stood in for by a closed error span — a
        # crashed worker must not leave open (duration-less) spans.
        stand_in = next(
            s for s in doomed_trace["spans"] if s["name"] == "engine.run"
        )
        assert stand_in["status"] == "error"
        assert "WorkerCrashError" in stand_in["error"]
        assert all(
            s["duration_s"] is not None for s in doomed_trace["spans"]
        )
        # The crash stayed contained: the sibling job traced cleanly.
        healthy_root = next(
            s for s in healthy_trace["spans"] if s["name"] == ROOT_SPAN
        )
        assert healthy_root["status"] == "ok"


class TestDeadlines:
    def test_missed_deadline_is_reported_not_enforced(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        try:
            job = svc.submit(_cfg(seed=2), deadline_s=0.0)
            on_time = svc.submit(_cfg(seed=3), deadline_s=3600.0)
            svc.run_until_idle()
            job = svc.job(job.job_id)
            on_time = svc.job(on_time.job_id)
            stats = svc.stats_dict()
            trace = svc.trace_payload(job.job_id)
        finally:
            svc.close()
        # Reported: the flag, the wait, the counter, the span attr...
        assert job.deadline_missed is True
        assert job.queue_wait_s > 0.0
        assert on_time.deadline_missed is False
        assert stats["deadline_missed"] == 1
        wait = next(
            s for s in trace["spans"] if s["name"] == "queue_wait"
        )
        assert wait["attrs"].get("deadline_missed") is True
        # ...but never enforced: the job still ran to completion.
        assert job.state.value == "done"


class TestStoreSpans:
    def _begin(self, store, run_id="job-000001"):
        store.begin_run(run_id, _cfg(), "vectorized", "digest-x")
        return run_id

    def _spans(self, trace_id="t" * 32):
        return [
            {
                "span_id": "a" * 16, "trace_id": trace_id, "parent_id": None,
                "name": "job", "start_unix": 10.0, "duration_s": 1.0,
                "status": "ok", "error": None, "attrs": {"engine": "vectorized"},
            },
            {
                "span_id": "b" * 16, "trace_id": trace_id,
                "parent_id": "a" * 16, "name": "engine.run",
                "start_unix": 10.2, "duration_s": 0.7,
                "status": "ok", "error": None, "attrs": {},
            },
        ]

    def test_append_and_read_roundtrip(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        try:
            run_id = self._begin(store)
            assert store.append_spans(run_id, self._spans()) == 2
            rows = store.spans(run_id)
            assert [r["name"] for r in rows] == ["job", "engine.run"]
            assert rows[0]["attrs"] == {"engine": "vectorized"}
            assert store.counts()["span_rows"] == 2
        finally:
            store.close()

    def test_reexecution_replaces_stale_spans(self, tmp_path):
        store = RunStore(str(tmp_path / "b.sqlite"))
        try:
            run_id = self._begin(store)
            store.append_spans(run_id, self._spans())
            # The job re-executes (service restart): re-beginning the
            # run clears the previous attempt's spans.
            store.begin_runs(
                [(run_id, _cfg(), "vectorized", "digest-x")]
            )
            assert store.spans(run_id) == []
            store.append_spans(run_id, self._spans(trace_id="u" * 32))
            assert {r["trace_id"] for r in store.spans(run_id)} == {"u" * 32}
        finally:
            store.close()

    def test_phase_latency_groups_by_name(self, tmp_path):
        store = RunStore(str(tmp_path / "c.sqlite"))
        try:
            for i in (1, 2):
                run_id = self._begin(store, f"job-00000{i}")
                store.append_spans(run_id, self._spans())
            latency = store.phase_latency()
            assert latency["job"] == [1.0, 1.0]
            assert latency["engine.run"] == [0.7, 0.7]
        finally:
            store.close()

    def test_v3_to_v4_migration(self, tmp_path):
        # A hand-built v3 database: pre-tracing, no spans table.
        db_path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(db_path)
        conn.execute(
            """CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, digest TEXT NOT NULL,
                scenario TEXT NOT NULL, model TEXT NOT NULL,
                engine TEXT NOT NULL, backend TEXT NOT NULL,
                height INTEGER NOT NULL, width INTEGER NOT NULL,
                agents INTEGER NOT NULL, steps INTEGER NOT NULL,
                seed INTEGER NOT NULL,
                status TEXT NOT NULL DEFAULT 'running',
                throughput_total INTEGER, wall_seconds REAL,
                density REAL NOT NULL, flow REAL, created_s REAL NOT NULL
            )"""
        )
        conn.execute(
            """CREATE TABLE metrics (
                run_id TEXT NOT NULL, step INTEGER NOT NULL,
                moved INTEGER NOT NULL, new_crossings INTEGER NOT NULL,
                crossed_total INTEGER NOT NULL,
                gridlock_fraction REAL NOT NULL, lane_index REAL,
                dispatch_ops INTEGER,
                PRIMARY KEY (run_id, step)
            )"""
        )
        conn.execute(
            "INSERT INTO runs VALUES ('old-run', 'd1', '24x24', 'lem', "
            "'vectorized', 'numpy', 24, 24, 32, 30, 0, 'done', "
            "11, 0.5, 0.1, 0.4, 1.0)"
        )
        conn.execute("PRAGMA user_version=3")
        conn.commit()
        conn.close()

        store = RunStore(db_path)
        try:
            assert store.schema_version == SCHEMA_VERSION
            # Pre-migration rows survive; spans start empty and writable.
            assert store.run("old-run")["status"] == "done"
            assert store.spans("old-run") == []
            store.append_spans("old-run", self._spans())
            assert len(store.spans("old-run")) == 2
        finally:
            store.close()


@pytest.fixture
def server(tmp_path):
    svc = SimulationService(str(tmp_path))
    srv = ServiceServer(svc, port=0, tick_interval=0.02)
    srv.start()
    yield srv
    srv.shutdown()


def _spec(seed=0, steps=30):
    return {"config": _cfg(seed=seed, steps=steps).to_dict(),
            "engine": "vectorized"}


class TestHttpSurface:
    def test_metrics_scrape_is_prometheus_text(self, server):
        port = server.port
        (job,) = submit_jobs([_spec(seed=1)], port=port)
        wait_for_jobs([job["job_id"]], port=port, timeout=60)
        text = get_metrics_text(port=port)
        assert "# TYPE repro_job_latency_seconds histogram" in text
        assert 'repro_job_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_jobs_submitted_total 1" in text
        assert (
            'repro_phase_latency_seconds_bucket{phase="engine.run",le="+Inf"}'
            in text
        )
        # Raw text endpoint, not the JSON envelope.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")

    def test_job_trace_endpoint_round_trips(self, server):
        port = server.port
        (job,) = submit_jobs([_spec(seed=2)], port=port)
        wait_for_jobs([job["job_id"]], port=port, timeout=60)
        payload = get_job_trace(job["job_id"], port=port)
        assert payload["job_id"] == job["job_id"]
        assert payload["trace_id"] == job["trace_id"]
        names = {s["name"] for s in payload["spans"]}
        assert {ROOT_SPAN, "queue_wait", "engine.run", "commit"} <= names

    def test_job_wire_carries_queue_wait(self, server):
        port = server.port
        (job,) = submit_jobs([_spec(seed=3)], port=port)
        done = wait_for_jobs([job["job_id"]], port=port, timeout=60)
        wire = done[job["job_id"]]
        assert wire["queue_wait_s"] >= 0.0
        assert wire["deadline_missed"] is False
        assert len(wire["trace_id"]) == 32

    def test_unknown_job_trace_is_404(self, server):
        with pytest.raises(ServiceError, match="404"):
            get_job_trace("job-999999", port=server.port)

    def test_trace_before_execution_is_409(self, tmp_path):
        # A server that never ticks: the job stays queued, so the trace
        # exists-but-isn't-recorded path (409) is reachable.
        svc = SimulationService(str(tmp_path))
        srv = ServiceServer(svc, port=0, tick_interval=3600.0)
        srv.start()
        try:
            (job,) = submit_jobs([_spec(seed=4)], port=srv.port)
            with pytest.raises(ServiceError, match="409"):
                get_job_trace(job["job_id"], port=srv.port)
        finally:
            srv.shutdown()


class TestOwnerScopedPool:
    def test_peak_busy_scopes_per_owner(self):
        with ExecutorPool(3) as pool:
            futures = [
                pool.submit(_hold, i, None, 0.4, owner="tenant-a")
                for i in range(3)
            ]
            for f in futures:
                f.result(timeout=60)
            late = pool.submit(_hold, 9, None, 0.05, owner="tenant-b")
            late.result(timeout=60)
            assert pool.peak_busy_for("tenant-a") == 3
            assert pool.peak_busy_for("tenant-b") == 1
            assert pool.peak_busy_for("never-submitted") == 0
            # The pool-lifetime high-water mark still covers everyone.
            assert pool.peak_busy == 3

    def test_borrowed_pool_does_not_leak_prior_tenant_peak(self, tmp_path):
        pool = ExecutorPool(3)
        try:
            # A prior tenant saturates the shared pool...
            futures = [
                pool.submit(_hold, i, None, 0.4, owner="noisy")
                for i in range(3)
            ]
            for f in futures:
                f.result(timeout=60)
            assert pool.peak_busy_for("noisy") == 3
            # ...then the service borrows it for a two-launch tick. Its
            # reported concurrency must be its own, not the pool's.
            svc = SimulationService(str(tmp_path), executor=pool)
            try:
                svc.submit(_cfg(seed=0), engine="vectorized")
                svc.submit(_cfg(seed=1), engine="sequential")
                svc.run_until_idle()
                stats = svc.stats_dict()
            finally:
                svc.close()
            assert 1 <= stats["peak_concurrent_launches"] <= 2
        finally:
            pool.close()


class TestCliTrace:
    @pytest.fixture
    def analytics_db(self, tmp_path):
        db = str(tmp_path / "analytics.sqlite")
        svc = SimulationService(
            str(tmp_path / "state"), analytics_db=db
        )
        try:
            job = svc.submit(_cfg(seed=6))
            svc.run_until_idle()
        finally:
            svc.close()
        return db, job.job_id

    def test_trace_from_analytics_db(self, analytics_db, capsys):
        db, job_id = analytics_db
        assert cli_main(["trace", job_id, "--db", db]) == 0
        out = capsys.readouterr().out
        assert job_id in out
        assert "engine.run" in out and "└─" in out

    def test_trace_unknown_job_exits_2(self, analytics_db, capsys):
        db, _ = analytics_db
        assert cli_main(["trace", "job-999999", "--db", db]) == 2

    def test_trace_json_output(self, analytics_db, capsys):
        db, job_id = analytics_db
        assert cli_main(["trace", job_id, "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job_id"] == job_id
        assert any(s["name"] == ROOT_SPAN for s in payload["spans"])

    def test_analytics_latency_table(self, analytics_db, capsys):
        db, _ = analytics_db
        assert cli_main(["analytics", "--latency", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        assert "p50" in out and "p99" in out

    def test_run_trace_prints_the_tree(self, capsys):
        code = cli_main([
            "run", "--height", "24", "--width", "24", "--agents", "8",
            "--steps", "5", "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.run" in out and "warm_backend" in out

    @pytest.mark.parametrize("models", [("lem", "aco"), ("lem",)])
    def test_pooled_sweep_traces_worker_start_apart(self, models):
        """A transient pool's start-up is its own span, ahead of the plan,
        so no launch's ``dispatch`` span holds a worker spawn. A one-launch
        grid (run inline) still starts the pool."""
        from repro.experiments import SweepRunner, sweep_grid

        points = sweep_grid((1,), (0, 1), models=models, scale="tiny")
        tracer = Tracer()
        runner = SweepRunner(max_lanes=2, processes=2, tracer=tracer)
        launches = len(runner.plan(points))
        assert launches == len(models)
        with tracer.span("sweep"):
            runner.run(points)
        spans = tracer.wire()
        (root,) = [s for s in spans if s["parent_id"] is None]
        top = [s for s in spans if s["parent_id"] == root["span_id"]]
        names = [s["name"] for s in top]
        assert names == ["pool.start", "plan"] + ["launch"] * launches
        assert top[0]["attrs"]["workers"] == 2
        assert top[0]["duration_s"] > 0

    def test_sweep_trace_tree(self, monkeypatch, capsys):
        """``repro sweep --trace``: one plan span, one launch span per launch."""
        import repro.obs
        from repro.experiments import SweepRunner, sweep_grid

        tracers = []

        class RecordingTracer(Tracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracers.append(self)

        monkeypatch.setattr(repro.obs, "Tracer", RecordingTracer)
        points = sweep_grid((1, 2), (0, 1), models=("lem",), scale="tiny")
        launches = len(SweepRunner(max_lanes=2).plan(points))
        assert launches == 2
        assert cli_main([
            "sweep", "--scenarios", "1-2", "--seeds", "2", "--models", "lem",
            "--scale", "tiny", "--lanes", "2", "--trace",
        ]) == 0
        assert "launch" in capsys.readouterr().out

        (tracer,) = tracers
        spans = tracer.wire()

        def children(span_id):
            return [s for s in spans if s["parent_id"] == span_id]

        def descendant_names(span_id):
            names = set()
            for child in children(span_id):
                names |= {child["name"]} | descendant_names(child["span_id"])
            return names

        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["sweep"]
        assert roots[0]["attrs"]["runs"] == len(points)
        top = children(roots[0]["span_id"])
        plans = [s for s in top if s["name"] == "plan"]
        assert len(plans) == 1
        assert plans[0]["attrs"]["launches"] == launches
        launch_spans = [s for s in top if s["name"] == "launch"]
        assert len(launch_spans) == launches
        assert len(top) == 1 + launches
        for launch in launch_spans:
            assert descendant_names(launch["span_id"]) >= {
                "dispatch", "warm_backend", "engine.run", "to_host",
            }
