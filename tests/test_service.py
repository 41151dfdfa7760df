"""Service semantics: store durability, cache hits, batched execution.

Pins the acceptance properties of the serving layer: a burst of N
compatible jobs takes fewer than N engine launches, every job's result
is bit-identical to a solo ``run_simulation`` of the same config
(serially *and* on a multi-worker pool), a duplicate submission is
answered from the content-addressed cache without re-execution (bounded
by the LRU budgets), and a killed-and-restarted server resumes its
queue from the JSONL store.
"""

import json
import os
import signal

import pytest

from repro import SimulationConfig, run_simulation
from repro.errors import ServiceError
from repro.exec import execute_launch
from repro.io import config_digest, run_result_from_dict, run_result_to_dict
from repro.service import (
    Job,
    JobState,
    JobStore,
    ResultCache,
    SimulationService,
)


def _cfg(seed=0, n_per_side=16, steps=40, **kw):
    kw.setdefault("height", 24)
    kw.setdefault("width", 24)
    return SimulationConfig(n_per_side=n_per_side, steps=steps, seed=seed, **kw)


def _solo(cfg, engine="vectorized"):
    return run_simulation(cfg, engine=engine, record_timeline=False)


#: Step marker that makes `_crashing_execute_launch` SIGKILL its worker.
_CRASH_STEPS = 13


def _crashing_execute_launch(work):
    """Launch executor that dies mid-launch for marked configs.

    Module-level so pool workers can import it by reference; every
    non-marked launch delegates to the real implementation.
    """
    if any(c.steps == _CRASH_STEPS for c in work.configs):
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_launch(work)


class TestJobStore:
    def test_submit_reload_roundtrip(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = Job.create(store.next_job_id(), _cfg(), "vectorized")
        store.submit(job)
        reloaded = JobStore(path)
        assert len(reloaded) == 1
        back = reloaded.get(job.job_id)
        assert back.config == job.config
        assert back.digest == job.digest
        assert back.state is JobState.QUEUED

    def test_state_events_replay_to_latest(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = Job.create(store.next_job_id(), _cfg(), "vectorized")
        store.submit(job)
        job.state = JobState.DONE
        job.result = {"throughput_total": 7}
        store.update(job)
        back = JobStore(path).get(job.job_id)
        assert back.state is JobState.DONE
        assert back.result == {"throughput_total": 7}

    def test_running_jobs_requeue_on_reload(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = Job.create(store.next_job_id(), _cfg(), "vectorized")
        store.submit(job)
        job.state = JobState.RUNNING
        store.update(job)
        reloaded = JobStore(path)
        assert reloaded.get(job.job_id).state is JobState.QUEUED
        assert reloaded.resumed_jobs == 1

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        store.submit(Job.create(store.next_job_id(), _cfg(), "vectorized"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "submit", "job": {"job_id": "jo')  # torn
        reloaded = JobStore(path)
        assert len(reloaded) == 1

    def test_job_ids_monotonic_across_restarts(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        first = store.next_job_id()
        store.submit(Job.create(first, _cfg(), "vectorized"))
        assert JobStore(path).next_job_id() != first


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"result": {"throughput_total": 3}})
        assert cache.get("deadbeef")["result"]["throughput_total"] == 3
        assert "deadbeef" in cache and len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("aaaa", {"x": 1})
        with open(os.path.join(cache.root, "aaaa.json"), "w") as fh:
            fh.write("{not json")
        assert cache.get("aaaa") is None


class TestResultWireFormat:
    def test_roundtrip_without_timeline(self):
        result = _solo(_cfg()).result
        back = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert back.throughput_total == result.throughput_total
        assert back.moved_per_step is None

    def test_roundtrip_with_timeline(self):
        result = run_simulation(_cfg(steps=10), record_timeline=True).result
        back = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert back.moved_per_step.tolist() == result.moved_per_step.tolist()
        assert (
            back.crossings_per_step.tolist()
            == result.crossings_per_step.tolist()
        )


class TestConfigDigest:
    def test_digest_is_field_order_independent(self):
        cfg = _cfg()
        shuffled = dict(reversed(list(cfg.to_dict().items())))
        assert config_digest(cfg) == config_digest(
            SimulationConfig.from_dict(shuffled)
        )

    def test_digest_distinguishes_seed_and_population(self):
        digests = {
            config_digest(_cfg(seed=0)),
            config_digest(_cfg(seed=1)),
            config_digest(_cfg(n_per_side=8)),
        }
        assert len(digests) == 3

    def test_digest_ignores_the_backend_field(self):
        # The backend selects an executor, not a simulation; trajectories
        # are bit-identical across backends, so the cache key must let a
        # profiled request reuse a numpy result.
        cfg = _cfg()
        assert config_digest(cfg) == config_digest(cfg.replace(backend="profile"))


class TestBatchedServing:
    def test_burst_takes_fewer_launches_than_jobs(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        jobs = [svc.submit(_cfg(seed=s)) for s in range(6)]
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["engine_launches"] < len(jobs)
        assert stats["multi_lane_batches"] >= 1
        assert stats["completed"] == len(jobs)

    def test_service_results_bit_identical_to_solo_runs(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        configs = [_cfg(seed=s) for s in range(4)]
        configs += [_cfg(seed=0, n_per_side=8), _cfg(seed=1, n_per_side=24)]
        jobs = [svc.submit(c) for c in configs]
        svc.run_until_idle()
        for cfg, job in zip(configs, jobs):
            got = svc.job(job.job_id)
            assert got.state is JobState.DONE
            expected = run_result_to_dict(_solo(cfg).result)
            # "platform" records who executed (batched vs solo engine);
            # every simulation field must match bit for bit.
            expected.pop("platform")
            served = dict(got.result)
            assert served.pop("platform") in ("batched", "vectorized")
            assert served == expected

    def test_mixed_populations_pad_into_one_launch(self, tmp_path):
        svc = SimulationService(str(tmp_path), max_pad_waste=0.5)
        for n in (8, 12, 16):
            svc.submit(_cfg(seed=0, n_per_side=n))
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["engine_launches"] == 1
        assert stats["padded_batches"] == 1

    def test_pad_lanes_off_only_fuses_same_shape(self, tmp_path):
        svc = SimulationService(str(tmp_path), pad_lanes=False)
        for n in (8, 16):
            for s in (0, 1):
                svc.submit(_cfg(seed=s, n_per_side=n))
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["engine_launches"] == 2
        assert stats["padded_batches"] == 0

    def test_sequential_engine_jobs_run_solo(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        for s in (0, 1):
            svc.submit(_cfg(seed=s), engine="sequential")
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["solo_runs"] == 2
        assert stats["multi_lane_batches"] == 0


class TestCacheSemantics:
    def test_duplicate_submission_hits_cache_without_rerun(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        cfg = _cfg(seed=3)
        first = svc.submit(cfg)
        svc.run_until_idle()
        launches = svc.stats_dict()["engine_launches"]
        second = svc.submit(cfg)
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["engine_launches"] == launches  # no re-execution
        assert stats["cache_hits"] == 1
        job = svc.job(second.job_id)
        assert job.cache_hit and job.state is JobState.DONE
        assert job.result == svc.job(first.job_id).result

    def test_coalescing_is_engine_aware_for_failures(
        self, tmp_path, fake_device_backend
    ):
        # Same config digest, different engines, one tick: the sequential
        # job's engine-specific failure (it is host-only and the config
        # asks for a device backend) must not leak onto the vectorized
        # job, which runs fine there.
        svc = SimulationService(str(tmp_path))
        cfg = _cfg(seed=13, backend=fake_device_backend.name)
        bad = svc.submit(cfg, engine="sequential")
        good = svc.submit(cfg, engine="vectorized")
        svc.run_until_idle()
        assert svc.job(bad.job_id).state is JobState.FAILED
        assert svc.job(good.job_id).state is JobState.DONE
        assert svc.job(good.job_id).result is not None

    def test_identical_jobs_in_one_tick_coalesce(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        cfg = _cfg(seed=5)
        a = svc.submit(cfg)
        b = svc.submit(cfg)
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["engine_launches"] == 1
        assert stats["coalesced"] == 1
        assert svc.job(a.job_id).result == svc.job(b.job_id).result

    def test_cache_serves_across_restarts(self, tmp_path):
        state = str(tmp_path)
        svc = SimulationService(state)
        cfg = _cfg(seed=7)
        svc.submit(cfg)
        svc.run_until_idle()
        again = SimulationService(state)
        job = again.submit(cfg)
        again.run_until_idle()
        stats = again.stats_dict()
        assert stats["cache_hits"] == 1 and stats["engine_launches"] == 0
        assert again.job(job.job_id).result == run_result_to_dict(
            _solo(cfg).result
        )


class TestRestartResume:
    def test_queued_jobs_survive_a_restart(self, tmp_path):
        state = str(tmp_path)
        svc = SimulationService(state)
        queued = [svc.submit(_cfg(seed=s)) for s in range(3)]
        del svc  # "kill" the server without ever ticking
        resumed = SimulationService(state)
        assert [j.job_id for j in resumed.store.queued()] == [
            j.job_id for j in queued
        ]
        resumed.run_until_idle()
        for job in queued:
            back = resumed.job(job.job_id)
            assert back.state is JobState.DONE
            assert back.result is not None

    def test_running_jobs_requeue_and_complete(self, tmp_path):
        state = str(tmp_path)
        svc = SimulationService(state)
        job = svc.submit(_cfg(seed=11))
        # Simulate dying mid-batch: the store recorded "running" but no
        # terminal state ever followed.
        job.state = JobState.RUNNING
        svc.store.update(job)
        resumed = SimulationService(state)
        assert resumed.stats.resumed == 1
        resumed.run_until_idle()
        assert resumed.job(job.job_id).state is JobState.DONE


class TestFailurePaths:
    def test_engine_failure_marks_job_failed(self, tmp_path, fake_device_backend):
        svc = SimulationService(str(tmp_path))
        # The sequential engine is host-only; on a device backend it is a
        # clean per-job failure, not a service crash.
        bad = svc.submit(_cfg(backend=fake_device_backend.name), engine="sequential")
        good = svc.submit(_cfg(seed=1))
        svc.run_until_idle()
        assert svc.job(bad.job_id).state is JobState.FAILED
        assert "host-only" in svc.job(bad.job_id).error
        assert svc.job(good.job_id).state is JobState.DONE
        assert svc.stats_dict()["failed"] == 1

    def test_unknown_engine_rejected_at_submission(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        with pytest.raises(ServiceError, match="bogus"):
            svc.submit(_cfg(), engine="bogus")
        with pytest.raises(ServiceError, match="bogus"):
            svc.submit_many([(_cfg(seed=1), "vectorized"), (_cfg(), "bogus")])
        # Nothing of either request was queued or persisted.
        assert svc.store.queued() == []
        assert SimulationService(str(tmp_path)).store.queued() == []

    def test_unknown_backend_rejected_at_submission(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        cfg = _cfg(seed=2)
        svc.submit(cfg)
        svc.run_until_idle()
        # Even with the digest cached, an unknown backend is refused up
        # front instead of answered from the cache.
        with pytest.raises(ServiceError, match="unknown array backend 'bogus'"):
            svc.submit(cfg.replace(backend="bogus"))
        with pytest.raises(ServiceError, match="bogus"):
            svc.submit_many(
                [(_cfg(seed=1), "vectorized"), (_cfg(backend="bogus"), "vectorized")]
            )
        assert svc.store.queued() == []
        assert SimulationService(str(tmp_path)).store.queued() == []
        # Profiling names resolve through the same registry and pass.
        for name in ("profile", "profile:numpy"):
            svc.submit(cfg.replace(backend=name))
        assert len(svc.store.queued()) == 2

    def test_unknown_job_id_raises(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        with pytest.raises(ServiceError):
            svc.job("job-999999")

    def test_non_repro_exception_fails_the_job_not_the_service(
        self, tmp_path, monkeypatch
    ):
        # A launch raising something outside the ReproError hierarchy
        # (library error, bug) must fail its own jobs, not strand them
        # RUNNING forever while the tick loop keeps spinning. The solo
        # engine entry point now lives in the shared execution layer.
        import repro.exec.work as exec_work

        def boom(*args, **kwargs):
            raise ValueError("engine exploded mid-launch")

        monkeypatch.setattr(exec_work, "run_simulation", boom)
        svc = SimulationService(str(tmp_path))
        job = svc.submit(_cfg(), engine="sequential")
        svc.run_until_idle()
        back = svc.job(job.job_id)
        assert back.state is JobState.FAILED
        assert "exploded" in back.error
        assert svc.stats_dict()["queued"] == 0


class TestBurstSubmission:
    def test_submit_many_is_one_durable_append(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        jobs = svc.submit_many([(_cfg(seed=s), "vectorized") for s in range(4)])
        assert [j.state for j in jobs] == [JobState.QUEUED] * 4
        # Every job of the burst survives a restart.
        resumed = SimulationService(str(tmp_path))
        assert [j.job_id for j in resumed.store.queued()] == [
            j.job_id for j in jobs
        ]

    def test_submit_many_accepts_priority_and_deadline(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        jobs = svc.submit_many(
            [
                (_cfg(seed=0), "vectorized"),
                (_cfg(seed=1), "vectorized", 3),
                (_cfg(seed=2), "vectorized", 7, 1.5),
            ]
        )
        assert [j.priority for j in jobs] == [0, 3, 7]
        assert [j.deadline_s for j in jobs] == [None, None, 1.5]


class TestMultiWorkerService:
    """`workers=N`: concurrent launches, same answers, isolated crashes."""

    def _mixed_configs(self):
        # A burst the planner cannot fuse into one launch: two models
        # plus one off-step-budget config => >= 3 separate launches.
        return (
            [_cfg(seed=s) for s in range(2)]
            + [_cfg(seed=s).with_model("aco") for s in range(2)]
            + [_cfg(seed=0, steps=60)]
        )

    def test_results_bit_identical_to_serial_path(self, tmp_path):
        configs = self._mixed_configs()
        serial = SimulationService(str(tmp_path / "serial"))
        serial_jobs = [serial.submit(c) for c in configs]
        serial.run_until_idle()

        multi = SimulationService(str(tmp_path / "multi"), workers=2)
        try:
            multi_jobs = [multi.submit(c) for c in configs]
            multi.run_until_idle()
            for cfg, s_job, m_job in zip(configs, serial_jobs, multi_jobs):
                served = dict(multi.job(m_job.job_id).result)
                expected = dict(serial.job(s_job.job_id).result)
                served.pop("platform")
                expected.pop("platform")
                assert served == expected
                assert (
                    served["throughput_total"]
                    == _solo(cfg).result.throughput_total
                )
        finally:
            multi.close()

    def test_launches_overlap_on_two_workers(self, tmp_path):
        svc = SimulationService(str(tmp_path), workers=2)
        try:
            for c in self._mixed_configs():
                svc.submit(c)
            svc.run_until_idle()
            stats = svc.stats_dict()
            assert stats["workers"] == 2
            assert stats["peak_concurrent_launches"] >= 2
            assert stats["failed"] == 0
            assert stats["engine_launches"] >= 3
        finally:
            svc.close()

    def test_worker_crash_fails_only_its_job(self, tmp_path, monkeypatch):
        import repro.exec.scheduler as scheduler_mod

        monkeypatch.setattr(
            scheduler_mod, "execute_launch", _crashing_execute_launch
        )
        svc = SimulationService(str(tmp_path), workers=2)
        try:
            doomed = svc.submit(_cfg(seed=0, steps=_CRASH_STEPS))
            siblings = [
                svc.submit(_cfg(seed=s).with_model("aco")) for s in range(2)
            ]
            svc.run_until_idle()
            assert svc.job(doomed.job_id).state is JobState.FAILED
            assert "died mid-launch" in svc.job(doomed.job_id).error
            for job in siblings:
                assert svc.job(job.job_id).state is JobState.DONE
            # The respawned worker serves subsequent ticks normally.
            after = svc.submit(_cfg(seed=5))
            later = svc.submit(_cfg(seed=6, steps=60))
            svc.run_until_idle()
            assert svc.job(after.job_id).state is JobState.DONE
            assert svc.job(later.job_id).state is JobState.DONE
            assert svc.stats_dict()["failed"] == 1
        finally:
            svc.close()

    def test_close_is_idempotent_and_keeps_queue_durable(self, tmp_path):
        svc = SimulationService(str(tmp_path), workers=2)
        queued = svc.submit(_cfg(seed=4))
        svc.close()
        svc.close()
        resumed = SimulationService(str(tmp_path))
        assert [j.job_id for j in resumed.store.queued()] == [queued.job_id]
        resumed.run_until_idle()
        assert resumed.job(queued.job_id).state is JobState.DONE

    def test_invalid_worker_count(self, tmp_path):
        with pytest.raises(ServiceError):
            SimulationService(str(tmp_path), workers=0)


class TestPriorityScheduling:
    def test_drain_order_priority_then_deadline_then_fifo(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        fifo_a = svc.submit(_cfg(seed=0))
        late = svc.submit(_cfg(seed=1), priority=1, deadline_s=9.0)
        soon = svc.submit(_cfg(seed=2), priority=1, deadline_s=2.0)
        fifo_b = svc.submit(_cfg(seed=3))
        urgent = svc.submit(_cfg(seed=4), priority=5)
        order = svc._drain_order(svc.store.queued())
        assert [j.job_id for j in order] == [
            urgent.job_id,
            soon.job_id,
            late.job_id,
            fifo_a.job_id,
            fifo_b.job_id,
        ]

    def test_priority_jobs_complete_with_correct_results(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        cfg = _cfg(seed=8)
        job = svc.submit(cfg, priority=9, deadline_s=0.5)
        svc.run_until_idle()
        got = svc.job(job.job_id)
        assert got.state is JobState.DONE
        assert (
            got.result["throughput_total"]
            == _solo(cfg).result.throughput_total
        )

    def test_priority_survives_the_jsonl_store(self, tmp_path):
        svc = SimulationService(str(tmp_path))
        job = svc.submit(_cfg(seed=3), priority=4, deadline_s=7.0)
        resumed = SimulationService(str(tmp_path))
        back = resumed.store.get(job.job_id)
        assert back.priority == 4
        assert back.deadline_s == 7.0


class TestCacheEviction:
    def _payload(self, k, pad=0):
        return {"result": {"throughput_total": k}, "pad": "x" * pad}

    def test_entry_budget_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), max_entries=2)
        cache.put("aa", self._payload(1))
        cache.put("bb", self._payload(2))
        assert cache.get("aa") is not None  # refresh: bb becomes LRU
        cache.put("cc", self._payload(3))
        assert cache.get("bb") is None
        assert cache.get("aa") is not None and cache.get("cc") is not None
        assert len(cache) == 2 and cache.evictions == 1

    def test_byte_budget_evicts_but_keeps_newest(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), max_bytes=300)
        cache.put("aa", self._payload(1, pad=200))
        cache.put("bb", self._payload(2, pad=200))
        # Budget fits one padded entry: the older one must be gone.
        assert cache.get("aa") is None
        assert cache.get("bb") is not None
        # A single entry above the budget is still retained.
        cache.put("cc", self._payload(3, pad=1000))
        assert cache.get("cc") is not None
        assert len(cache) == 1

    def test_recency_persists_across_restarts(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        cache.put("aa", self._payload(1))
        cache.put("bb", self._payload(2))
        os.utime(  # make the access gap visible to mtime ordering
            os.path.join(root, "aa.json"), (0, 0)
        )
        reopened = ResultCache(root, max_entries=1)
        assert reopened.get("aa") is None  # stale entry evicted at init
        assert reopened.get("bb") is not None
        assert reopened.evictions == 1

    def test_budgets_reported_by_service_stats(self, tmp_path):
        svc = SimulationService(str(tmp_path), cache_entries=1)
        svc.submit(_cfg(seed=0))
        svc.submit(_cfg(seed=1, n_per_side=8))
        svc.run_until_idle()
        stats = svc.stats_dict()
        assert stats["cache_entries"] == 1
        assert stats["cache_evictions"] >= 1
        assert stats["cache_bytes"] > 0

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            ResultCache(str(tmp_path / "c"), max_entries=0)
        with pytest.raises(ServiceError):
            ResultCache(str(tmp_path / "c"), max_bytes=0)
