"""Execution-layer semantics: pool lifecycle, scheduling, crash isolation.

Pins the acceptance properties of :mod:`repro.exec`: futures resolve in
any completion order without losing request alignment, an exception in
one work item fails only that item, a *killed* worker fails only the
batch it was running (the pool respawns it and keeps serving), priority
overtakes submission order, the shared :class:`LaunchWork` payload
produces bit-identical results in-process and across workers, and every
result, however large, arrives intact over the one pickled result queue.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import SimulationConfig, run_batched, run_simulation
from repro.errors import ExperimentError, WorkerCrashError
from repro.exec import (
    MP_START_METHOD,
    ExecutorPool,
    LaunchWork,
    execute_launch,
    launch_cost,
)


# ---------------------------------------------------------------------
# Module-level helpers: pool workers import this module by name, so the
# payload callables must be module-level (picklable by reference).
# ---------------------------------------------------------------------

def _double(x):
    return 2 * x


def _sleep_then(value, seconds):
    time.sleep(seconds)
    return value


def _stamp(tag):
    """Monotonic start stamp — execution *order* evidence."""
    return (tag, time.monotonic())


def _raise_value_error(message):
    raise ValueError(message)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _touch_pid_file(directory):
    """Initializer that leaves one file per started worker."""
    open(os.path.join(directory, str(os.getpid())), "w").close()


def _cfg(seed=0, n_per_side=16, steps=40, **kw):
    kw.setdefault("height", 24)
    kw.setdefault("width", 24)
    return SimulationConfig(n_per_side=n_per_side, steps=steps, seed=seed, **kw)


@pytest.fixture
def pool():
    p = ExecutorPool(2)
    yield p
    p.close()


class TestStartMethod:
    def test_never_fork(self):
        assert MP_START_METHOD in multiprocessing.get_all_start_methods()
        assert MP_START_METHOD != "fork"


class TestPoolBasics:
    def test_submit_resolves_futures(self, pool):
        futures = [pool.submit(_double, k) for k in range(5)]
        assert [f.result(timeout=60) for f in futures] == [0, 2, 4, 6, 8]

    def test_workers_spawn_lazily(self):
        p = ExecutorPool(2)
        try:
            assert not p.started
            p.submit(_double, 1).result(timeout=60)
            assert p.started
        finally:
            p.close()

    def test_start_waits_for_every_initializer(self, tmp_path):
        p = ExecutorPool(2, initializer=_touch_pid_file, initargs=(str(tmp_path),))
        try:
            p.start()
            assert p.started
            assert len(os.listdir(tmp_path)) == 2
            assert p.submit(_double, 4).result(timeout=60) == 8
        finally:
            p.close()

    def test_start_raises_when_workers_die_starting(self):
        p = ExecutorPool(1, initializer=_raise_value_error, initargs=("dead",))
        try:
            with pytest.raises(WorkerCrashError):
                p.start()
        finally:
            p.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ExperimentError):
            ExecutorPool(0)

    def test_close_is_idempotent_and_blocks_submit(self):
        p = ExecutorPool(1)
        future = p.submit(_double, 21)
        p.close()
        p.close()
        assert future.result(timeout=5) == 42  # close drained it first
        with pytest.raises(ExperimentError):
            p.submit(_double, 1)

    def test_close_without_start_is_a_noop(self):
        ExecutorPool(4).close()

    def test_concurrent_assignment_is_recorded(self, pool):
        # Two workers, two slow-ish tasks: both must be assigned at once
        # (concurrency, not parallelism — holds even on one core).
        futures = [pool.submit(_sleep_then, k, 0.2) for k in range(2)]
        assert sorted(f.result(timeout=60) for f in futures) == [0, 1]
        assert pool.peak_busy == 2


class TestScheduling:
    def test_priority_overtakes_submission_order(self):
        p = ExecutorPool(1)
        try:
            # Block the only worker, then queue low before high: the
            # high-priority task must start first once the worker frees.
            blocker = p.submit(_sleep_then, "block", 0.3)
            low = p.submit(_stamp, "low", priority=0)
            high = p.submit(_stamp, "high", priority=5)
            assert blocker.result(timeout=60) == "block"
            assert high.result(timeout=60)[1] < low.result(timeout=60)[1]
        finally:
            p.close()

    def test_heavier_cost_runs_first_at_equal_priority(self):
        p = ExecutorPool(1)
        try:
            blocker = p.submit(_sleep_then, "block", 0.3)
            light = p.submit(_stamp, "light", cost=1)
            heavy = p.submit(_stamp, "heavy", cost=1000)
            assert blocker.result(timeout=60) == "block"
            assert heavy.result(timeout=60)[1] < light.result(timeout=60)[1]
        finally:
            p.close()


class TestFailureIsolation:
    def test_exception_fails_only_its_item(self, pool):
        bad = pool.submit(_raise_value_error, "kapow")
        good = [pool.submit(_double, k) for k in range(3)]
        with pytest.raises(ValueError, match="kapow"):
            bad.result(timeout=60)
        assert [f.result(timeout=60) for f in good] == [0, 2, 4]

    def test_killed_worker_fails_only_its_batch(self, pool):
        sibling = pool.submit(_sleep_then, "sibling", 0.1)
        doomed = pool.submit(_kill_self)
        with pytest.raises(WorkerCrashError):
            doomed.result(timeout=60)
        # The sibling batch and every subsequent submission still work.
        assert sibling.result(timeout=60) == "sibling"
        assert pool.submit(_double, 5).result(timeout=60) == 10
        assert pool.respawns >= 1

    def test_repeated_crashes_keep_the_pool_alive(self, pool):
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                pool.submit(_kill_self).result(timeout=60)
        assert pool.submit(_double, 7).result(timeout=60) == 14
        assert pool.respawns >= 2

    def test_always_dying_workers_trip_the_circuit_breaker(self):
        # An initializer that dies in every child would otherwise respawn
        # processes forever without surfacing an error: the pool must
        # fail the submitted work, stop respawning, and refuse new work.
        p = ExecutorPool(1, initializer=_raise_value_error, initargs=("dead",))
        try:
            with pytest.raises(WorkerCrashError):
                p.submit(_double, 1).result(timeout=120)
            deadline = time.monotonic() + 60
            while not p._broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert p._broken
            assert p.respawns <= p._crash_limit + 1
            with pytest.raises(ExperimentError, match="disabled"):
                p.submit(_double, 2)
        finally:
            p.close()


class TestLaunchWork:
    def test_solo_launch_matches_run_simulation(self):
        cfg = _cfg(seed=3)
        out = execute_launch(LaunchWork(configs=(cfg,)))
        assert out.lanes == 1 and len(out.results) == 1
        expected = run_simulation(cfg).result
        assert out.results[0].throughput_total == expected.throughput_total

    def test_batched_launch_matches_run_batched(self):
        cfgs = tuple(_cfg(seed=s) for s in range(3))
        out = execute_launch(
            LaunchWork(configs=cfgs, batched=True)
        )
        assert out.lanes == 3
        expected = run_batched([c for c in cfgs], [c.seed for c in cfgs],
                               record_timeline=False)
        assert [r.throughput_total for r in out.results] == [
            r.throughput_total for r in expected.results
        ]

    def test_launch_cost_counts_real_agent_steps(self):
        work = LaunchWork(
            configs=(_cfg(n_per_side=8, steps=10), _cfg(n_per_side=16, steps=10)),
            batched=True,
        )
        assert launch_cost(work) == 16 * 10 + 32 * 10

    def test_pool_results_bit_identical_to_inline(self, pool):
        works = [
            LaunchWork(configs=tuple(_cfg(seed=s) for s in range(2)),
                       batched=True),
            LaunchWork(configs=(_cfg(seed=9, n_per_side=8),)),
        ]
        futures = [
            pool.submit(execute_launch, w, cost=launch_cost(w)) for w in works
        ]
        pooled = [f.result(timeout=120) for f in futures]
        inline = [execute_launch(w) for w in works]
        for p_out, i_out in zip(pooled, inline):
            assert [r.throughput_total for r in p_out.results] == [
                r.throughput_total for r in i_out.results
            ]
            assert [r.seed for r in p_out.results] == [
                r.seed for r in i_out.results
            ]


# ---------------------------------------------------------------------
# Result transport: every result is one pickled blob on the result queue
# ---------------------------------------------------------------------

def _big_arrays(n):
    """A ~12-bytes-per-element payload (1.2 MB at n=100_000)."""
    return {
        "a": np.arange(n, dtype=np.float64),
        "b": np.full((n,), 7, dtype=np.int32),
    }


class TestResultTransport:
    def test_large_result_arrives_intact(self):
        p = ExecutorPool(1)
        try:
            out = p.submit(_big_arrays, 100_000).result(timeout=60)
        finally:
            p.close()
        np.testing.assert_array_equal(out["a"], np.arange(100_000, dtype=np.float64))
        np.testing.assert_array_equal(out["b"], np.full((100_000,), 7, dtype=np.int32))

    def test_timeline_launch_bit_identical_to_inline(self):
        work = LaunchWork(configs=(_cfg(seed=4),), record_timeline=True)
        p = ExecutorPool(1)
        try:
            pooled = p.submit(execute_launch, work).result(timeout=120)
        finally:
            p.close()
        inline = execute_launch(work)
        assert len(pooled.results) == len(inline.results) == 1
        got, want = pooled.results[0], inline.results[0]
        np.testing.assert_array_equal(got.crossings_per_step, want.crossings_per_step)
        np.testing.assert_array_equal(got.moved_per_step, want.moved_per_step)
        assert got.throughput_total == want.throughput_total

    def test_stats_count_one_inline_result_per_completed_task(self, pool):
        futures = [pool.submit(_double, k) for k in range(3)]
        futures.append(pool.submit(_big_arrays, 1_000))
        for f in futures:
            f.result(timeout=60)
        stats = pool.transport_stats()
        assert stats["inline_results"] == 4
        assert stats["inline_bytes"] >= 1_000 * 12
        assert stats["shm_results"] == 0
        assert stats["shm_payload_bytes"] == 0
