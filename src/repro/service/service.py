"""`SimulationService`: jobs in, batched launches out, answers remembered.

The in-process facade composing the serving subsystem::

    svc = SimulationService("state/")          # resumes a prior queue
    job = svc.submit(SimulationConfig(...))    # queued
    svc.run_until_idle()                       # micro-batched execution
    svc.job(job.job_id).result                 # RunResult wire dict

Each :meth:`tick` is one micro-batch: drain the queue priority-first,
answer what the content-addressed cache already knows, coalesce
duplicate digests onto one execution, pack the rest into batched
launches via the shared lane planner, persist everything as it happens.
With ``workers > 1`` the tick submits every planned launch to a
persistent :class:`repro.exec.ExecutorPool` at once and commits each
batch — job states, cache entries, durable log — as it completes, so
finished jobs become visible while siblings are still running. The HTTP
front end (:mod:`repro.service.http`) just calls :meth:`submit` and
:meth:`tick` from different threads; the internal lock makes that safe,
and the engine work itself runs outside the lock so submissions never
block on a running batch.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analytics import MetricStreamSpec, RunStore
from ..config import SimulationConfig
from ..errors import ServiceError
from ..exec import ExecutorPool
from ..exec.scheduler import BatchScheduler, SchedulerStats
from ..io import run_result_to_dict
from ..obs import MetricsRegistry, SpanRecorder, span_dict
from .cache import ResultCache
from .jobs import Job, JobState, job_to_dict
from .store import JobStore

__all__ = ["SimulationService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Process-lifetime serving counters (reported by ``repro status``)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Jobs answered from the on-disk result cache without any execution.
    cache_hits: int = 0
    #: Jobs coalesced onto an identical in-flight job within one tick.
    coalesced: int = 0
    #: Jobs requeued from the store at startup (previous process died).
    resumed: int = 0
    #: Jobs that were still queued past their ``deadline_s`` when the
    #: scheduler drained them (reported, never shed).
    deadline_missed: int = 0
    ticks: int = 0
    launches: SchedulerStats = field(default_factory=SchedulerStats)

    def to_dict(self) -> dict:
        out = {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "resumed": self.resumed,
            "deadline_missed": self.deadline_missed,
            "ticks": self.ticks,
        }
        out.update(self.launches.to_dict())
        return out


class SimulationService:
    """Long-running simulation-as-a-service over one state directory.

    Parameters
    ----------
    state_dir:
        Directory holding the JSONL job log (``jobs.jsonl``) and the
        content-addressed result cache (``cache/``). Created on demand;
        an existing log is replayed so a restarted service resumes its
        queue (jobs a dead process left running are requeued).
    max_lanes, pad_lanes, max_pad_waste, record_timeline:
        Forwarded to :class:`~repro.exec.scheduler.BatchScheduler`.
        Padded packing defaults *on* for serving: independent requests
        rarely share a population, so padding is what makes continuous
        batching pay.
    workers:
        Engine worker processes. ``1`` (default) executes launches
        serially on the tick thread; larger values attach a persistent
        :class:`repro.exec.ExecutorPool` so independent launches of one
        tick run concurrently (results stay bit-identical — only
        latency changes). The pool spawns lazily on the first busy tick
        and is released by :meth:`close`.
    cache_entries, cache_bytes:
        Result-cache budgets forwarded to
        :class:`~repro.service.cache.ResultCache`; least-recently-used
        entries are evicted beyond either bound (``None`` = unbounded).
    analytics_db:
        Optional path to a SQLite analytics store
        (:class:`~repro.analytics.RunStore`). When set, every executed
        job becomes a persistent run record, launches stream per-step
        metrics into the store while they run (``GET /jobs/<id>/stream``
        reads them live), and the ``/analytics/*`` endpoints answer
        cross-run queries. ``None`` (default) disables all of it — no
        per-step overhead.
    executor:
        Optional *shared* :class:`repro.exec.ExecutorPool`. When given,
        the service dispatches its launches to the caller's pool instead
        of owning one — the same pool can simultaneously serve an
        in-process :class:`~repro.experiments.SweepRunner` — and
        :meth:`close` leaves it running (the caller owns its lifecycle).
        Mutually exclusive with ``workers > 1``.
    trace:
        Tracing on/off (default *on*). Every job gets a span tree —
        ``queue_wait → plan → dispatch → warm_backend → engine.run →
        to_host → commit`` — served on ``GET /jobs/<id>/trace``,
        persisted to the analytics spans table when analytics is
        enabled, and fed into the latency histograms behind
        ``GET /metrics`` and the ``latency`` section of ``/stats``.
        Tracing reads clocks only; results are bit-identical either way.
    trace_history:
        In-memory trace retention (most recent N jobs); older traces
        stay reachable through the analytics store when configured.
    """

    def __init__(
        self,
        state_dir: str,
        max_lanes: int = 8,
        pad_lanes: bool = True,
        max_pad_waste: Optional[float] = None,
        record_timeline: bool = False,
        workers: int = 1,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        analytics_db: Optional[str] = None,
        executor: Optional[ExecutorPool] = None,
        trace: bool = True,
        trace_history: int = 1024,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if executor is not None and workers > 1:
            raise ServiceError(
                "pass either workers > 1 (service-owned pool) or a shared "
                "executor, not both"
            )
        self.state_dir = str(state_dir)
        self.workers = int(workers)
        self._owns_pool = executor is None
        self._pool: Optional[ExecutorPool] = (
            executor
            if executor is not None
            else (ExecutorPool(self.workers) if self.workers > 1 else None)
        )
        self.analytics: Optional[RunStore] = (
            RunStore(analytics_db) if analytics_db else None
        )
        self.trace = bool(trace)
        self.scheduler = BatchScheduler(
            max_lanes=max_lanes,
            pad_lanes=pad_lanes,
            max_pad_waste=max_pad_waste,
            record_timeline=record_timeline,
            executor=self._pool,
            # `is not None`, not truthiness: RunStore.__len__ makes an
            # empty (brand-new) store falsy, which must not disable
            # metric streaming.
            metrics_for=(
                self._metrics_spec if self.analytics is not None else None
            ),
            trace=self.trace,
        )
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder(self.registry)
        #: job_id -> trace payload, most recent ``trace_history`` jobs.
        self._traces: "OrderedDict[str, dict]" = OrderedDict()
        self._trace_history = max(1, int(trace_history))
        self.store = JobStore(os.path.join(self.state_dir, "jobs.jsonl"))
        self.cache = ResultCache(
            os.path.join(self.state_dir, "cache"),
            max_entries=cache_entries,
            max_bytes=cache_bytes,
        )
        self.stats = ServiceStats(resumed=self.store.resumed_jobs)
        #: Guards store/cache/stats mutation; engine work runs outside it.
        self._lock = threading.RLock()
        #: Serialises ticks (the drain→execute→commit cycle is one batch).
        self._tick_lock = threading.Lock()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (if owned) and the analytics store
        (idempotent).

        Queued jobs stay durable in the store; a new service over the
        same state directory resumes them. A *shared* executor passed in
        at construction is detached but left running — its owner closes
        it.
        """
        pool, self._pool = self._pool, None
        self.scheduler.executor = None
        if pool is not None and self._owns_pool:
            pool.close()
        analytics, self.analytics = self.analytics, None
        if analytics is not None:
            analytics.close()

    # ------------------------------------------------------------------
    def _metrics_spec(self, lane_jobs) -> MetricStreamSpec:
        """The per-launch metric stream: one run per lane, keyed by job id.

        Bound as the scheduler's ``metrics_for`` hook only when
        analytics is enabled; reads ``self.analytics.path`` (not the
        store object) because the spec must pickle into pool workers.
        """
        return MetricStreamSpec(
            db_path=self.analytics.path,
            run_ids=tuple(j.job_id for j in lane_jobs),
        )

    # ------------------------------------------------------------------
    # Submission / inspection
    # ------------------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        engine: str = "vectorized",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> Job:
        """Queue one simulation request; returns its job handle."""
        with self._lock:
            job = Job.create(
                self.store.next_job_id(), config, engine, priority, deadline_s
            )
            self.store.submit(job)
            self.stats.submitted += 1
            return job

    def submit_many(
        self, specs: List[tuple]
    ) -> List[Job]:
        """Queue ``(config, engine[, priority[, deadline_s]])`` tuples
        atomically (one burst).

        Holding the lock across the whole burst guarantees a concurrent
        tick sees either none or all of it — which is what lets a client
        burst land in a single micro-batch. The store persists the burst
        as one append (one fsync), so a large burst does not stall
        status reads behind a per-job fsync train.
        """
        with self._lock:
            jobs = [
                Job.create(self.store.next_job_id(), cfg, engine, *rest)
                for cfg, engine, *rest in specs
            ]
            self.store.submit_all(jobs)
            self.stats.submitted += len(jobs)
            return jobs

    def job(self, job_id: str) -> Job:
        """The job for ``job_id`` (raises :class:`ServiceError` if unknown)."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return self.store.jobs()

    # -- lock-held dict snapshots (what the HTTP handlers serve) --------
    # Jobs are mutable and the tick loop updates them under the lock, so
    # serialising outside it could observe a half-committed transition;
    # these helpers snapshot while holding the lock.
    def submit_specs(self, specs: List[tuple]) -> List[dict]:
        with self._lock:
            return [job_to_dict(j) for j in self.submit_many(specs)]

    def job_payload(self, job_id: str) -> dict:
        with self._lock:
            return job_to_dict(self.job(job_id))

    def jobs_payload(self) -> List[dict]:
        with self._lock:
            return [job_to_dict(j, with_config=False) for j in self.jobs()]

    def stats_dict(self) -> dict:
        with self._lock:
            out = self.stats.to_dict()
            states: Dict[str, int] = {}
            for job in self.store.jobs():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            out["jobs"] = states
            out["queued"] = states.get("queued", 0)
            out["workers"] = self.workers
            out["cache_entries"] = len(self.cache)
            out["cache_bytes"] = self.cache.total_bytes
            out["cache_evictions"] = self.cache.evictions
            out["trace"] = self.trace
            out["latency"] = self.recorder.summary()
            if self.analytics is not None:
                out["analytics_db"] = self.analytics.path
                out.update(self.analytics.counts())
            else:
                out["analytics_db"] = None
            return out

    # ------------------------------------------------------------------
    # Micro-batching
    # ------------------------------------------------------------------
    @staticmethod
    def _drain_order(queued: List[Job]) -> List[Job]:
        """Queue drain order: priority desc, sooner deadlines, then FIFO.

        The sort is stable over the store's submission order, so equal
        urgency keeps first-come-first-served; the planner preserves
        this order, which is how high-priority lanes anchor batches and
        high-priority launches execute (or dispatch to the pool) first.
        """
        inf = float("inf")
        return sorted(
            queued,
            key=lambda j: (
                -j.priority,
                inf if j.deadline_s is None else j.deadline_s,
            ),
        )

    def tick(self) -> int:
        """Run one micro-batch over the currently queued jobs.

        Returns the number of jobs that reached a terminal state. Safe to
        call concurrently with :meth:`submit`; concurrent ticks serialise.
        Each launch commits as it completes — with a worker pool attached,
        jobs from a fast batch turn DONE (durably) while slower sibling
        batches are still executing.
        """
        with self._tick_lock:
            with self._lock:
                queued = self.store.queued()
                if not queued:
                    return 0
                reps: List[Job] = []
                followers: Dict[str, List[Job]] = {}
                # Coalescing keys on (digest, engine), not digest alone:
                # sharing a *success* across engines is sound (bit
                # identity) and the disk cache does it, but a failure is
                # engine-specific (e.g. the host-only sequential engine
                # rejecting a device backend), so a job must never
                # inherit a failure from a rep that ran a different
                # engine.
                by_key: Dict[tuple, Job] = {}
                dirty: List[Job] = []
                done = 0
                drained_at = time.time()
                for job in self._drain_order(queued):
                    # Deadline visibility: stamp the queue wait the moment
                    # the job leaves the queue; a deadline it already blew
                    # is reported (wire form + /stats), never enforced.
                    if job.submitted_unix:
                        job.queue_wait_s = max(
                            0.0, drained_at - job.submitted_unix
                        )
                    if (
                        job.deadline_s is not None
                        and job.queue_wait_s > job.deadline_s
                        and not job.deadline_missed
                    ):
                        job.deadline_missed = True
                        self.stats.deadline_missed += 1
                    cached = self.cache.get(job.digest)
                    if cached is not None:
                        hit_t0 = time.perf_counter()
                        self._finish_from_payload(job, cached, disk_hit=True)
                        self._record_trace(
                            job,
                            (),
                            commit_started=drained_at,
                            commit_duration=time.perf_counter() - hit_t0,
                            cache_hit=True,
                        )
                        dirty.append(job)
                        done += 1
                        continue
                    job.state = JobState.RUNNING
                    dirty.append(job)
                    rep = by_key.get((job.digest, job.engine))
                    if rep is None:
                        by_key[(job.digest, job.engine)] = job
                        reps.append(job)
                    else:
                        followers.setdefault(rep.job_id, []).append(job)
                self.store.update_all(dirty)
                self.stats.ticks += 1

            # Register analytics runs before the first step executes, so
            # `/jobs/<id>/stream` and `/analytics/runs` can see a job the
            # moment it starts producing metrics. Outside the service
            # lock — the run store has its own.
            if self.analytics is not None and reps:
                self.analytics.begin_runs(
                    [(j.job_id, j.config, j.engine, j.digest) for j in reps]
                )

            # Engine work happens outside the lock: submissions (and
            # status reads) stay responsive while a batch executes. The
            # scheduler yields launches as they finish; each one commits
            # under the lock while the rest keep running.
            launch_stats = SchedulerStats()
            if reps:
                for batch, outcomes in self.scheduler.execute_iter(
                    reps, launch_stats
                ):
                    with self._lock:
                        done += self._commit_batch(
                            [reps[i] for i in batch.indices],
                            outcomes,
                            followers,
                        )

            with self._lock:
                self.stats.launches.merge(launch_stats)
                return done

    def _commit_batch(
        self,
        jobs: List[Job],
        outcomes,
        followers: Dict[str, List[Job]],
    ) -> int:
        """Finalise one completed launch (caller holds the lock).

        Returns the number of jobs (reps + coalesced followers) that
        reached a terminal state. One durable append per launch; the
        cache writes land first, so a crash mid-commit just means these
        jobs replay as queued and hit the cache next time.
        """
        dirty: List[Job] = []
        done = 0
        commit_started = time.time()
        commit_t0 = time.perf_counter()
        traced: List[Tuple[Job, Tuple[dict, ...], dict]] = []
        for job, outcome in zip(jobs, outcomes):
            if outcome.error is not None:
                self._fail(job, outcome.error)
                if self.analytics is not None:
                    self.analytics.finish_run(job.job_id, "failed")
                dirty.append(job)
                done += 1
                traced.append((job, tuple(outcome.spans), {}))
                for follower in followers.get(job.job_id, ()):
                    self._fail(follower, outcome.error, coalesced=True)
                    dirty.append(follower)
                    done += 1
                    traced.append((follower, (), {"coalesced": True}))
                continue
            payload = {
                "digest": job.digest,
                "config": job.config.to_dict(),
                "engine": job.engine,
                "result": run_result_to_dict(outcome.result),
                "lanes": outcome.lanes,
                "wall_seconds": outcome.wall_seconds,
            }
            self.cache.put(job.digest, payload)
            # Result fields land before the state flips to DONE, so even
            # a reader that skipped the lock could never see a "done"
            # job without its result.
            job.result = payload["result"]
            job.lanes = outcome.lanes
            job.wall_seconds = outcome.wall_seconds
            job.state = JobState.DONE
            if self.analytics is not None:
                # Seals the run row (status, throughput, mean flow) the
                # /analytics queries aggregate; the per-step rows were
                # streamed in by the launch itself.
                self.analytics.finish_run(
                    job.job_id,
                    "done",
                    throughput_total=outcome.result.throughput_total,
                    wall_seconds=outcome.wall_seconds,
                )
            dirty.append(job)
            self.stats.completed += 1
            done += 1
            traced.append((job, tuple(outcome.spans), {"lanes": outcome.lanes}))
            for follower in followers.get(job.job_id, ()):
                self._finish_from_payload(follower, payload, disk_hit=False)
                dirty.append(follower)
                done += 1
                traced.append((follower, (), {"coalesced": True}))
        # Traces close once the commit work above is done, so the commit
        # span covers cache writes + state flips + run sealing; only the
        # durable append below falls outside it (≈ sub-ms of the total).
        commit_duration = time.perf_counter() - commit_t0
        for job, launch_spans, attrs in traced:
            self._record_trace(
                job,
                launch_spans,
                commit_started=commit_started,
                commit_duration=commit_duration,
                **attrs,
            )
        self.store.update_all(dirty)
        return done

    def run_until_idle(self, max_ticks: int = 10_000) -> int:
        """Tick until the queue drains; returns finished-job count."""
        total = 0
        for _ in range(max_ticks):
            finished = self.tick()
            total += finished
            with self._lock:
                if not self.store.queued():
                    return total
        raise ServiceError(
            f"queue failed to drain within {max_ticks} ticks"
        )  # pragma: no cover - defensive bound

    # ------------------------------------------------------------------
    def _finish_from_payload(
        self, job: Job, payload: dict, disk_hit: bool
    ) -> None:
        """Complete ``job`` from a cached/coalesced result payload.

        Mutates the job and counters only; the caller batches the
        durable store append for its whole tick phase.
        """
        job.result = payload.get("result")
        job.cache_hit = True
        job.lanes = 0
        job.wall_seconds = 0.0
        job.state = JobState.DONE
        self.stats.completed += 1
        if disk_hit:
            self.stats.cache_hits += 1
        else:
            self.stats.coalesced += 1

    def _fail(self, job: Job, error: str, coalesced: bool = False) -> None:
        """Mark ``job`` failed (caller persists, like `_finish_from_payload`)."""
        job.error = error
        job.cache_hit = coalesced
        job.state = JobState.FAILED
        self.stats.failed += 1

    # ------------------------------------------------------------------
    # Tracing + metrics surface
    # ------------------------------------------------------------------
    def _record_trace(
        self,
        job: Job,
        launch_spans: Tuple[dict, ...],
        commit_started: float,
        commit_duration: float,
        **attrs,
    ) -> None:
        """Assemble and record one finished job's span tree.

        Caller holds the service lock. The launch-level spans (shared by
        every lane of a batch) are copied and grafted under this job's
        own root — each job's trace reports the *full* launch phases, not
        an amortised share, because the job really did wait for them.
        """
        if not self.trace or not job.trace_id:
            return
        failed = job.state is JobState.FAILED
        end = commit_started + commit_duration
        start = job.submitted_unix or commit_started
        root = span_dict(
            "job",
            start_unix=start,
            duration_s=max(commit_duration, end - start),
            status="error" if failed else "ok",
            error=job.error if failed else None,
            job_id=job.job_id,
            engine=job.engine,
            **attrs,
        )
        root["trace_id"] = job.trace_id
        spans: List[dict] = [root]
        if job.submitted_unix:
            wait = span_dict(
                "queue_wait",
                start_unix=job.submitted_unix,
                duration_s=job.queue_wait_s,
                **(
                    {"deadline_missed": True} if job.deadline_missed else {}
                ),
            )
            wait["trace_id"] = job.trace_id
            wait["parent_id"] = root["span_id"]
            spans.append(wait)
        launch_ids = {
            s.get("span_id") for s in launch_spans if s.get("span_id")
        }
        for span in launch_spans:
            copy = dict(span)
            copy["attrs"] = dict(span.get("attrs") or {})
            copy["trace_id"] = job.trace_id
            if copy.get("parent_id") not in launch_ids:
                copy["parent_id"] = root["span_id"]
            spans.append(copy)
        commit = span_dict("commit", commit_started, commit_duration)
        commit["trace_id"] = job.trace_id
        commit["parent_id"] = root["span_id"]
        spans.append(commit)

        payload = {
            "job_id": job.job_id,
            "trace_id": job.trace_id,
            "state": job.state.value,
            "spans": spans,
        }
        self._traces[job.job_id] = payload
        self._traces.move_to_end(job.job_id)
        while len(self._traces) > self._trace_history:
            self._traces.popitem(last=False)
        self.recorder.observe_trace(spans)
        if self.analytics is not None:
            self.analytics.append_spans(job.job_id, spans)

    def trace_payload(self, job_id: str) -> Optional[dict]:
        """One job's span tree for ``GET /jobs/<id>/trace``.

        Raises :class:`ServiceError` for an unknown job; returns ``None``
        when the job exists but has no recorded trace yet (still queued /
        running, or tracing disabled). Evicted in-memory traces fall back
        to the analytics spans table when available.
        """
        with self._lock:
            job = self.job(job_id)
            entry = self._traces.get(job_id)
            if entry is not None:
                return {
                    "job_id": entry["job_id"],
                    "trace_id": entry["trace_id"],
                    "state": entry["state"],
                    "spans": [dict(s) for s in entry["spans"]],
                }
            state = job.state.value
            trace_id = job.trace_id
        if self.analytics is not None:
            spans = self.analytics.spans(job_id)
            if spans:
                return {
                    "job_id": job_id,
                    "trace_id": trace_id or spans[0].get("trace_id", ""),
                    "state": state,
                    "spans": spans,
                }
        return None

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /metrics``.

        Histograms accumulate as traces close; counter/gauge mirrors of
        the service, cache, pool, and analytics counters are synced at
        scrape time (cheap: a few dozen reads under the lock).
        """
        self._sync_metrics()
        return self.registry.render()

    def _sync_metrics(self) -> None:
        reg = self.registry
        with self._lock:
            stats = self.stats
            for name, value, help_text in (
                ("repro_jobs_submitted_total", stats.submitted, "Jobs accepted."),
                ("repro_jobs_completed_total", stats.completed, "Jobs finished successfully."),
                ("repro_jobs_failed_total", stats.failed, "Jobs that ended in failure."),
                ("repro_cache_hits_total", stats.cache_hits, "Jobs answered from the result cache."),
                ("repro_jobs_coalesced_total", stats.coalesced, "Jobs coalesced onto an identical execution."),
                ("repro_jobs_resumed_total", stats.resumed, "Jobs requeued at startup."),
                ("repro_deadline_missed_total", stats.deadline_missed, "Jobs drained after their deadline_s."),
                ("repro_ticks_total", stats.ticks, "Scheduler micro-batch ticks."),
                ("repro_engine_launches_total", stats.launches.engine_launches, "Engine launches (batched or solo)."),
                ("repro_failed_launches_total", stats.launches.failed_launches, "Launches that raised."),
                ("repro_cache_evictions_total", self.cache.evictions, "Result-cache LRU evictions."),
            ):
                reg.counter(name, help_text).set_total(value)
            states: Dict[str, int] = {}
            for job in self.store.jobs():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            for state in ("queued", "running", "done", "failed"):
                reg.gauge(
                    "repro_jobs", "Jobs currently in each state.", state=state
                ).set(states.get(state, 0))
            reg.gauge("repro_queue_depth", "Queued jobs.").set(
                states.get("queued", 0)
            )
            reg.gauge("repro_workers", "Configured engine workers.").set(
                self.workers
            )
            reg.gauge("repro_cache_entries", "Result-cache entries.").set(
                len(self.cache)
            )
            reg.gauge("repro_cache_bytes", "Result-cache bytes.").set(
                self.cache.total_bytes
            )
            reg.gauge(
                "repro_peak_concurrent_launches",
                "High-water mark of this service's concurrent launches.",
            ).set(stats.launches.peak_concurrent_launches)
            pool = self._pool
            if pool is not None:
                reg.counter(
                    "repro_worker_respawns_total",
                    "Pool workers respawned after dying mid-task.",
                ).set_total(pool.respawns)
                reg.gauge(
                    "repro_pool_peak_busy",
                    "Pool-lifetime peak of busy workers (all owners).",
                ).set(pool.peak_busy)
        if self.analytics is not None:
            reg.counter(
                "repro_dispatch_ops_total",
                "Backend dispatches recorded by profiled runs.",
            ).set_total(self.analytics.dispatch_ops_total())
