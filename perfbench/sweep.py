"""Fig-6a sweep through the job service: one client, closed loop, two bursts per round.

A round submits every (scenario, model) point with ``SEEDS_PER_POINT``
fresh seeds as burst 1 (``SimulationService.submit_many``) and drains it;
the seeds of one point share a shape, so the scheduler can stack them
unpadded, as ``repro sweep`` does with its default 4 seeds. Burst 2 then
submits every point again: ``REPEATED_SEEDS`` of its burst-1 configs,
which the result cache answers, fresh seeds for the rest, and a few
duplicates inside the burst, which the service coalesces. Rounds repeat,
each with new seeds, while another round as long as the last one still
fits in the time budget. The service runs with a 2-worker pool (never
more than the machine's cores), analytics on and timelines recorded, the
way ``repro sweep`` and ``repro submit --burst --wait`` drive it; the
benchmark ticks it from its own thread until the queue drains.

A job's latency runs from its ``submit_many`` call to the moment the
service durably records it as terminal (``JobStore.update_all``).
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine.simulation import run_simulation
from repro.exec import ExecutorPool
from repro.experiments.scenarios import FIG6A_SCENARIOS, scenario_config, scenario_spec
from repro.io.results import run_result_to_dict
from repro.service import SimulationService
from repro.service.jobs import JobState

from report import Metrics, Outcome, median
from spans import SpanLog

__all__ = ["run_sweep", "worker_peak"]

MODELS = ("lem", "aco")
#: Seeds per (scenario, model) point in each burst: ``repro sweep``'s default.
SEEDS_PER_POINT = 4
#: Burst-1 configs per point that burst 2 submits again (cache answers).
#: The share, 1 of 4, is arbitrary: no measured or published traffic backs it.
REPEATED_SEEDS = 1
#: Burst-2 jobs that duplicate another fresh burst-2 job (coalesced);
#: arbitrary as well.
DUPLICATES = 2
#: Service constructions per run; setup_s is their median.
SETUPS = 5
#: Scratch directory for service state, relative to the working directory.
WORK_DIR = ".perfbench_tmp"


@dataclass
class Burst:
    jobs: list
    submitted: float
    drained: float


def worker_peak() -> Tuple[int, int]:
    """``(pid, peak RSS in KiB)`` of the process this runs in (pool task)."""
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _worker_peaks(pool: ExecutorPool, workers: int) -> Dict[int, int]:
    """Peak RSS per worker pid; also forces every worker to start."""
    peaks: Dict[int, int] = {}
    for _ in range(8):
        futures = [pool.submit(worker_peak) for _ in range(workers)]
        for future in futures:
            pid, kib = future.result(timeout=120)
            peaks[pid] = max(kib, peaks.get(pid, 0))
        if len(peaks) >= workers:
            break
    return peaks


def _start(state_dir: str, workers: int):
    pool = ExecutorPool(workers)
    try:
        service = SimulationService(
            os.path.join(state_dir, "state"),
            record_timeline=True,
            analytics_db=os.path.join(state_dir, "analytics.db"),
            executor=pool,
        )
        _worker_peaks(pool, workers)
    except BaseException:
        pool.close()
        raise
    return service, pool


def _round(rng: random.Random, points: Sequence[tuple], scale: str):
    def config(point):
        scenario, model = point
        return scenario_config(
            scenario_spec(scenario), model, scale, seed=rng.randrange(2**31)
        )

    first, repeats, fresh = [], [], []
    for point in points:
        seeds = [config(point) for _ in range(SEEDS_PER_POINT)]
        first += seeds
        repeats += rng.sample(seeds, REPEATED_SEEDS)
        fresh += [config(point) for _ in range(SEEDS_PER_POINT - REPEATED_SEEDS)]
    second = repeats + fresh + rng.sample(fresh, min(DUPLICATES, len(fresh)))
    rng.shuffle(first)
    rng.shuffle(second)
    return first, second


def _drain(service: SimulationService, configs) -> Burst:
    t0 = time.perf_counter()
    jobs = service.submit_many([(cfg, "vectorized") for cfg in configs])
    service.run_until_idle()
    return Burst(jobs, t0, time.perf_counter())


def _instrument(service: SimulationService, log: SpanLog) -> None:
    log.wrap(service, "submit_many", "service.submit")
    log.wrap(service, "tick", "service.tick")
    log.wrap(service.scheduler, "plan", "planner.plan")
    log.wrap(service.cache, "get", "service.cache.get")
    log.wrap(service.cache, "put", "service.cache.put")
    log.wrap(service.store, "submit_all", "service.store.submit_all")
    log.wrap(service.store, "update_all", "service.store.update_all")
    log.wrap(service.analytics, "begin_runs", "analytics.begin_runs")
    log.wrap(service.analytics, "finish_run", "analytics.finish_run")


def _observe_done(service: SimulationService, done_at: Dict[str, float]) -> None:
    """Stamp each job the first time the store durably records it terminal."""
    update_all = service.store.update_all

    def observed(jobs):
        update_all(jobs)
        now = time.perf_counter()
        for job in jobs:
            if job.state in (JobState.DONE, JobState.FAILED):
                done_at.setdefault(job.job_id, now)

    service.store.update_all = observed


def _check(bursts: List[Burst], rng: random.Random) -> Tuple[int, int, List[str]]:
    """Correctness checks over every burst: ``(attempted, failed, notes)``."""
    attempted = failed = 0
    notes: List[str] = []
    jobs = [j for b in bursts for j in b.jobs]
    for job in jobs:
        attempted += 1
        if job.state is not JobState.DONE:
            failed += 1
            notes.append(f"{job.job_id} ended {job.state.value}: {job.error}")
    # Jobs with one digest (cache repeats, coalesced duplicates) must all
    # carry the result of the one execution.
    by_digest: Dict[str, list] = {}
    for job in jobs:
        by_digest.setdefault(job.digest, []).append(job)
    for group in by_digest.values():
        if len(group) > 1:
            attempted += 1
            if any(j.result != group[0].result for j in group[1:]):
                failed += 1
                notes.append(f"repeat of {group[0].job_id} returned another result")
    # One executed lane per launch shape (lanes in the launch, model)
    # must match a solo run of the same config.
    shapes: Dict[tuple, list] = {}
    for job in jobs:
        if job.state is JobState.DONE and not job.cache_hit:
            shapes.setdefault((job.lanes, job.config.params.model_name), []).append(job)
    for key in sorted(shapes):
        job = rng.choice(shapes[key])
        attempted += 1
        solo = run_result_to_dict(run_simulation(job.config).result)
        got = dict(job.result)
        solo.pop("platform")
        got.pop("platform")
        if solo != got:
            failed += 1
            notes.append(f"{job.job_id} ({key[0]} lanes) differs from its solo run")
    return attempted, failed, notes


def _job_spans(service: SimulationService, jobs) -> Dict[str, Dict[str, dict]]:
    """Each job's spans by name, from the traces the service records itself."""
    out = {}
    for job in jobs:
        trace = service.trace_payload(job.job_id) or {}
        out[job.job_id] = {s["name"]: s for s in trace.get("spans", ())}
    return out


def run_sweep(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path=None,
    scale: str = "quick",
    scenarios: Sequence[int] = FIG6A_SCENARIOS,
) -> Outcome:
    rng = random.Random(f"{workload}:{seed}")
    points = [(s, m) for s in scenarios for m in MODELS]
    workers = max(1, min(2, os.cpu_count() or 1))
    root = os.path.abspath(os.path.join(WORK_DIR, f"{workload}-{os.getpid()}"))
    log = SpanLog() if trace else None
    service = pool = None
    try:
        # Only one pool is alive at a time: each set-up but the last is
        # torn down before the next one starts.
        setups = []
        for i in range(SETUPS):
            if pool is not None:
                service.close()
                pool.close()
            t0 = time.perf_counter()
            service, pool = _start(os.path.join(root, f"service{i}"), workers)
            setups.append(time.perf_counter() - t0)
        if log is not None:
            _instrument(service, log)
        done_at: Dict[str, float] = {}
        _observe_done(service, done_at)

        # Pool-wide transport counters also count the benchmark's own
        # worker probes, so only the delta over the bursts is reported.
        transport_before = pool.transport_stats()
        bursts: List[Burst] = []
        traced: Dict[str, Dict[str, dict]] = {}
        t_start = time.perf_counter()
        while True:
            round_t0 = time.perf_counter()
            for configs in _round(rng, points, scale):
                bursts.append(_drain(service, configs))
                # Read each burst's traces while the service still holds
                # them in memory.
                traced.update(_job_spans(service, bursts[-1].jobs))
            now = time.perf_counter()
            if now - t_start + (now - round_t0) > seconds:
                break

        transport_after = pool.transport_stats()
        transport = {k: transport_after[k] - transport_before[k] for k in transport_after}
        peaks = _worker_peaks(pool, workers)
        # Read before the solo runs of the checks, which are not part of
        # the workload.
        parent_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metric_rows = service.analytics.counts().get("metric_rows", 0)
        stats = service.stats
        attempted, failed, notes = _check(bursts, rng)
    finally:
        if pool is not None:
            service.close()
            pool.close()
        shutil.rmtree(root, ignore_errors=True)

    jobs = [j for b in bursts for j in b.jobs]
    executed = [
        j for j in jobs
        if j.state is JobState.DONE and not j.cache_hit and "engine.run" in traced[j.job_id]
    ]
    makespan = sum(b.drained - b.submitted for b in bursts)
    m = Metrics()
    if not trace:
        # Samples are pooled over every burst of the run.
        step_s = [traced[j.job_id]["engine.run"]["duration_s"] / j.config.steps for j in executed]
        latency = [done_at[j.job_id] - b.submitted for b in bursts for j in b.jobs]
        m.timing("step_ms_{}", step_s, "ms", 1e3)
        real_agent_steps = sum(j.config.total_agents * j.config.steps for j in executed)
        m.add("agent_steps_per_s", real_agent_steps / makespan, "agent-steps/s", len(executed))
        m.add("setup_s", median(setups), "s", len(setups))
        m.add("peak_rss_mb", (parent_kib + sum(peaks.values())) / 1024.0, "MiB")
        m.timing("job_latency_{}_s", latency, "s", 1.0)
        m.add("jobs_per_s", len(jobs) / makespan, "jobs/s", len(jobs))
        notes.append(
            f"{len(bursts) // 2} rounds, {len(jobs)} jobs, {len(executed)} executed"
        )
        return Outcome(m, attempted, failed, notes)

    if spans_path:
        log.write(spans_path)
    tot = log.totals()

    def total_s(*names: str) -> float:
        return sum(tot.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return tot.get(name, {}).get("calls", 0)

    # Jobs of one launch share its engine.run span (same span id).
    launches: Dict[str, list] = {}
    for job in executed:
        launches.setdefault(traced[job.job_id]["engine.run"]["span_id"], []).append(job)
    n_bursts = len(bursts)
    n_exec = max(1, len(executed))
    m.add("service.submit_ms", total_s("service.submit") * 1e3 / len(jobs), "ms", len(jobs))
    m.add("service.tick_ms", total_s("service.tick") * 1e3 / calls("service.tick"), "ms", calls("service.tick"))
    m.add("service.ticks", calls("service.tick") / n_bursts, "count", n_bursts)
    m.add("planner.plan_ms", total_s("planner.plan") * 1e3 / calls("planner.plan"), "ms", calls("planner.plan"))
    m.add("planner.launches", len(launches) / n_bursts, "count", n_bursts)
    m.add("planner.lanes_per_launch", len(executed) / max(1, len(launches)), "count", len(launches))
    real_slots = sum(j.config.total_agents for j in executed)
    padded_slots = sum(
        len(group) * max(j.config.total_agents for j in group) for group in launches.values()
    )
    m.add("planner.pad_efficiency", real_slots / max(1, padded_slots), "ratio", len(launches))
    dispatch = [traced[g[0].job_id]["dispatch"]["duration_s"] for g in launches.values()]
    runs = [traced[g[0].job_id]["engine.run"]["duration_s"] for g in launches.values()]
    m.add("exec.dispatch_wait_ms_p50", median(dispatch) * 1e3, "ms", len(dispatch))
    m.add("exec.worker_busy_fraction", sum(runs) / (workers * makespan), "ratio", len(runs))
    m.add("engine.run_ms_p50", median(runs) * 1e3, "ms", len(runs))
    for key, name in (("shm_results", "shm_results"), ("inline_results", "inline_results"),
                      ("shm_payload_bytes", "shm_bytes"), ("inline_bytes", "inline_bytes")):
        unit = "bytes" if name.endswith("bytes") else "count"
        m.add(f"exec.transport.{name}", transport[key] / n_bursts, unit, n_bursts)
    gets = calls("service.cache.get")
    m.add("service.cache.hit_ratio", stats.cache_hits / max(1, gets), "ratio", gets)
    puts = calls("service.cache.put")
    m.add("service.cache.put_ms", total_s("service.cache.put") * 1e3 / max(1, puts), "ms", puts)
    m.add("service.coalesced", stats.coalesced / n_bursts, "count", n_bursts)
    m.add(
        "service.store.append_ms",
        total_s("service.store.submit_all", "service.store.update_all") * 1e3 / len(jobs),
        "ms",
        len(jobs),
    )
    commits = [t["commit"]["duration_s"] for t in traced.values() if "commit" in t]
    waits = [t["queue_wait"]["duration_s"] for t in traced.values() if "queue_wait" in t]
    m.add("service.commit_ms_p50", median(commits) * 1e3, "ms", len(commits))
    m.add("service.queue_wait_ms_p50", median(waits) * 1e3, "ms", len(waits))
    m.add(
        "analytics.write_ms",
        total_s("analytics.begin_runs", "analytics.finish_run") * 1e3 / n_exec,
        "ms",
        n_exec,
    )
    m.add("analytics.metric_rows", metric_rows / n_exec, "count", n_exec)
    return Outcome(m, attempted, failed, notes)
