"""Paper-scale workloads: Fig-6a scenarios on the 480x480 grid, one engine step at a time.

Each workload is a stream of jobs shaped like one ``repro run`` call: a
cold ``build_engine`` (the warm-state cache cleared first, because a
``repro run`` user pays construction on every run) followed by
``STEPS_PER_JOB`` timed ``engine.step()`` calls. Jobs run back to back
until the time budget is spent. Every job gets its own config seed, drawn
from the workload seed.

With tracing on, even-numbered jobs run untraced and odd-numbered jobs
run with every public layer callable wrapped, so the traced and untraced
step times come from the same run and their difference is the tracing
overhead.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

import repro.engine.vectorized as vectorized_module
from repro.config import paper_config
from repro.engine.simulation import build_engine, run_simulation
from repro.engine.warmstate import reset_warmstate
from repro.errors import ReproError
from repro.experiments.scenarios import scenario_spec
from repro.io.digest import engine_state_digest
from repro.types import Group

from report import Metrics, Outcome, median
from spans import SpanLog

__all__ = [
    "PAPER_WORKLOADS",
    "paper_job_config",
    "prefix_digests_match",
    "run_paper",
    "state_ok",
]

#: workload name -> (Fig-6a scenario index, movement model).
PAPER_WORKLOADS = {
    "paper_sparse_lem": (1, "lem"),
    "paper_dense_aco": (20, "aco"),
}
#: Timed engine steps per job (the per-step cost is flat over early steps).
STEPS_PER_JOB = 10
#: Steps of the vectorized-vs-sequential digest comparison; they also
#: time the sequential baseline (~0.4 s/step at 51,200 agents).
PREFIX_STEPS = 3
#: Steps of the dispatch-counting run that yields the exact op counts.
PROFILE_STEPS = 2
#: Share of the traced step loops' wall time the engine.step spans must
#: cover; a traced run below it counts one failed check.
COVERAGE_BAR = 0.95


@dataclass
class JobRecord:
    setup_s: float
    latency_s: float
    step_s: List[float]
    #: Wall time of the whole step loop, measured around it.
    loop_s: float
    decided: int = 0
    moved: int = 0
    #: Invariant problems found after the job (empty when it is sound).
    errors: List[str] = field(default_factory=list)


def state_ok(engine, n_per_side: int) -> List[str]:
    """Invariant problems of a finished engine (empty list when sound).

    ``validate_state`` cross-checks grid against population; on top of it
    every group must still hold exactly ``n_per_side`` agents, on the grid
    and in the property matrix.
    """
    problems = []
    try:
        engine.validate_state()
    except (ReproError, AssertionError, ValueError) as exc:
        problems.append(f"validate_state: {exc}")
    to_host = engine.backend.to_host
    mat = to_host(engine.env.mat)
    ids = to_host(engine.pop.ids)
    for group in (Group.TOP, Group.BOTTOM):
        on_grid = int(np.count_nonzero(mat == int(group)))
        listed = int(np.count_nonzero(ids == int(group)))
        if on_grid != n_per_side or listed != n_per_side:
            problems.append(
                f"{group.name}: {on_grid} on grid, {listed} listed, "
                f"expected {n_per_side}"
            )
    return problems


def prefix_digests_match(vec_engine, seq_engine) -> bool:
    """Whether two engines that ran the same steps hold identical state."""
    return engine_state_digest(vec_engine) == engine_state_digest(seq_engine)


def _instrument(engine, log: SpanLog) -> None:
    """Wrap one engine's public step and the public callables it calls."""
    log.wrap(engine, "step", "engine.step")
    log.wrap(engine.model, "scan_values", "models.scan_values")
    log.wrap(engine.model, "select", "models.select")
    for method in ("words", "uniform", "normal12"):
        log.wrap(engine.rng, method, f"rng.{method}")
    log.wrap(engine.pop, "record_crossings", "agents.record_crossings")
    log.wrap(engine.pop, "reset_futures", "agents.reset_futures")
    log.wrap(engine.env, "cell_lane", "grid.cell_lane")
    if engine.pher is not None:
        log.wrap(engine.pher, "evaporate", "models.pheromone.evaporate")
        log.wrap(engine.pher, "deposit_stacked", "models.pheromone.deposit")


def _run_job(cfg, log: SpanLog = None) -> JobRecord:
    reset_warmstate()
    clock = time.perf_counter
    t0 = clock()
    engine = build_engine(cfg, "vectorized")
    setup = clock() - t0
    if log is not None:
        _instrument(engine, log)
    steps = []
    decided = moved = 0
    loop_t0 = clock()
    for _ in range(STEPS_PER_JOB):
        a = clock()
        report = engine.step()
        steps.append(clock() - a)
        decided += report.decided
        moved += report.moved
    end = clock()
    return JobRecord(
        setup, end - t0, steps, end - loop_t0, decided, moved,
        state_ok(engine, cfg.n_per_side),
    )


def paper_job_config(workload: str, config_seed: int):
    """The workload's Fig-6a config on the paper's 480x480 grid."""
    scenario, model = PAPER_WORKLOADS[workload]
    return paper_config(scenario_spec(scenario).total_agents, model, seed=config_seed)


def _prefix_check(cfg):
    """Vectorized vs sequential digest after PREFIX_STEPS; sequential step times."""
    vec = build_engine(cfg, "vectorized")
    for _ in range(PREFIX_STEPS):
        vec.step()
    seq = build_engine(cfg, "sequential")
    seq_steps = []
    for _ in range(PREFIX_STEPS):
        t0 = time.perf_counter()
        seq.step()
        seq_steps.append(time.perf_counter() - t0)
    return prefix_digests_match(vec, seq), seq_steps


def run_paper(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path=None,
    make_config=paper_job_config,
) -> Outcome:
    """Run jobs for ``seconds``; ``make_config(workload, config_seed)`` builds each."""
    rng = random.Random(f"{workload}:{seed}")
    first = make_config(workload, rng.randrange(2**31))
    log = SpanLog() if trace else None
    plain: List[JobRecord] = []
    traced: List[JobRecord] = []
    started = time.perf_counter()
    job = 0
    while job < 2 or time.perf_counter() - started < seconds:
        cfg = first if job == 0 else make_config(workload, rng.randrange(2**31))
        if log is not None and job % 2:
            log.run_id = job
            with log.patched(vectorized_module, "shift", "engine.conflict.shift"), \
                    log.patched(vectorized_module, "winner_rank", "engine.conflict.winner_rank"):
                traced.append(_run_job(cfg, log))
        else:
            plain.append(_run_job(cfg))
        job += 1
    # Read before the sequential prefix check, which is not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests_match, seq_steps = _prefix_check(first)

    records = plain + traced
    failed = sum(bool(r.errors) for r in records) + (not digests_match)
    attempted = len(records) + 1
    notes = [e for r in records for e in r.errors]
    if not digests_match:
        notes.append("vectorized digest differs from sequential after the prefix")
    if trace:
        tot = log.totals()
        # Self time plus child spans add up to the engine.step spans by
        # construction, so the bar compares those spans with the wall
        # time of the step loops, measured around the calls.
        coverage = tot["engine.step"]["total_s"] / sum(r.loop_s for r in traced)
        attempted += 1
        if coverage < COVERAGE_BAR:
            failed += 1
            notes.append(
                f"step spans cover {coverage:.3f} of the step loop, below {COVERAGE_BAR}"
            )

    agents = first.total_agents
    plain_steps = [s for r in plain for s in r.step_s]
    # Run wall time is the time spent inside jobs (build + steps); the
    # per-job invariant checks between jobs stay outside it.
    wall = sum(r.latency_s for r in plain)
    m = Metrics()
    if not trace:
        m.timing("step_ms_{}", plain_steps, "ms", 1e3)
        m.add(
            "agent_steps_per_s",
            agents * len(plain_steps) / wall,
            "agent-steps/s",
            len(plain_steps),
        )
        m.add("setup_s", median([r.setup_s for r in plain]), "s", len(plain))
        m.add("peak_rss_mb", peak_rss_mb, "MiB")
        m.timing("job_latency_{}_s", [r.latency_s for r in plain], "s", 1.0)
        m.add("jobs_per_s", len(plain) / wall, "jobs/s", len(plain))
        return Outcome(m, attempted, failed, notes)

    if spans_path:
        log.write(spans_path)
    n_steps = sum(len(r.step_s) for r in traced)

    def per_step_ms(name: str) -> float:
        return tot.get(name, {}).get("self_s", 0.0) * 1e3 / n_steps

    m.add("engine.step.self_ms", per_step_ms("engine.step"), "ms", n_steps)
    for name in ("engine.conflict.shift", "engine.conflict.winner_rank",
                 "models.scan_values", "models.select",
                 "models.pheromone.evaporate", "models.pheromone.deposit",
                 "rng.words", "rng.uniform", "rng.normal12",
                 "agents.record_crossings", "agents.reset_futures",
                 "grid.cell_lane"):
        m.add(f"{name}_ms", per_step_ms(name), "ms", n_steps)
        if name.startswith("rng."):
            calls = tot.get(name, {}).get("calls", 0)
            m.add(f"{name}.calls", calls / n_steps, "count", n_steps)
    decided = sum(r.decided for r in traced)
    moved = sum(r.moved for r in traced)
    m.add("engine.decided", decided / n_steps, "count", n_steps)
    m.add("engine.moved", moved / n_steps, "count", n_steps)
    m.add("engine.move_yield", moved / max(1, decided), "ratio", n_steps)

    profiled = run_simulation(
        first, steps=PROFILE_STEPS, record_timeline=False, profile=True
    ).profile
    m.add("backend.ops_per_step", profiled.ops_per_step, "count", PROFILE_STEPS)
    m.add("backend.allocs_per_step", profiled.allocs_per_step, "count", PROFILE_STEPS)

    plain_p50_ms = median(plain_steps) * 1e3
    seq_ms = median(seq_steps) * 1e3
    m.add("baseline.sequential.step_ms", seq_ms, "ms", len(seq_steps))
    m.add("baseline.speedup", seq_ms / plain_p50_ms, "ratio", len(plain_steps))
    traced_steps = [s for r in traced for s in r.step_s]
    m.add(
        "bench.trace_overhead_ms",
        median(traced_steps) * 1e3 - plain_p50_ms,
        "ms",
        len(traced_steps),
    )
    m.add("bench.trace_coverage", coverage, "ratio", n_steps)
    return Outcome(m, attempted, failed, notes)
