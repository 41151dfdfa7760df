"""Job model: a submitted simulation request and its lifecycle.

A job is a :class:`~repro.config.SimulationConfig`-derived spec plus an
engine name, identified two ways:

* ``job_id`` — the submission handle ("job-000042"), unique per store;
* ``digest`` — the content address (:func:`repro.io.config_digest` of the
  resolved config), shared by every submission of the same simulation.
  The scheduler coalesces queued jobs with equal digests and the result
  cache serves repeats without re-execution.

States move ``queued → running → done | failed``; a restarted server
requeues jobs the previous process left ``running`` (the JSONL store
replays to the last recorded state).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional

from ..config import SimulationConfig
from ..engine.simulation import available_engines
from ..errors import ServiceError
from ..io import config_digest
from ..obs import mint_trace_id

__all__ = ["JobState", "Job", "job_to_dict", "job_from_dict"]


class JobState(str, enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One submitted simulation request (mutable lifecycle record)."""

    job_id: str
    config: SimulationConfig = field(repr=False)
    engine: str
    #: Content address of the resolved config (cache / coalescing key).
    digest: str
    state: JobState = JobState.QUEUED
    #: Scheduling priority (higher first). The scheduler drains queues
    #: priority-first and the planner packs high-priority lanes before
    #: fill lanes; equal priorities keep submission order.
    priority: int = 0
    #: Optional urgency hint in seconds (client-relative): among equal
    #: priorities, jobs with sooner deadlines are drained first. Purely
    #: an ordering hint — jobs are never dropped for missing it.
    deadline_s: Optional[float] = None
    #: Serialised :class:`~repro.engine.base.RunResult` once done
    #: (:func:`repro.io.run_result_to_dict` format).
    result: Optional[dict] = field(repr=False, default=None)
    error: Optional[str] = None
    #: True when the result came from the cache (disk hit) or was
    #: coalesced onto another job's execution instead of running.
    cache_hit: bool = False
    #: Lanes in the launch that produced the result (1 = solo run,
    #: 0 = never executed here, e.g. a cache hit).
    lanes: int = 0
    #: Amortised wall seconds attributed to this job's lane.
    wall_seconds: float = 0.0
    #: Tracing identity, minted at submission; every span of this job's
    #: tree carries it (``GET /jobs/<id>/trace``, the analytics spans
    #: table). Empty for records from logs written before tracing.
    trace_id: str = ""
    #: Wall-clock submission stamp — the anchor for ``queue_wait``.
    submitted_unix: float = 0.0
    #: Seconds spent queued before the scheduler drained the job
    #: (set when it leaves the queue; 0 until then).
    queue_wait_s: float = 0.0
    #: True when the job had a ``deadline_s`` and was still queued past
    #: it. Reporting only — the job still runs (shedding is a separate
    #: roadmap item).
    deadline_missed: bool = False

    @classmethod
    def create(
        cls,
        job_id: str,
        config: SimulationConfig,
        engine: str = "vectorized",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> "Job":
        """Build a queued job, deriving the content digest.

        An unknown ``engine`` raises :class:`ServiceError` here, at
        submission, instead of failing the job at launch.
        """
        engines = available_engines()
        if engine not in engines:
            raise ServiceError(
                f"unknown engine {engine!r}; available: {sorted(engines)}"
            )
        return cls(
            job_id=job_id,
            config=config,
            engine=str(engine),
            digest=config_digest(config),
            priority=int(priority),
            deadline_s=None if deadline_s is None else float(deadline_s),
            trace_id=mint_trace_id(),
            submitted_unix=time.time(),
        )

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)


def job_to_dict(job: Job, with_config: bool = True) -> dict:
    """JSON-ready dict for a job (HTTP payloads and the JSONL store)."""
    out = {
        "job_id": job.job_id,
        "engine": job.engine,
        "digest": job.digest,
        "state": job.state.value,
        "priority": job.priority,
        "deadline_s": job.deadline_s,
        "result": job.result,
        "error": job.error,
        "cache_hit": job.cache_hit,
        "lanes": job.lanes,
        "wall_seconds": job.wall_seconds,
        "trace_id": job.trace_id,
        "submitted_unix": job.submitted_unix,
        "queue_wait_s": job.queue_wait_s,
        "deadline_missed": job.deadline_missed,
        "scenario": job.config.scenario,
    }
    if with_config:
        out["config"] = job.config.to_dict()
    return out


def job_from_dict(data: dict) -> Job:
    """Rebuild a job from :func:`job_to_dict` output."""
    try:
        state = JobState(data.get("state", "queued"))
        deadline = data.get("deadline_s")
        return Job(
            job_id=str(data["job_id"]),
            config=SimulationConfig.from_dict(data["config"]),
            engine=str(data["engine"]),
            digest=str(data["digest"]),
            state=state,
            # Defaulted for logs written before priorities existed.
            priority=int(data.get("priority", 0)),
            deadline_s=None if deadline is None else float(deadline),
            result=data.get("result"),
            error=data.get("error"),
            cache_hit=bool(data.get("cache_hit", False)),
            lanes=int(data.get("lanes", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            # Defaulted for logs written before tracing/deadline fields.
            trace_id=str(data.get("trace_id", "")),
            submitted_unix=float(data.get("submitted_unix", 0.0)),
            queue_wait_s=float(data.get("queue_wait_s", 0.0)),
            deadline_missed=bool(data.get("deadline_missed", False)),
        )
    except (KeyError, ValueError) as exc:
        raise ServiceError(f"malformed job record: {exc}") from None
