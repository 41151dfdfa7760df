"""`ExecutorPool`: one persistent worker pool for every dispatch path.

The repo used to have two divergent ways of putting work on cores: the
sweep runner spun up a transient ``multiprocessing.Pool`` per grid and
the serving layer executed every launch serially on the tick thread.
This module replaces both with a single long-lived executor that

* **owns process lifecycle** — workers start from the forward-compatible
  ``forkserver``/``spawn`` context (:data:`MP_START_METHOD`, never the
  deprecated ``fork``), stay warm between launches (so per-process state
  such as the resolved array backend is paid for once, not per batch),
  and are respawned if they die;
* **schedules LPT-heaviest-first** — pending work drains from a heap
  ordered by ``(priority desc, cost desc, submission order)``, so the
  longest launches (by real agent-steps) land on workers first and
  high-priority service jobs overtake fill work;
* **isolates failures** — an exception inside a work item resolves only
  that item's future; a *killed* worker (OOM, segfault, SIGKILL) fails
  only the item it was running with :class:`~repro.errors.
  WorkerCrashError`, is replaced by a fresh process, and every sibling
  and subsequent submission proceeds normally;
* **returns futures** — :meth:`ExecutorPool.submit` hands back a
  :class:`concurrent.futures.Future`, so callers can gather results in
  submission order (the sweep) or as they complete (the service tick).

Workers are started lazily on the first submission, so constructing a
pool (or a ``workers=N`` service that never sees a burst) costs nothing.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import pickle
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ExperimentError, WorkerCrashError

__all__ = ["MP_START_METHOD", "ExecutorPool"]

#: Worker start method, chosen explicitly: ``fork`` is deprecated in the
#: presence of threads on CPython 3.12 and stops being the POSIX default
#: in 3.14, so relying on the platform default is a time bomb.
#: ``forkserver`` (the new POSIX default) where available, ``spawn``
#: elsewhere — both work because work items pickle cleanly.
MP_START_METHOD = (
    "forkserver"
    if "forkserver" in multiprocessing.get_all_start_methods()
    else "spawn"
)


def _worker_main(task_q, result_q, initializer, initargs) -> None:
    """Worker loop: execute task messages until the ``None`` poison pill.

    The worker is deliberately stateless between tasks *except* for
    module-level caches the work functions maintain (the resolved
    array-backend instances and the warm-state placement/distance caches
    in :mod:`repro.engine.warmstate`): that residue is the "warm worker"
    payoff of a persistent pool.

    Results are pickled *here*, in the worker's main thread, so an
    unpicklable result or exception surfaces as a clean per-task failure
    instead of dying silently in a queue feeder thread.
    """
    if initializer is not None:
        initializer(*initargs)
    while True:
        msg = task_q.get()
        if msg is None:
            return
        task_id, fn, args = msg
        try:
            ok, payload = True, fn(*args)
        except BaseException as exc:  # noqa: BLE001 - isolate ANY task failure
            ok, payload = False, exc
        try:
            blob = pickle.dumps((task_id, ok, payload))
        except Exception as exc:  # unpicklable result/exception
            blob = pickle.dumps(
                (
                    task_id,
                    False,
                    ExperimentError(
                        f"work item returned an unpicklable payload: {exc}"
                    ),
                )
            )
        result_q.put(blob)


@dataclass
class _Task:
    """One submitted work item awaiting execution or completion."""

    task_id: int
    fn: Callable
    args: Tuple
    cost: float
    priority: int
    owner: Optional[str] = None
    future: Future = field(default_factory=Future)


@dataclass
class _Worker:
    """A live worker process plus its private task pipe."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    task_q: Any  # ctx.SimpleQueue — single producer (pool), single consumer


class ExecutorPool:
    """Persistent multi-process executor with priority/LPT scheduling.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1). Workers spawn lazily on the
        first :meth:`submit` and persist until :meth:`close`.
    start_method:
        Override the multiprocessing start method (tests); defaults to
        :data:`MP_START_METHOD`.
    initializer, initargs:
        Optional picklable callable run once in each worker at start
        (e.g. :func:`repro.exec.work.warm_backend` to pre-resolve an
        array backend before the first launch lands).
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: Optional[str] = None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._ctx = multiprocessing.get_context(start_method or MP_START_METHOD)
        self._initializer = initializer
        self._initargs = tuple(initargs)

        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._tasks: Dict[int, _Task] = {}  # submitted, not yet resolved
        self._pending: List[Tuple[int, float, int, int]] = []  # heap
        self._workers: Dict[int, _Worker] = {}
        self._idle: List[int] = []
        self._inflight: Dict[int, int] = {}  # worker_id -> task_id
        self._worker_ids = itertools.count()
        self._result_q = None
        self._collector: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closing = False
        self._closed = False
        #: High-water mark of simultaneously assigned workers — the
        #: pool-lifetime evidence that launches actually overlapped.
        self.peak_busy = 0
        #: Per-owner concurrency accounting (see :meth:`peak_busy_for`):
        #: a shared pool serves several dispatchers, and each one's
        #: ``peak_concurrent_launches`` must reflect only its own tasks.
        self._owner_inflight: Dict[str, int] = {}
        self._owner_peak: Dict[str, int] = {}
        #: Workers respawned after dying mid-task (crash isolation count).
        self.respawns = 0
        #: Circuit breaker: consecutive worker deaths with no completed
        #: task in between. Occasional crashes (one OOM-killed batch)
        #: reset on the next success; a systematic failure (e.g. an
        #: initializer that dies in every spawned child) would otherwise
        #: respawn processes forever without ever surfacing an error.
        self._crash_streak = 0
        self._crash_limit = max(4, 2 * self.workers)
        self._broken = False
        #: Successful results received, and their pickled bytes (see
        #: :meth:`transport_stats`).
        self.inline_results = 0
        self.inline_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_started_locked(self) -> None:
        if self._workers or self._closed:
            return
        self._result_q = self._ctx.Queue()
        for _ in range(self.workers):
            self._spawn_worker_locked()
        self._collector = threading.Thread(
            target=self._collect_loop, name="executor-pool-collector", daemon=True
        )
        self._collector.start()

    def _spawn_worker_locked(self) -> None:
        worker_id = next(self._worker_ids)
        task_q = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_q, self._result_q, self._initializer, self._initargs),
            name=f"executor-pool-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _Worker(worker_id, process, task_q)
        self._idle.append(worker_id)

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable,
        *args,
        cost: float = 0.0,
        priority: int = 0,
        owner: Optional[str] = None,
    ) -> Future:
        """Queue ``fn(*args)`` on the pool; returns its future.

        ``fn`` and ``args`` must pickle (module-level callables).
        ``cost`` is the LPT scheduling weight — for simulation launches,
        real agent-steps (:func:`repro.exec.work.launch_cost`) — and
        ``priority`` overrides cost ordering entirely (higher first).
        ``owner`` is an opaque tag scoping concurrency accounting: a
        borrowed (shared) pool tracks each dispatcher's high-water mark
        separately, readable via :meth:`peak_busy_for`.
        """
        with self._lock:
            if self._closing or self._closed:
                raise ExperimentError("submit() on a closed ExecutorPool")
            if self._broken:
                raise ExperimentError(
                    f"ExecutorPool disabled after {self._crash_streak} "
                    f"consecutive worker crashes (workers die without "
                    f"completing any task — check the initializer/backend)"
                )
            self._ensure_started_locked()
            task = _Task(
                task_id=next(self._seq),
                fn=fn,
                args=args,
                cost=float(cost),
                priority=int(priority),
                owner=owner,
            )
            self._tasks[task.task_id] = task
            heapq.heappush(
                self._pending,
                (-task.priority, -task.cost, task.task_id, task.task_id),
            )
            self._pump_locked()
            return task.future

    def _pump_locked(self) -> None:
        """Assign pending tasks (priority, then heaviest-first) to idle workers."""
        while self._pending and self._idle:
            _, _, _, task_id = heapq.heappop(self._pending)
            task = self._tasks[task_id]
            worker_id = self._idle.pop()
            self._inflight[worker_id] = task_id
            self.peak_busy = max(self.peak_busy, len(self._inflight))
            if task.owner is not None:
                busy = self._owner_inflight.get(task.owner, 0) + 1
                self._owner_inflight[task.owner] = busy
                self._owner_peak[task.owner] = max(
                    self._owner_peak.get(task.owner, 0), busy
                )
            self._workers[worker_id].task_q.put((task_id, task.fn, task.args))

    # ------------------------------------------------------------------
    # Completion / crash handling (collector thread)
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while not (self._stop.is_set() and not self._tasks):
            try:
                blob = self._result_q.get(timeout=0.1)
            except (queue.Empty, EOFError, OSError):
                # Empty is the idle heartbeat; EOFError/OSError mean a
                # worker died mid-write (the exact crash class this pool
                # isolates) — either way, sweep for dead workers so their
                # tasks fail instead of hanging, and keep collecting.
                with self._lock:
                    crashed = self._reap_dead_locked()
                # Futures resolve outside the lock (mirrors the normal
                # completion path), so a waiter woken here can never
                # contend with the pool's own bookkeeping.
                for task, message in crashed:
                    task.future.set_exception(WorkerCrashError(message))
                continue
            try:
                msg = pickle.loads(blob)
            except Exception:
                # Torn blob from a worker killed mid-put; the reaper
                # will fail that worker's task on the next sweep.
                continue
            self._handle_result(msg, len(blob))

    def _handle_result(self, msg: Tuple, blob_len: int) -> None:
        """Settle bookkeeping for one worker result and resolve its future."""
        task_id, ok, payload = msg
        with self._lock:
            self._crash_streak = 0
            task = self._tasks.pop(task_id, None)
            for worker_id, running in list(self._inflight.items()):
                if running == task_id:
                    del self._inflight[worker_id]
                    self._idle.append(worker_id)
                    self._release_owner_locked(task)
                    break
            if ok:
                self.inline_results += 1
                self.inline_bytes += blob_len
            self._pump_locked()
            self._drained.notify_all()
        if task is None:
            return  # stale result from a worker declared dead
        if ok:
            task.future.set_result(payload)
        elif isinstance(payload, BaseException):
            task.future.set_exception(payload)
        else:  # pragma: no cover - workers always send exceptions
            task.future.set_exception(ExperimentError(str(payload)))

    def _release_owner_locked(self, task: Optional[_Task]) -> None:
        """Drop one unit of an owner's in-flight count (task left a worker)."""
        if task is None or task.owner is None:
            return
        busy = self._owner_inflight.get(task.owner, 0) - 1
        if busy > 0:
            self._owner_inflight[task.owner] = busy
        else:
            self._owner_inflight.pop(task.owner, None)

    def peak_busy_for(self, owner: str) -> int:
        """High-water mark of simultaneously running tasks for ``owner``.

        Unlike :attr:`peak_busy` (pool-lifetime, all owners), this never
        counts another dispatcher's overlap — the number a borrowed
        pool's stats should report.
        """
        with self._lock:
            return self._owner_peak.get(owner, 0)

    def transport_stats(self) -> Dict[str, int]:
        """Result counters: ``inline_results`` and their ``inline_bytes``.

        Every successful result travels as one pickled blob on the result
        queue; ``inline_bytes`` totals those blobs. ``shm_results`` and
        ``shm_payload_bytes`` are always 0 and remain only because the
        benchmark reader (``perfbench/sweep.py``) still reads them.
        """
        with self._lock:
            return {
                "inline_results": self.inline_results,
                "inline_bytes": self.inline_bytes,
                "shm_results": 0,
                "shm_payload_bytes": 0,
            }

    def _reap_dead_locked(self) -> List[Tuple[_Task, str]]:
        """Collect tasks of dead workers; replace the workers.

        Called from the collector whenever the result queue idles. Only
        the batch a dead worker was running fails — pending work and
        sibling workers are untouched, and the fresh process immediately
        rejoins the idle set. Returns the failed ``(task, message)``
        pairs for the caller to resolve outside the lock.
        """
        failed: List[Tuple[_Task, str]] = []
        for worker_id, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            task_id = self._inflight.pop(worker_id, None)
            del self._workers[worker_id]
            if worker_id in self._idle:
                self._idle.remove(worker_id)
            task = None if task_id is None else self._tasks.pop(task_id, None)
            self._release_owner_locked(task)
            if task is not None:
                failed.append(
                    (
                        task,
                        f"worker process died mid-launch "
                        f"(exit code {worker.process.exitcode}); the batch "
                        f"was not completed",
                    )
                )
            self.respawns += 1
            self._crash_streak += 1
            if self._crash_streak >= self._crash_limit:
                self._broken = True
            if not (self._closing or self._closed or self._broken):
                self._spawn_worker_locked()
        if self._broken:
            # Nothing will ever execute pending work (respawning is
            # disabled); fail it now instead of hanging its futures.
            while self._pending:
                _, _, _, task_id = heapq.heappop(self._pending)
                task = self._tasks.pop(task_id, None)
                if task is not None:
                    failed.append(
                        (
                            task,
                            f"executor pool disabled after "
                            f"{self._crash_streak} consecutive worker "
                            f"crashes; the task was never started",
                        )
                    )
        if failed:
            self._pump_locked()
            self._drained.notify_all()
        return failed

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 60.0) -> None:
        """Drain outstanding work, then stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closing = True
            started = self._collector is not None
            if started:
                self._drained.wait_for(lambda: not self._tasks, timeout=timeout)
            self._closed = True
        self._stop.set()
        if not started:
            return
        for worker in list(self._workers.values()):
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - dead pipe
                pass
        for worker in list(self._workers.values()):
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        self._result_q.close()

    @property
    def started(self) -> bool:
        """Whether worker processes exist yet (they spawn on first submit)."""
        with self._lock:
            return bool(self._workers)
