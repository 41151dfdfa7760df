"""Stdlib HTTP front end for :class:`~repro.service.service.SimulationService`.

The wire surface is enumerated in :data:`ROUTES` (the table
``docs/API.md`` is asserted against — see ``tests/test_docs.py``) and
documented endpoint-by-endpoint there. In short: ``POST /jobs``
submits (single spec or atomic burst), ``GET /jobs[/<id>]`` inspects,
``GET /jobs/<id>/stream`` serves a live Server-Sent-Events feed of
per-step metrics while a job runs (requires ``--analytics-db``),
``GET /jobs/<id>/trace`` returns a finished job's tracing span tree,
``GET /analytics/runs`` and ``GET /analytics/fundamental-diagram``
query the persistent run store, ``GET /stats`` / ``GET /healthz``
report counters and liveness, and ``GET /metrics`` exposes the
latency histograms and serving counters in Prometheus text format.
JSON in, JSON out (SSE for the stream, plain text for the scrape) —
no dependencies beyond ``http.server``.

Request handling runs on :class:`~http.server.ThreadingHTTPServer`
threads; the micro-batching loop is one background thread draining the
queue every ``tick_interval`` seconds. The service's own lock reconciles
the two, with engine work outside it — so submissions, status polls and
metric streams stay responsive while a batch executes.
"""

from __future__ import annotations

import json
import math
import threading
import time
import traceback
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from ..config import SimulationConfig
from ..errors import ReproError, ServiceError
from .service import SimulationService

__all__ = ["ServiceServer", "DEFAULT_PORT", "ROUTES"]

#: Default TCP port for ``repro serve`` (no registered meaning; chosen to
#: stay clear of the common dev-server squat zone around 8000/8080).
DEFAULT_PORT = 8177

#: Refuse request bodies beyond this size (a config spec is ~1 KB; this
#: allows bursts of thousands while bounding memory per request).
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: The complete wire surface: ``(method, path template, summary)``.
#: ``docs/API.md`` documents exactly these routes (a test diffs the two),
#: and the handler's dispatch covers exactly these paths.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("POST", "/jobs", "submit one job spec or an atomic burst"),
    ("GET", "/jobs", "list every job (summaries, no config echo)"),
    ("GET", "/jobs/<id>", "one job, result included when done"),
    (
        "GET",
        "/jobs/<id>/stream",
        "live SSE feed of per-step metrics (needs analytics)",
    ),
    (
        "GET",
        "/jobs/<id>/trace",
        "one finished job's span tree (phase timings)",
    ),
    ("GET", "/stats", "serving counters, queue depth, analytics counts"),
    ("GET", "/metrics", "Prometheus text-format metrics scrape"),
    ("GET", "/healthz", "liveness probe"),
    ("GET", "/analytics/runs", "persisted run records, newest first"),
    (
        "GET",
        "/analytics/fundamental-diagram",
        "density/flow points across completed runs",
    ),
)

#: SSE stream poll cadence: how often the streamer checks the analytics
#: store for new metric rows and the job for a terminal state.
_STREAM_POLL_S = 0.05


def _parse_specs(
    payload: dict,
) -> List[Tuple[SimulationConfig, str, int, Optional[float]]]:
    """Decode a submit body into ``(config, engine, priority, deadline_s)``."""
    if not isinstance(payload, dict):
        raise ServiceError("submit body must be a JSON object")
    raw_specs = payload.get("jobs", [payload])
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ServiceError('"jobs" must be a non-empty list of job specs')
    specs: List[Tuple[SimulationConfig, str, int, Optional[float]]] = []
    for spec in raw_specs:
        if not isinstance(spec, dict) or "config" not in spec:
            raise ServiceError('each job spec needs a "config" object')
        config = SimulationConfig.from_dict(spec["config"])
        priority = spec.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(f'"priority" must be an integer, got {priority!r}')
        deadline = spec.get("deadline_s")
        if deadline is not None:
            # json.loads accepts NaN/Infinity; a NaN deadline would break
            # the queue's deadline ordering, so only finite values >= 0 pass.
            if (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or not math.isfinite(deadline)
                or deadline < 0
            ):
                raise ServiceError(
                    '"deadline_s" must be a finite number >= 0, '
                    f"got {deadline!r}"
                )
            deadline = float(deadline)
        specs.append(
            (config, str(spec.get("engine", "vectorized")), priority, deadline)
        )
    return specs


def _make_handler(service: SimulationService):
    class Handler(BaseHTTPRequestHandler):
        # One service instance per server; closed over, not global.
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
            pass  # request logging is the caller's business, not stderr's

        # -- helpers ---------------------------------------------------
        def _reply(self, code: int, payload: dict) -> None:
            blob = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def _reply_text(
            self,
            code: int,
            text: str,
            content_type: str = "text/plain; charset=utf-8",
        ) -> None:
            blob = text.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def _error(self, code: int, message: str) -> None:
            self._reply(code, {"error": message})

        def _read_json(self) -> Optional[dict]:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0 or length > _MAX_BODY_BYTES:
                self._error(413, "missing or oversized request body")
                return None
            try:
                return json.loads(self.rfile.read(length).decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self._error(400, f"bad JSON body: {exc}")
                return None

        # -- routes ----------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            if self.path.rstrip("/") != "/jobs":
                self._error(404, f"no such endpoint: POST {self.path}")
                return
            payload = self._read_json()
            if payload is None:
                return
            try:
                jobs = service.submit_specs(_parse_specs(payload))
            except ReproError as exc:
                self._error(400, str(exc))
                return
            self._reply(202, {"jobs": jobs})

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            raw_path, _, query = self.path.partition("?")
            path = raw_path.rstrip("/") or "/"
            params = urllib.parse.parse_qs(query)
            if path == "/healthz":
                self._reply(200, {"ok": True})
            elif path == "/stats":
                self._reply(200, service.stats_dict())
            elif path == "/metrics":
                # Prometheus text exposition format 0.0.4 (the version
                # tag is part of the scrape contract, not decoration).
                self._reply_text(
                    200,
                    service.metrics_text(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/jobs":
                self._reply(200, {"jobs": service.jobs_payload()})
            elif path == "/analytics/runs":
                self._analytics_runs(params)
            elif path == "/analytics/fundamental-diagram":
                self._analytics_diagram(params)
            elif path.startswith("/jobs/") and path.endswith("/stream"):
                self._stream_job(path[len("/jobs/") : -len("/stream")])
            elif path.startswith("/jobs/") and path.endswith("/trace"):
                self._job_trace(path[len("/jobs/") : -len("/trace")])
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/") :]
                try:
                    payload = service.job_payload(job_id)
                except ServiceError as exc:
                    self._error(404, str(exc))
                    return
                self._reply(200, payload)
            else:
                self._error(404, f"no such endpoint: GET {path}")

        def _job_trace(self, job_id: str) -> None:
            """``GET /jobs/<id>/trace``: the job's recorded span tree.

            404 for unknown jobs; 409 while the job has no trace yet
            (still queued/running, or the service runs with tracing
            disabled) — the job exists, the representation doesn't.
            """
            try:
                payload = service.trace_payload(job_id)
            except ServiceError as exc:
                self._error(404, str(exc))
                return
            if payload is None:
                self._error(
                    409,
                    f"no trace recorded for {job_id!r} yet (job not "
                    "finished, or tracing disabled)",
                )
                return
            self._reply(200, payload)

        # -- analytics ---------------------------------------------------
        def _need_analytics(self) -> bool:
            """409 unless the service was started with an analytics DB."""
            if service.analytics is None:
                self._error(
                    409,
                    "analytics disabled: start the service with "
                    "--analytics-db to enable run persistence and streams",
                )
                return False
            return True

        def _analytics_runs(self, params: dict) -> None:
            # SQLite reads a negative LIMIT as "no limit", so only plain
            # digits pass; 0 (the default) means unlimited.
            limit = params.get("limit", ["0"])[0]
            if not limit.isdecimal():
                self._error(400, '"limit" must be an integer >= 0')
                return
            if not self._need_analytics():
                return
            scenario = params.get("scenario", [None])[0]
            runs = service.analytics.runs(scenario=scenario, limit=int(limit) or None)
            self._reply(
                200,
                {
                    "runs": runs,
                    "scenarios": service.analytics.scenarios(),
                },
            )

        def _analytics_diagram(self, params: dict) -> None:
            if not self._need_analytics():
                return
            scenario = params.get("scenario", [None])[0]
            points = service.analytics.fundamental_diagram(scenario=scenario)
            self._reply(200, {"scenario": scenario, "points": points})

        # -- live metric stream (SSE over chunked transfer) --------------
        def _chunk(self, data: bytes) -> None:
            self.wfile.write(b"%X\r\n" % len(data) + data + b"\r\n")
            self.wfile.flush()

        def _sse_event(self, event: str, payload: dict) -> None:
            blob = json.dumps(payload)
            self._chunk(f"event: {event}\ndata: {blob}\n\n".encode("utf-8"))

        def _stream_job(self, job_id: str) -> None:
            """``GET /jobs/<id>/stream``: follow a job's per-step metrics.

            Server-Sent Events over chunked transfer: one
            ``event: metrics`` frame per new store row (in step order),
            closed by a single ``event: done`` frame carrying the job's
            terminal state. The tail is never lost: the loop snapshots
            the job's terminal-ness *before* fetching rows, so rows that
            land between a fetch and the terminal transition are picked
            up by one more fetch.
            """
            try:
                service.job(job_id)
            except ServiceError as exc:
                self._error(404, str(exc))
                return
            if not self._need_analytics():
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            last_step = -1
            try:
                while True:
                    # Order matters: read terminal-ness, THEN fetch rows.
                    job = service.job(job_id)
                    final = job.finished
                    store = service.analytics
                    if store is None:  # service closed mid-stream
                        break
                    for row in store.metrics(job_id, after_step=last_step):
                        last_step = row["step"]
                        self._sse_event("metrics", row)
                    if final:
                        self._sse_event(
                            "done",
                            {
                                "job_id": job_id,
                                "state": job.state.value,
                                "steps_streamed": last_step + 1,
                                "cache_hit": job.cache_hit,
                            },
                        )
                        break
                    time.sleep(_STREAM_POLL_S)
                self._chunk(b"")  # terminal zero-length chunk
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-stream; nothing to clean up
            self.close_connection = True

    return Handler


class ServiceServer:
    """HTTP listener plus the micro-batching tick loop.

    ``port=0`` binds an ephemeral port (tests); read :attr:`port` for
    the bound value. :meth:`start` runs everything on daemon threads
    (in-process use); :meth:`serve_forever` blocks (the CLI path).
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        tick_interval: float = 0.05,
    ) -> None:
        if tick_interval <= 0:
            raise ServiceError(
                f"tick_interval must be positive, got {tick_interval}"
            )
        self.service = service
        self.tick_interval = float(tick_interval)
        try:
            self._httpd = ThreadingHTTPServer(
                (host, int(port)), _make_handler(service)
            )
        except OSError as exc:
            # EADDRINUSE and friends become the clean CLI exit-2 path.
            raise ServiceError(
                f"cannot bind http://{host}:{port}: {exc}"
            ) from None
        self._httpd.daemon_threads = True
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    # ------------------------------------------------------------------
    def _tick_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.service.tick()
            except Exception:  # keep serving; a broken batch is not fatal
                traceback.print_exc()
            # Fixed-interval micro-batching: the wait *is* the batching
            # window in which concurrent submissions accumulate.
            self._stop.wait(self.tick_interval)

    def _spawn(self, target) -> None:
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        self._threads.append(thread)

    def start(self) -> None:
        """Serve and tick on background threads (non-blocking)."""
        self._spawn(self._tick_loop)
        self._spawn(self._httpd.serve_forever)

    def serve_forever(self) -> None:
        """Serve on the calling thread (ticks in the background)."""
        self._spawn(self._tick_loop)
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the tick loop, close the listener and the worker pool
        (idempotent)."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        # The server owns the service's lifecycle on the CLI path, so a
        # stopped server also releases the service's worker processes.
        self.service.close()
