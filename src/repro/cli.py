"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — package, device and scenario summary;
* ``run`` — one simulation with a rendered snapshot and metrics;
* ``sweep`` — a batched scenario x model x seed grid (``--smoke`` for the
  CI fast path);
* ``serve`` — long-running simulation service (HTTP, micro-batching,
  result cache, optional ``--analytics-db`` run persistence);
* ``submit`` / ``status`` — clients for a running ``repro serve``;
* ``trace`` — render a finished job's span tree (phase timings) from a
  live service or straight from an analytics SQLite file;
* ``analytics`` — query a run store (live service or SQLite file):
  run listings, ASCII fundamental diagrams, and ``--latency`` phase
  percentiles;
* ``figures`` — regenerate the paper's tables/figures into a directory;
* ``occupancy`` — the CC 2.0 occupancy calculator;
* ``speedup`` — the modelled Fig 5c curve.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import SimulationConfig
from .engine import available_engines
from .experiments import SCALES, occupancy_table, run_all, table1_hardware
from .io import render_engine
from .metrics import efficiency_report, lane_order_parameter

__all__ = ["main", "build_parser"]

#: ``--backend`` help shared by ``run``, ``sweep`` and ``submit``.
_BACKEND_HELP = (
    "array backend: numpy (default), profile or profile:<name> "
    "(dispatch-counting), or a name added with register_backend"
)


def _cache_size(value: str):
    """argparse type for ``--cache-size``: entries or suffixed bytes.

    A bare integer is an entry budget ("500" = 500 results); a value
    with a byte suffix is a byte budget ("64MB", "2gb", "512kb"). Both
    return a ``(kind, amount)`` pair the serve command maps onto
    :class:`~repro.service.cache.ResultCache` budgets.
    """
    spec = value.strip().lower()
    units = {"gb": 1024**3, "mb": 1024**2, "kb": 1024, "b": 1}
    for suffix, mult in units.items():  # longest suffixes first
        if spec.endswith(suffix):
            try:
                amount = int(float(spec[: -len(suffix)].strip()) * mult)
            except ValueError:
                amount = 0
            if amount < 1:
                raise argparse.ArgumentTypeError(
                    f"bad --cache-size {value!r} (expected e.g. '500' "
                    f"entries or '64MB' bytes)"
                )
            return ("bytes", amount)
    try:
        amount = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --cache-size {value!r} (expected e.g. '500' entries or "
            f"'64MB' bytes)"
        ) from None
    if amount < 1:
        raise argparse.ArgumentTypeError(
            f"--cache-size must be positive, got {value!r}"
        )
    return ("entries", amount)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GPU-accelerated nature-inspired bi-directional pedestrian "
            "movement (Dutta, McLeod & Friesen, IPPS 2014 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package, device and scenario summary")

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--model", default="lem", choices=["lem", "aco", "random", "greedy"])
    run_p.add_argument("--engine", default="vectorized",
                       choices=sorted(available_engines()))
    run_p.add_argument(
        "--backend",
        default="numpy",
        help=_BACKEND_HELP,
    )
    run_p.add_argument("--height", type=int, default=64)
    run_p.add_argument("--width", type=int, default=64)
    run_p.add_argument("--agents", type=int, default=256, help="agents per side")
    run_p.add_argument("--steps", type=int, default=500)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="named scenario ('paper:2', 'boarding:30x7', 'crossing:40x40'); "
        "overrides --height/--width/--agents/--steps",
    )
    run_p.add_argument(
        "--scale",
        default="quick",
        choices=sorted(SCALES),
        help="step-budget scale for --scenario runs",
    )
    run_p.add_argument("--render", action="store_true", help="print the final grid")
    run_p.add_argument(
        "--trace",
        action="store_true",
        help="time the run's phases (warm_backend, engine.run) as tracing "
        "spans and print the span tree; the trajectory is unchanged",
    )
    run_p.add_argument(
        "--profile-dispatch",
        action="store_true",
        help="count array-namespace dispatches (kernel-launch analogue) "
        "through a profiling backend and print the per-step profile; "
        "the trajectory is unchanged",
    )

    swp_p = sub.add_parser(
        "sweep", help="batched scenario x model x seed sweep"
    )
    swp_p.add_argument(
        "--scenarios",
        default="1-4",
        help="scenario indices: comma list and/or ranges, e.g. '1,3,5-8'",
    )
    swp_p.add_argument(
        "--scenario",
        default=None,
        metavar="NAMES",
        help="named scenarios instead of --scenarios indices: comma list, "
        "'family:*' wildcards allowed (e.g. 'boarding:30x7,crossing:*')",
    )
    swp_p.add_argument("--seeds", type=int, default=4, help="seeds per point (0..N-1)")
    swp_p.add_argument(
        "--models",
        default="lem,aco",
        help="comma-separated movement models",
    )
    swp_p.add_argument(
        "--engines",
        default="vectorized",
        help="comma-separated engines (seed batching needs 'vectorized')",
    )
    swp_p.add_argument("--scale", default="quick", choices=sorted(SCALES))
    swp_p.add_argument("--lanes", type=int, default=8,
                       help="max replications per batched launch")
    swp_p.add_argument(
        "--pad-lanes",
        action="store_true",
        help="fuse mixed-scenario points into padded batches "
        "(same model/engine/scale, populations padded to the largest lane)",
    )
    swp_p.add_argument(
        "--pad-waste",
        type=float,
        default=None,
        metavar="FRAC",
        help="max padded-slot fraction per fused batch (default: derived "
        "from the cost model's dispatch-overhead estimate)",
    )
    swp_p.add_argument(
        "--backend",
        default="numpy",
        help=_BACKEND_HELP,
    )
    swp_p.add_argument("--processes", type=int, default=1,
                       help="worker processes for heterogeneous points")
    swp_p.add_argument("--out", default=None,
                       help="directory for sweep.json + sweep.txt (optional)")
    swp_p.add_argument(
        "--smoke",
        action="store_true",
        help="CI fast path: tiny grid, 2 scenarios x 2 models x 2 seeds",
    )
    swp_p.add_argument(
        "--trace",
        action="store_true",
        help="trace the sweep (plan + per-launch phase spans) and print "
        "the span tree after the summary; results are unchanged",
    )

    srv_p = sub.add_parser(
        "serve", help="run the simulation service (micro-batching + cache)"
    )
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8177,
                       help="TCP port (0 binds an ephemeral port)")
    srv_p.add_argument(
        "--state-dir",
        default=".repro-service",
        help="job log + result cache directory (resumes a prior queue)",
    )
    srv_p.add_argument("--lanes", type=int, default=8,
                       help="max jobs fused per batched launch")
    srv_p.add_argument(
        "--no-pad-lanes",
        action="store_true",
        help="only fuse jobs with identical configs (padding is on by default)",
    )
    srv_p.add_argument(
        "--pad-waste",
        type=float,
        default=None,
        metavar="FRAC",
        help="max padded-slot fraction per fused batch (default: derived "
        "from the cost model's dispatch-overhead estimate)",
    )
    srv_p.add_argument(
        "--tick",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="micro-batching window: queued jobs are drained every tick",
    )
    srv_p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="engine worker processes: 1 runs launches serially on the "
        "tick thread, N>1 executes each tick's launches concurrently on "
        "a persistent pool (results stay bit-identical)",
    )
    srv_p.add_argument(
        "--cache-size",
        type=_cache_size,
        default=None,
        metavar="N|BYTES",
        help="result-cache budget with LRU eviction: an entry count "
        "('500') or a byte budget with suffix ('64MB', '2gb'); "
        "default: unbounded",
    )
    srv_p.add_argument(
        "--analytics-db",
        default=None,
        metavar="PATH",
        help="SQLite run store: persist every executed job, stream "
        "per-step metrics (GET /jobs/<id>/stream) and serve the "
        "/analytics endpoints; default: disabled",
    )
    srv_p.add_argument(
        "--record-timeline",
        action="store_true",
        help="record per-step timelines into every job result "
        "(moved/crossings per step)",
    )

    sbm_p = sub.add_parser("submit", help="submit a job to a running service")
    sbm_p.add_argument("--host", default="127.0.0.1")
    sbm_p.add_argument("--port", type=int, default=8177)
    sbm_p.add_argument("--model", default="lem",
                       choices=["lem", "aco", "random", "greedy"])
    sbm_p.add_argument("--engine", default="vectorized",
                       choices=sorted(available_engines()))
    sbm_p.add_argument(
        "--backend",
        default="numpy",
        help=_BACKEND_HELP,
    )
    sbm_p.add_argument("--height", type=int, default=64)
    sbm_p.add_argument("--width", type=int, default=64)
    sbm_p.add_argument("--agents", type=int, default=256, help="agents per side")
    sbm_p.add_argument("--steps", type=int, default=500)
    sbm_p.add_argument("--seed", type=int, default=0)
    sbm_p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="named scenario ('paper:2', 'boarding:30x7', 'crossing:40x40'); "
        "overrides --height/--width/--agents/--steps",
    )
    sbm_p.add_argument(
        "--scale",
        default="quick",
        choices=sorted(SCALES),
        help="step-budget scale for --scenario submissions",
    )
    sbm_p.add_argument(
        "--burst",
        type=int,
        default=1,
        metavar="N",
        help="submit N copies with seeds seed..seed+N-1 in one request "
        "(lands in a single micro-batch)",
    )
    sbm_p.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="P",
        help="scheduling priority (higher drains first; the planner "
        "packs high-priority lanes before fill lanes)",
    )
    sbm_p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="optional urgency hint: among equal priorities, sooner "
        "deadlines drain first",
    )
    sbm_p.add_argument("--wait", action="store_true",
                       help="poll until the submitted job(s) finish")
    sbm_p.add_argument("--timeout", type=float, default=120.0,
                       help="--wait deadline in seconds")

    sts_p = sub.add_parser("status", help="service stats / job status")
    sts_p.add_argument("--host", default="127.0.0.1")
    sts_p.add_argument("--port", type=int, default=8177)
    sts_p.add_argument("--job", default=None, metavar="JOB_ID",
                       help="show one job instead of service stats")
    sts_p.add_argument(
        "--follow",
        default=None,
        metavar="JOB_ID",
        help="stream a job's per-step metrics live (needs a service "
        "running with --analytics-db)",
    )
    sts_p.add_argument("--json", action="store_true",
                       help="print raw JSON (for scripts)")

    trc_p = sub.add_parser(
        "trace", help="render a finished job's span tree (phase timings)"
    )
    trc_p.add_argument("job_id", metavar="JOB_ID")
    trc_p.add_argument("--host", default="127.0.0.1")
    trc_p.add_argument("--port", type=int, default=8177)
    trc_p.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="read spans from an analytics SQLite file instead of a live "
        "service (offline)",
    )
    trc_p.add_argument("--json", action="store_true",
                       help="print the raw span payload (for scripts)")

    ana_p = sub.add_parser(
        "analytics", help="query persisted runs and fundamental diagrams"
    )
    ana_src = ana_p.add_mutually_exclusive_group()
    ana_src.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="query a SQLite run store file directly (offline)",
    )
    ana_src.add_argument("--host", default=None,
                         help="query a running service instead of a file")
    ana_p.add_argument("--port", type=int, default=8177)
    ana_p.add_argument(
        "--scenario",
        default=None,
        metavar="LABEL",
        help="restrict to one scenario label: a named scenario "
        "('boarding:30x7') or an HxW grid geometry ('64x64')",
    )
    ana_p.add_argument("--limit", type=int, default=20,
                       help="max run rows to list (default 20)")
    ana_p.add_argument(
        "--diagram",
        action="store_true",
        help="render the fundamental diagram (density vs mean flow) as "
        "an ASCII plot instead of listing runs",
    )
    ana_p.add_argument(
        "--latency",
        action="store_true",
        help="summarize per-phase latency percentiles (p50/p90/p99) "
        "instead of listing runs: from persisted spans with --db, from "
        "the live histogram summary with --host",
    )
    ana_p.add_argument("--json", action="store_true",
                       help="print raw JSON (for scripts)")

    fig_p = sub.add_parser("figures", help="regenerate the paper's figures")
    fig_p.add_argument("--outdir", default="results")
    fig_p.add_argument("--scale", default="quick", choices=sorted(SCALES))
    fig_p.add_argument("--seeds", type=int, default=2, help="repetitions per point")

    occ_p = sub.add_parser("occupancy", help="CC 2.0 occupancy calculator")
    occ_p.add_argument("--threads", type=int, default=256)
    occ_p.add_argument("--registers", type=int, default=20)
    occ_p.add_argument("--shared", type=int, default=0)

    spd_p = sub.add_parser("speedup", help="modelled Fig 5c speedup curve")
    spd_p.add_argument("--points", type=int, default=8)

    notes_p = sub.add_parser(
        "notes", help="Section IV implementation-notes table per kernel"
    )
    notes_p.add_argument("--agents", type=int, default=25600, help="total agents")
    notes_p.add_argument("--model", default="aco", choices=["lem", "aco"])
    return parser


def _parse_scenarios(spec: str) -> List[int]:
    """Parse '1,3,5-8' style scenario index lists."""
    out: List[int] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part:
                lo, hi = part.split("-", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise SystemExit(
            f"error: bad --scenarios value {spec!r} "
            "(expected comma list and/or ranges, e.g. '1,3,5-8')"
        ) from None
    if not out:
        raise SystemExit(f"error: no scenario indices in {spec!r}")
    return out


def _cmd_sweep(args) -> int:
    """The ``repro sweep`` subcommand body."""
    import os

    from .errors import ReproError
    from .experiments.sweep import (
        SweepRunner,
        named_sweep_points,
        smoke_sweep_points,
        sweep_grid,
    )
    from .io import write_json_record, write_text_table

    # --pad-waste overrides; None lets the runner derive the ceiling from
    # the cost model's dispatch-overhead estimate.
    pad_waste = args.pad_waste
    tracer = sweep_span = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
        sweep_span = tracer.start("sweep")
    try:
        if args.smoke:
            if args.scenario:
                # Named smoke leg: the requested families at tiny scale.
                points = named_sweep_points(
                    args.scenario, seeds=(0, 1), models=("lem",), scale="tiny"
                )
            else:
                points = smoke_sweep_points()
            runner = SweepRunner(
                max_lanes=2,
                processes=1,
                pad_lanes=args.pad_lanes,
                max_pad_waste=pad_waste,
                backend=args.backend,
                tracer=tracer,
            )
        else:
            seeds = tuple(range(args.seeds))
            models = tuple(m for m in args.models.split(",") if m)
            engines = tuple(e for e in args.engines.split(",") if e)
            for label, values in (
                ("--seeds", seeds),
                ("--models", models),
                ("--engines", engines),
            ):
                if not values:
                    print(f"error: {label} selects no runs")
                    return 2
            if args.scenario:
                points = named_sweep_points(
                    args.scenario,
                    seeds=seeds,
                    models=models,
                    engines=engines,
                    scale=args.scale,
                )
            else:
                points = sweep_grid(
                    scenario_indices=_parse_scenarios(args.scenarios),
                    seeds=seeds,
                    models=models,
                    engines=engines,
                    scale=args.scale,
                )
            runner = SweepRunner(
                max_lanes=args.lanes,
                processes=args.processes,
                pad_lanes=args.pad_lanes,
                max_pad_waste=pad_waste,
                backend=args.backend,
                tracer=tracer,
            )
        report = runner.run_report(points)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2

    if sweep_span is not None:
        sweep_span.attrs["runs"] = report.n_points
        tracer.finish(sweep_span)

    packing = ", padded lanes" if report.pad_lanes else ""
    print(
        f"sweep: {report.n_points} runs in {report.wall_seconds:.2f}s "
        f"(lanes<={report.max_lanes}, processes={report.processes}{packing})"
    )
    by_point = {}
    for r in report.records:
        key = (r.scenario or r.scenario_index, r.model, r.engine)
        by_point.setdefault(key, []).append(r)
    for (k, model, engine), recs in sorted(
        by_point.items(), key=lambda item: (str(item[0][0]),) + item[0][1:]
    ):
        mean_tp = sum(r.throughput for r in recs) / len(recs)
        print(
            f"  scenario {str(k):>14s} {model:>6s}/{engine}: "
            f"mean throughput {mean_tp:8.1f} over {len(recs)} seeds"
        )
    if report.n_points and report.total_throughput == 0:
        print("warning: no agent crossed in any run (grid too short?)")

    if tracer is not None:
        from .obs import render_trace

        print()
        print(render_trace(tracer.wire(), title=f"trace {tracer.trace_id}"))

    if args.smoke and not args.scenario and report.total_throughput == 0:
        # The smoke grid is sized so agents always cross; zero means the
        # pipeline is broken, so fail the CI job loudly. Named families
        # are exempt: a congested workload (a 1-cell boarding aisle) can
        # legitimately finish its tiny step budget with zero crossings.
        return 1
    if args.smoke and args.scenario and not report.records:
        print("error: named smoke sweep produced no records")
        return 1

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json_record(os.path.join(args.out, "sweep.json"), report)
        write_text_table(
            os.path.join(args.out, "sweep.txt"),
            {
                "scenario": [r.scenario_index for r in report.records],
                "total_agents": [r.total_agents for r in report.records],
                "model_is_aco": [
                    1 if r.model == "aco" else 0 for r in report.records
                ],
                "seed": [r.seed for r in report.records],
                "throughput": [r.throughput for r in report.records],
                "wall_s": [r.wall_seconds for r in report.records],
            },
            header_comment=(
                f"repro sweep: {report.n_points} runs, "
                f"lanes<={report.max_lanes}, processes={report.processes}"
            ),
        )
        print(f"records written to {args.out}/sweep.json and {args.out}/sweep.txt")
    return 0


def _cmd_serve(args) -> int:
    """The ``repro serve`` subcommand body."""
    from .errors import ReproError
    from .service import ServiceServer, SimulationService

    cache_entries = cache_bytes = None
    if args.cache_size is not None:
        kind, amount = args.cache_size
        if kind == "entries":
            cache_entries = amount
        else:
            cache_bytes = amount
    try:
        service = SimulationService(
            args.state_dir,
            max_lanes=args.lanes,
            pad_lanes=not args.no_pad_lanes,
            max_pad_waste=args.pad_waste,
            record_timeline=args.record_timeline,
            workers=args.workers,
            cache_entries=cache_entries,
            cache_bytes=cache_bytes,
            analytics_db=args.analytics_db,
        )
        server = ServiceServer(
            service, host=args.host, port=args.port, tick_interval=args.tick
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    resumed = service.stats.resumed
    resumed_note = f", resumed {resumed} queued job(s)" if resumed else ""
    analytics_note = (
        f", analytics: {args.analytics_db}" if args.analytics_db else ""
    )
    print(
        f"repro service on http://{server.host}:{server.port} "
        f"(state: {args.state_dir}, lanes<={args.lanes}, "
        f"workers={args.workers}, tick {args.tick:g}s"
        f"{resumed_note}{analytics_note})"
    )
    from .service.http import ROUTES

    print(
        "endpoints: "
        + ", ".join(f"{method} {path}" for method, path, _ in ROUTES)
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (queued jobs resume on restart)")
        server.shutdown()
    return 0


def _cmd_submit(args) -> int:
    """The ``repro submit`` subcommand body."""
    import json

    from .errors import ReproError
    from .service.client import submit_jobs, wait_for_jobs

    try:
        if args.burst < 1:
            print(f"error: --burst must be >= 1, got {args.burst}")
            return 2
        if args.scenario:
            from .components.scenarios import build_scenario

            base = build_scenario(
                args.scenario,
                model=args.model,
                scale=args.scale,
                seed=args.seed,
            ).replace(backend=args.backend)
        else:
            base = SimulationConfig(
                height=args.height,
                width=args.width,
                n_per_side=args.agents,
                steps=args.steps,
                seed=args.seed,
                backend=args.backend,
            ).with_model(args.model)
        specs = [
            {
                "config": base.replace(seed=args.seed + k).to_dict(),
                "engine": args.engine,
                "priority": args.priority,
                "deadline_s": args.deadline,
            }
            for k in range(args.burst)
        ]
        jobs = submit_jobs(specs, host=args.host, port=args.port)
        for job in jobs:
            print(f"{job['job_id']} {job['state']} digest={job['digest'][:12]}")
        if not args.wait:
            return 0
        finished = wait_for_jobs(
            [j["job_id"] for j in jobs],
            host=args.host,
            port=args.port,
            timeout=args.timeout,
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    failed = 0
    for job_id, job in finished.items():
        if job["state"] == "failed":
            failed += 1
            print(f"{job_id} failed: {job.get('error')}")
        else:
            result = job.get("result") or {}
            via = "cache" if job.get("cache_hit") else f"{job.get('lanes', 1)} lane(s)"
            print(
                f"{job_id} done: {result.get('throughput_total')} crossed "
                f"in {result.get('steps_run')} steps (via {via})"
            )
    if failed:
        print(json.dumps({"failed_jobs": failed}))
        return 1
    return 0


def _cmd_status(args) -> int:
    """The ``repro status`` subcommand body."""
    import json

    from .errors import ReproError
    from .service.client import get_job, get_stats, iter_job_stream

    if args.follow:
        try:
            for event, payload in iter_job_stream(
                args.follow, host=args.host, port=args.port
            ):
                if args.json:
                    print(json.dumps({"event": event, **payload}))
                elif event == "metrics":
                    lane = payload.get("lane_index")
                    lane_note = "" if lane is None else f" lanes {lane:.3f}"
                    print(
                        f"step {payload['step']:>5d}: "
                        f"{payload['moved']} moved, "
                        f"{payload['crossed_total']} crossed, "
                        f"gridlock {payload['gridlock_fraction']:.3f}"
                        f"{lane_note}"
                    )
                else:
                    print(
                        f"{payload['job_id']} {payload['state']} "
                        f"({payload['steps_streamed']} steps streamed)"
                    )
        except ReproError as exc:
            print(f"error: {exc}")
            return 2
        return 0

    try:
        if args.job:
            payload = get_job(args.job, host=args.host, port=args.port)
        else:
            payload = get_stats(host=args.host, port=args.port)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.job:
        print(f"{payload['job_id']}: {payload['state']}")
        if payload.get("error"):
            print(f"  error: {payload['error']}")
        if payload.get("deadline_missed"):
            print(
                f"  deadline missed after "
                f"{payload.get('queue_wait_s', 0.0):.3f}s in queue"
            )
        result = payload.get("result")
        if result:
            via = (
                "cache"
                if payload.get("cache_hit")
                else f"{payload.get('lanes', 1)} lane(s)"
            )
            print(
                f"  {result['throughput_total']} crossed in "
                f"{result['steps_run']} steps (via {via})"
            )
        return 0
    jobs = payload.get("jobs", {})
    job_note = ", ".join(f"{n} {state}" for state, n in sorted(jobs.items()))
    print(
        f"jobs: {payload['submitted']} submitted this run"
        + (f" ({job_note})" if job_note else "")
    )
    print(
        f"launches: {payload['engine_launches']} "
        f"({payload['multi_lane_batches']} multi-lane, "
        f"{payload['padded_batches']} padded, {payload['solo_runs']} solo, "
        f"largest batch {payload['largest_batch']}, "
        f"peak concurrency {payload.get('peak_concurrent_launches', 0)} "
        f"on {payload.get('workers', 1)} worker(s))"
    )
    print(
        f"cache: {payload['cache_hits']} hits, {payload['coalesced']} "
        f"coalesced, {payload['cache_entries']} entries "
        f"({payload.get('cache_bytes', 0)} bytes, "
        f"{payload.get('cache_evictions', 0)} evicted) on disk"
    )
    e2e = (payload.get("latency") or {}).get("end_to_end")
    if e2e:
        print(
            f"latency: p50 {e2e['p50'] * 1e3:.1f} ms, "
            f"p90 {e2e['p90'] * 1e3:.1f} ms, "
            f"p99 {e2e['p99'] * 1e3:.1f} ms end-to-end "
            f"over {e2e['count']} traced job(s)"
        )
    if payload.get("deadline_missed"):
        print(
            f"deadlines: {payload['deadline_missed']} job(s) exceeded "
            f"their deadline waiting in queue"
        )
    return 0


def _cmd_trace(args) -> int:
    """The ``repro trace`` subcommand body."""
    import json

    from .errors import ReproError
    from .obs import render_trace

    try:
        if args.db is not None:
            import os

            if not os.path.exists(args.db):
                print(f"error: no analytics store at {args.db!r}")
                return 2
            from .analytics import RunStore

            store = RunStore(args.db)
            try:
                spans = store.spans(args.job_id)
            finally:
                store.close()
            if not spans:
                print(
                    f"error: no spans for job {args.job_id!r} in {args.db} "
                    "(was the service run with --analytics-db and tracing?)"
                )
                return 2
            trace_id = next(
                (s["trace_id"] for s in spans if s.get("trace_id")), ""
            )
            payload = {
                "job_id": args.job_id,
                "trace_id": trace_id,
                "spans": spans,
            }
        else:
            from .service.client import get_job_trace

            payload = get_job_trace(args.job_id, host=args.host, port=args.port)
            spans = payload.get("spans", [])
    except ReproError as exc:
        print(f"error: {exc}")
        return 2

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    state = payload.get("state")
    title = f"job {args.job_id}" + (f" [{state}]" if state else "")
    trace_id = payload.get("trace_id") or ""
    if trace_id:
        title += f"  trace {trace_id[:16]}"
    print(render_trace(spans, title=title))
    return 0


def _phase_sort_key(name: str):
    """Order latency rows pipeline-first: job root, then PHASES, then rest."""
    from .obs import PHASES, ROOT_SPAN

    if name == ROOT_SPAN:
        return (0, 0, name)
    if name in PHASES:
        return (1, PHASES.index(name), name)
    return (2, 0, name)


def _latency_report(args) -> int:
    """``repro analytics --latency``: per-phase percentile table."""
    import json

    from .errors import ReproError
    from .obs import ROOT_SPAN, percentile

    try:
        if args.host is not None:
            from .service.client import get_stats

            latency = get_stats(
                host=args.host, port=args.port
            ).get("latency") or {}
            rows = []
            e2e = latency.get("end_to_end")
            if e2e:
                rows.append(("end-to-end", e2e))
            phases = latency.get("phases") or {}
            for name in sorted(phases, key=_phase_sort_key):
                rows.append((name, phases[name]))
            source = f"http://{args.host}:{args.port} (histogram estimate)"
            if args.json:
                print(json.dumps(latency, indent=2, sort_keys=True))
                return 0
        else:
            db = args.db or ".repro-service/analytics.sqlite"
            import os

            if not os.path.exists(db):
                print(f"error: no analytics store at {db!r} (see --db)")
                return 2
            from .analytics import RunStore

            store = RunStore(db)
            try:
                durations = store.phase_latency(scenario=args.scenario)
            finally:
                store.close()
            rows = []
            for name in sorted(durations, key=_phase_sort_key):
                values = durations[name]
                rows.append(
                    (
                        "end-to-end" if name == ROOT_SPAN else name,
                        {
                            "count": len(values),
                            "p50": percentile(values, 0.50),
                            "p90": percentile(values, 0.90),
                            "p99": percentile(values, 0.99),
                            "mean": sum(values) / len(values),
                        },
                    )
                )
            source = f"{db} (persisted spans)"
            if args.json:
                print(json.dumps(dict(rows), indent=2, sort_keys=True))
                return 0
    except ReproError as exc:
        print(f"error: {exc}")
        return 2

    if not rows:
        print("no latency samples yet (run traced jobs first)")
        return 1
    print(f"phase latency from {source}:")
    print(f"  {'phase':<14s} {'count':>6s} {'p50':>10s} {'p90':>10s} {'p99':>10s}")
    for name, stats in rows:
        print(
            f"  {name:<14s} {stats['count']:>6d}"
            f" {stats['p50'] * 1e3:>8.1f}ms"
            f" {stats['p90'] * 1e3:>8.1f}ms"
            f" {stats['p99'] * 1e3:>8.1f}ms"
        )
    return 0


def _fd_ascii(points: List[dict], scenario: Optional[str]) -> str:
    """ASCII fundamental diagram from /analytics/fundamental-diagram rows."""
    from .io.asciiplot import line_plot

    # One series per movement model so LEM/ACO separate visually, the
    # paper's Fig 6a contrast.
    by_model: dict = {}
    for p in points:
        by_model.setdefault(p["model"], []).append(p)
    xs = [p["density"] for p in points]
    series = {}
    for model, rows in sorted(by_model.items()):
        dens = {round(p["density"], 12): p["flow"] for p in rows}
        series[model] = [dens.get(round(x, 12), float("nan")) for x in xs]
    label = f" ({scenario})" if scenario else ""
    return line_plot(
        series,
        x=xs,
        title=f"fundamental diagram{label}: mean flow vs density",
        xlabel="density (agents/cell)",
        ylabel="flow (crossings/step)",
    )


def _cmd_analytics(args) -> int:
    """The ``repro analytics`` subcommand body."""
    import json

    from .errors import ReproError

    if args.latency:
        return _latency_report(args)

    try:
        if args.host is not None:
            from .service.client import (
                get_analytics_runs,
                get_fundamental_diagram,
            )

            runs_payload = get_analytics_runs(
                host=args.host,
                port=args.port,
                scenario=args.scenario,
                limit=args.limit,
            )
            runs = runs_payload.get("runs", [])
            scenarios = runs_payload.get("scenarios", [])
            points = get_fundamental_diagram(
                host=args.host, port=args.port, scenario=args.scenario
            )
        else:
            db = args.db or ".repro-service/analytics.sqlite"
            import os

            if not os.path.exists(db):
                print(f"error: no analytics store at {db!r} (see --db)")
                return 2
            from .analytics import RunStore

            store = RunStore(db)
            try:
                runs = store.runs(scenario=args.scenario, limit=args.limit)
                scenarios = store.scenarios()
                points = store.fundamental_diagram(scenario=args.scenario)
            finally:
                store.close()
    except ReproError as exc:
        print(f"error: {exc}")
        return 2

    if args.json:
        print(
            json.dumps(
                {"runs": runs, "scenarios": scenarios, "points": points},
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    if args.diagram:
        if not points:
            print("no completed runs to plot (submit jobs to a service "
                  "running with --analytics-db first)")
            return 1
        print(_fd_ascii(points, args.scenario))
        print(f"{len(points)} completed run(s) plotted")
        return 0

    scope = f" in {args.scenario}" if args.scenario else ""
    print(f"{len(runs)} run(s){scope}; scenarios: "
          + (", ".join(scenarios) if scenarios else "none"))
    for r in runs:
        flow = r.get("flow")
        flow_note = "" if flow is None else f" flow {flow:.2f}/step"
        print(
            f"  {r['run_id']:>12s} {r['scenario']:>9s} {r['model']:>6s}"
            f"/{r['engine']} agents={r['agents']} status={r['status']}"
            f"{flow_note}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "info":
        print(f"repro {__version__} — bi-directional pedestrian movement")
        print()
        print(table1_hardware())
        print()
        print("scales:")
        for name, scale in SCALES.items():
            print(f"  {name:>9s}: {scale.description}")
        return 0

    if args.command == "run":
        import time

        from .backend import resolve_backend
        from .backend.profiling import (
            PROFILE_PREFIX,
            DispatchProfile,
            ProfilingBackend,
        )
        from .engine import build_engine
        from .errors import ReproError

        backend_name = args.backend
        if args.profile_dispatch and not backend_name.startswith(PROFILE_PREFIX):
            backend_name = f"{PROFILE_PREFIX}:{backend_name}"
        try:
            if args.scenario:
                from .components.scenarios import build_scenario

                cfg = build_scenario(
                    args.scenario,
                    model=args.model,
                    scale=args.scale,
                    seed=args.seed,
                ).replace(backend=backend_name)
            else:
                cfg = SimulationConfig(
                    height=args.height,
                    width=args.width,
                    n_per_side=args.agents,
                    steps=args.steps,
                    seed=args.seed,
                    backend=backend_name,
                ).with_model(args.model)
            print(cfg.describe())
            if args.profile_dispatch:
                # The instance is cached per name; zero stale counters so
                # the setup snapshot covers only this engine's construction.
                resolve_backend(backend_name).reset()
            tracer = root_span = None
            if args.trace:
                from .obs import Tracer

                tracer = Tracer()
                root_span = tracer.start(
                    "run", model=args.model, engine=args.engine
                )
            if tracer is not None:
                with tracer.span("warm_backend"):
                    eng = build_engine(cfg, engine=args.engine)
            else:
                eng = build_engine(cfg, engine=args.engine)
            setup = None
            if isinstance(eng.backend, ProfilingBackend):
                setup = eng.backend.snapshot()
                eng.backend.reset()
            run_span = None
            if tracer is not None:
                run_span = tracer.start(
                    "engine.run", engine=args.engine, agents=cfg.total_agents
                )
            start = time.perf_counter()
            res = eng.run(record_timeline=False)
            wall = time.perf_counter() - start
            if run_span is not None:
                run_span.attrs["steps"] = res.steps_run
                tracer.finish(run_span)
                tracer.finish(root_span)
            profile = None
            if isinstance(eng.backend, ProfilingBackend):
                profile = DispatchProfile(
                    counts=eng.backend.snapshot(),
                    steps=res.steps_run,
                    setup=setup,
                )
        except ReproError as exc:
            print(f"error: {exc}")
            return 2
        print(
            f"{res.platform}: {res.throughput_total}/{cfg.total_agents} crossed "
            f"in {res.steps_run} steps ({wall:.2f}s wall, "
            f"{wall / max(1, res.steps_run) * 1e3:.2f} ms/step)"
        )
        eff = efficiency_report(eng)
        print(
            f"lane order {lane_order_parameter(eng.backend.to_host(eng.env.mat)):.3f}, "
            f"mean crossed tour {eff.mean_tour_crossed:.1f}"
        )
        if profile is not None:
            print()
            print(profile.describe())
        if tracer is not None:
            from .obs import render_trace

            print()
            print(render_trace(tracer.wire(), title=f"trace {tracer.trace_id}"))
        if args.render:
            print(render_engine(eng))
        return 0

    if args.command == "sweep":
        return _cmd_sweep(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    if args.command == "status":
        return _cmd_status(args)

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "analytics":
        return _cmd_analytics(args)

    if args.command == "figures":
        # The Fig-6b tests and GLM need scipy; check before any figure is
        # written, not after the first ones.
        try:
            import scipy  # noqa: F401
        except ImportError:
            print("error: repro figures needs scipy; install the repro[stats] extra")
            return 2
        seeds = tuple(range(args.seeds))
        report = run_all(
            args.outdir,
            scale=args.scale,
            fig6a_seeds=seeds,
            fig6b_seeds_cpu=tuple(100 + s for s in seeds),
            fig6b_seeds_gpu=tuple(200 + s for s in seeds),
        )
        print(f"figures written to {args.outdir}/")
        print(f"Fig 6a overall ACO gain: {report.fig6a_overall_gain:+.1%} (paper +39.6%)")
        print(f"Fig 6b platform p-value: {report.fig6b_pvalue:.4f} (paper 0.6145)")
        return 0

    if args.command == "occupancy":
        from .cuda import occupancy

        occ = occupancy(args.threads, args.registers, args.shared)
        print(
            f"{args.threads} threads/block, {args.registers} regs/thread, "
            f"{args.shared} B shared/block:"
        )
        print(
            f"  {occ.active_blocks_per_sm} blocks/SM, "
            f"{occ.active_warps_per_sm} warps/SM, occupancy {occ.occupancy:.0%} "
            f"(limited by {occ.limiter})"
        )
        print()
        print(occupancy_table())
        return 0

    if args.command == "notes":
        from .cuda import implementation_report

        print(implementation_report(total_agents=args.agents, model=args.model))
        return 0

    if args.command == "speedup":
        from .cuda import paper_speedup_curve
        from .experiments import paper_scenarios

        scenarios = paper_scenarios()
        stride = max(1, len(scenarios) // args.points)
        counts = [s.total_agents for s in scenarios[::stride]]
        for n, s in paper_speedup_curve(counts):
            print(f"  {n:>7d} agents: {s:5.2f}x")
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
