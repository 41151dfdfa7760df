"""Repository benchmark: paper-scale step time per layer, plus the sweep service path.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sparse_lem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig6a_sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --seed 1          # every workload, one process each
    python3 perfbench/run.py --selfcheck

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run with every wrapped layer callable recording spans. The
metric names, units and workloads are listed in ``BENCHMARK.json``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The program under test is the
``repro`` package in ``src/``; nothing there is changed or imported
before the workload's inputs are generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PAPER = ("paper_sparse_lem", "paper_dense_aco")
WORKLOADS = PAPER + ("fig6a_sweep",)
OUT_DIR = ".perfbench_out"


def catalog(section: str):
    """``[(name, unit)]`` of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **overrides):
    """Run one workload; returns its :class:`report.Outcome`.

    ``overrides`` reach the workload function (the self-check shrinks the
    geometry with them). Per-layer metrics a workload does not exercise
    (engine layers on the sweep, service layers on the paper runs) are
    reported as 0, so every run names every metric.
    """
    from paper import run_paper
    from sweep import run_sweep

    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    runner = run_paper if workload in PAPER else run_sweep
    outcome = runner(workload, seed, seconds, trace, spans_path=spans_path, **overrides)
    outcome.metrics.add(
        "failed_fraction", outcome.failed_fraction, "ratio", outcome.attempted
    )
    section = "per_layer" if trace else "end_to_end"
    outcome.metrics = outcome.metrics.conform(catalog(section), fill_missing=trace)
    return outcome


def stop_mp_helpers() -> None:
    """Stop the multiprocessing forkserver and resource tracker; wait for both.

    The worker pool starts both and they outlive its ``close()``. Left to
    notice this process's exit on their own, they end after it does and
    stay behind as orphans until something reaps them.
    """
    from multiprocessing import forkserver, resource_tracker

    # Forkserver first: it holds a copy of the tracker's pipe, and the
    # tracker only stops once every copy is closed.
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS, help="one workload (default: all, one process each)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="structural checks on tiny configs (metric names, units, digest check)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.selfcheck:
        # One process per workload: peak_rss_mb is a process's peak so
        # far, so workloads sharing a process would report each other's.
        status = 0
        for workload in WORKLOADS:
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            status = subprocess.run(cmd, check=False).returncode or status
        return status
    sys.path.insert(0, SRC)
    try:
        if args.selfcheck:
            from selfcheck import selfcheck

            return selfcheck()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_mp_helpers()
    outcome.emit(args.workload, args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
