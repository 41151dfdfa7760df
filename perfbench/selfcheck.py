"""Structural self-checks of the benchmark, on tiny configs.

    python3 perfbench/run.py --selfcheck

Every workload, untraced and traced, must name every metric of its
BENCHMARK.json list with the listed unit, pass its own correctness
checks and print a well-formed result line; the digest comparison must
reject a deliberately corrupted state, and the span-coverage check must
fail a step loop that spends about half its time outside the step spans.
Nothing here asserts a wall time, so a loaded machine cannot fail it.
"""

from __future__ import annotations

import io
import json
import time

from repro.engine.simulation import build_engine
from repro.experiments.scenarios import scenario_config, scenario_spec

import paper
from paper import PAPER_WORKLOADS, prefix_digests_match
from run import PAPER, WORKLOADS, catalog, run_workload

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _tiny_paper_config(workload: str, config_seed: int):
    scenario, model = PAPER_WORKLOADS[workload]
    return scenario_config(scenario_spec(scenario), model, "tiny", seed=config_seed)


def _tiny(workload: str) -> dict:
    if workload in PAPER:
        return {"make_config": _tiny_paper_config}
    return {"scale": "tiny", "scenarios": (1, 20)}


def _check_run(workload: str, trace: bool) -> list:
    problems = []
    outcome = run_workload(workload, 0, 0.0, trace, **_tiny(workload))
    buf = io.StringIO()
    outcome.emit(workload, 0, int(trace), out=buf)
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    where = f"{workload} trace={int(trace)}"
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed {result['failed']}/{result['attempted']}")
    expected = catalog("per_layer" if trace else "end_to_end")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != expected:
        problems.append(f"{where}: metrics {got} != catalog {expected}")
    return problems


def _check_digest_rejects_corruption() -> list:
    cfg = _tiny_paper_config("paper_dense_aco", 7)
    vec = build_engine(cfg, "vectorized")
    seq = build_engine(cfg, "sequential")
    for _ in range(3):
        vec.step()
        seq.step()
    problems = []
    if not prefix_digests_match(vec, seq):
        problems.append("digest check: identical runs reported different")
    seq.pop.tour[1] += 1.0
    if prefix_digests_match(vec, seq):
        problems.append("digest check: a corrupted state passed")
    return problems


def _check_coverage_gap_fails() -> list:
    """A traced step loop that idles beside every step must fail the bar."""
    instrument = paper._instrument

    def instrument_with_gap(engine, log):
        instrument(engine, log)
        traced_step = engine.step

        def step_then_idle():
            t0 = time.perf_counter()
            report = traced_step()
            time.sleep(time.perf_counter() - t0)
            return report

        engine.step = step_then_idle

    paper._instrument = instrument_with_gap
    try:
        outcome = run_workload("paper_sparse_lem", 0, 0.0, True, **_tiny("paper_sparse_lem"))
    finally:
        paper._instrument = instrument
    if not outcome.failed or not any("step spans cover" in n for n in outcome.notes):
        return ["coverage check: a step loop half outside the step spans passed"]
    return []


def selfcheck() -> int:
    problems = _check_digest_rejects_corruption() + _check_coverage_gap_fails()
    for workload in WORKLOADS:
        for trace in (False, True):
            problems += _check_run(workload, trace)
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck ok" if not problems else f"selfcheck FAILED ({len(problems)})")
    return 1 if problems else 0
