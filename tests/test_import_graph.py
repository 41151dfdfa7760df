"""The simulation path imports numpy alone; scipy loads when a statistic runs.

``repro.stats`` imports scipy inside the functions that evaluate a
distribution, so importing the package, serving jobs, sweeping or running
a pool worker never loads it. These tests check which modules are loaded,
not how long anything takes.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import SimulationConfig
from repro.exec import ExecutorPool, LaunchWork, execute_launch
from repro.stats import BinomialGLM, add_intercept, welch_ttest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Makes every ``import scipy`` in the process raise ModuleNotFoundError.
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _tiny(seed: int = 0) -> SimulationConfig:
    return SimulationConfig(height=16, width=16, n_per_side=8, steps=10, seed=seed)


# Module-level helper: the pool worker imports this module by name, and
# nothing this module imports loads scipy.
def _launch_and_report_scipy() -> tuple:
    outcome = execute_launch(
        LaunchWork(configs=(_tiny(0), _tiny(1)), batched=True)
    )
    return "scipy" in sys.modules, outcome.lanes


class TestNoScipyOnTheSimulationPath:
    def test_fresh_process_imports_and_steps_without_scipy(self):
        proc = _python(textwrap.dedent(
            """
            import sys
            import repro, repro.cli, repro.service, repro.exec.work
            from repro import SimulationConfig, build_engine
            cfg = SimulationConfig(height=16, width=16, n_per_side=8,
                                   steps=5, seed=0)
            eng = build_engine(cfg, "vectorized")
            for _ in range(cfg.steps):
                eng.step()
            print(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
            """
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_pool_worker_runs_a_launch_without_scipy(self):
        with ExecutorPool(1) as pool:
            loaded, lanes = pool.submit(_launch_and_report_scipy).result(timeout=300)
        assert lanes == 2
        assert not loaded


class TestScipyBlocked:
    def test_smoke_sweep_runs(self):
        proc = _python(BLOCK_SCIPY + textwrap.dedent(
            """
            import runpy
            sys.argv = ["repro", "sweep", "--smoke"]
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
            """
        ))
        assert proc.returncode == 0, proc.stderr
        assert "mean throughput" in proc.stdout

    def test_figures_exit_2_before_writing(self, tmp_path):
        outdir = tmp_path / "figures"
        proc = _python(BLOCK_SCIPY + textwrap.dedent(
            f"""
            import runpy
            sys.argv = ["repro", "figures", "--scale", "tiny", "--seeds", "1",
                        "--outdir", {str(outdir)!r}]
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
            """
        ))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("error: ")
        assert "repro[stats]" in proc.stdout
        assert "Traceback" not in proc.stderr
        assert not outdir.exists()

    def test_statistics_name_the_missing_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        x = np.linspace(-1.0, 1.0, 20)
        successes = np.round(10.0 / (1.0 + np.exp(-x)))
        with pytest.raises(ModuleNotFoundError, match="scipy"):
            BinomialGLM().fit(add_intercept(x), successes, np.full(20, 10.0))
        with pytest.raises(ModuleNotFoundError, match="scipy"):
            welch_ttest([1.0, 2.0, 3.0], [2.0, 3.0, 5.0])


class TestSweepLeavesTheServiceUnloaded:
    """The sweep dispatches through ``repro.exec``; ``import repro`` (and
    with it every pool worker) must not pull in the job service, whose
    modules would add to every process's resident set."""

    def test_experiments_import_without_the_service(self):
        proc = _python(
            "import sys\n"
            "import repro, repro.experiments\n"
            "print('repro.service' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
