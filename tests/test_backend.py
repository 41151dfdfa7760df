"""Backend layer: registry, NumPy backend, import hygiene, float64 guard."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.backend.core as backend_core
from repro.backend import (
    ArrayBackend,
    BackendCapabilities,
    NumpyBackend,
    available_backends,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.errors import BackendUnavailableError, ReproError

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def scratch_registry():
    """Snapshot/restore the backend registry around a test."""
    factories = dict(backend_core._FACTORIES)
    instances = dict(backend_core._INSTANCES)
    yield
    backend_core._FACTORIES.clear()
    backend_core._FACTORIES.update(factories)
    backend_core._INSTANCES.clear()
    backend_core._INSTANCES.update(instances)


class TestRegistry:
    def test_numpy_is_the_only_builtin_backend(self):
        assert registered_backends() == ["numpy"]

    def test_numpy_is_available(self):
        assert "numpy" in available_backends()

    def test_default_resolution_is_numpy(self):
        backend = resolve_backend(None)
        assert backend.name == "numpy"
        assert backend.xp is np

    def test_resolution_is_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_backend_instance_passes_through(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_unknown_backend_raises_clean_error(self):
        with pytest.raises(BackendUnavailableError, match="unknown array backend"):
            resolve_backend("tpu")

    def test_backend_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            resolve_backend("not-a-backend")

    def test_register_rejects_duplicates_without_replace(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_register_replace_swaps_factory(self, scratch_registry):
        class Marker(NumpyBackend):
            pass

        register_backend("numpy", Marker, replace=True)
        assert isinstance(resolve_backend("numpy"), Marker)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend("", NumpyBackend)


class TestNumpyBackend:
    def test_capability_record(self):
        caps = resolve_backend("numpy").capabilities
        assert caps == BackendCapabilities(
            name="numpy", device="cpu", supports_float64=True
        )
        assert not caps.is_gpu

    def test_transfers_are_zero_copy(self):
        backend = resolve_backend("numpy")
        arr = np.arange(5)
        assert backend.from_host(arr) is arr
        assert backend.to_host(arr) is arr

    def test_scatter_add_handles_duplicates(self):
        backend = resolve_backend("numpy")
        out = np.zeros(3)
        backend.scatter_add(out, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]))
        assert out.tolist() == [3.0, 0.0, 5.0]

    def test_synchronize_is_a_noop(self):
        resolve_backend("numpy").synchronize()


class TestImportHygiene:
    def test_import_repro_loads_only_the_four_backend_modules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.backend.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([
            "repro.backend.core",
            "repro.backend.heap",
            "repro.backend.numpy_backend",
            "repro.backend.profiling",
        ])

    def test_base_backend_protocol_surface(self):
        backend = ArrayBackend()
        assert backend.xp is np
        out = np.zeros(2)
        backend.scatter_add(out, np.array([1]), 4.0)
        assert out[1] == 4.0


class TestHostOnlyEngines:
    def test_sequential_engine_refuses_device_backends(self, fake_device_backend):
        from repro import SimulationConfig, build_engine
        from repro.errors import EngineError

        cfg = SimulationConfig(height=16, width=16, n_per_side=8, steps=2)
        with pytest.raises(EngineError, match="host-only"):
            build_engine(cfg, engine="sequential", backend=fake_device_backend.name)


class TestFloat64Enforcement:
    def test_engines_reject_reduced_precision_backends(self, scratch_registry):
        from repro import SimulationConfig, build_engine
        from repro.errors import EngineError

        class HalfBackend(NumpyBackend):
            capabilities = BackendCapabilities(
                name="half", device="cpu", supports_float64=False
            )

        register_backend("half", HalfBackend)
        cfg = SimulationConfig(height=16, width=16, n_per_side=8, steps=2,
                               backend="half")
        with pytest.raises(EngineError, match="float64"):
            build_engine(cfg)

    def test_batched_engine_rejects_reduced_precision_backends(
        self, scratch_registry
    ):
        from repro import SimulationConfig
        from repro.engine import BatchedEngine
        from repro.errors import EngineError

        class HalfBackend(NumpyBackend):
            capabilities = BackendCapabilities(
                name="half", device="cpu", supports_float64=False
            )

        register_backend("half", HalfBackend)
        cfg = SimulationConfig(height=16, width=16, n_per_side=8, steps=2,
                               backend="half")
        with pytest.raises(EngineError, match="float64"):
            BatchedEngine(cfg, seeds=(0, 1))
