"""CuPy backend exercised GPU-less through a mock array-module pair.

The mock ``cupy`` delegates every namespace call to NumPy (plus the
``asnumpy``/``asarray`` transfer surface) and the mock ``cupyx`` provides
``scatter_add``; injected through :class:`CupyBackend`'s constructor hooks
and registered as the ``"cupy"`` factory (the ``mock_cupy_backend``
fixture in ``conftest.py``), it drives the *entire* dispatch
plumbing — engine construction, device "transfers", scatter-adds,
recording round-trips, the sequential-engine guard — without a GPU, and
checks the trajectories stay bit-identical to the NumPy backend.

Known limitation: because the mock's arrays *are* ``np.ndarray``, a
kernel that regresses to module-level ``numpy`` instead of ``xp`` still
passes here (real CuPy would raise on the implicit conversion). Routing
completeness is instead covered by code review plus the golden-digest
parity suite; only a wrapper-array mock or real-GPU CI leg (ROADMAP
follow-up) could catch bypasses mechanically.
"""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine, run_batched
from repro.backend import CupyBackend, resolve_backend
from repro.errors import EngineError
from repro.experiments.sweep import SweepRunner, sweep_grid


def _config(model: str, seed: int = 0) -> SimulationConfig:
    return SimulationConfig(
        height=32, width=32, n_per_side=40, steps=30, seed=seed
    ).with_model(model)


class TestMockBackendSurface:
    def test_resolves_through_registry(self, mock_cupy_backend):
        assert resolve_backend("cupy") is mock_cupy_backend
        caps = mock_cupy_backend.capabilities
        assert caps.name == "cupy"
        assert caps.device == "cuda"
        assert caps.is_gpu
        assert not caps.native_scatter_add

    def test_transfer_and_scatter_ops(self, mock_cupy_backend):
        arr = mock_cupy_backend.from_host(np.arange(4))
        assert mock_cupy_backend.to_host(arr).tolist() == [0, 1, 2, 3]
        out = np.zeros(3)
        mock_cupy_backend.scatter_add(out, np.array([1, 1]), 2.0)
        assert out.tolist() == [0.0, 4.0, 0.0]

    def test_synchronize_without_cuda_module_is_noop(self, mock_cupy_backend):
        mock_cupy_backend.synchronize()


class TestMockBackendEngines:
    @pytest.mark.parametrize("model", ["lem", "aco"])
    @pytest.mark.parametrize("engine", ["vectorized"])
    def test_engines_bit_identical_to_numpy(self, mock_cupy_backend, model, engine):
        cfg = _config(model)
        via_mock = build_engine(cfg, engine=engine, backend="cupy")
        via_numpy = build_engine(cfg, engine=engine, backend="numpy")
        r_mock = via_mock.run(record_timeline=True)
        r_numpy = via_numpy.run(record_timeline=True)
        assert r_mock.throughput_total == r_numpy.throughput_total
        np.testing.assert_array_equal(r_mock.moved_per_step, r_numpy.moved_per_step)
        assert via_mock.backend is mock_cupy_backend
        # Full end-state comparison through host copies.
        np.testing.assert_array_equal(
            via_mock.backend.to_host(via_mock.env.mat),
            via_numpy.backend.to_host(via_numpy.env.mat),
        )
        np.testing.assert_array_equal(
            via_mock.backend.to_host(via_mock.pop.tour),
            via_numpy.backend.to_host(via_numpy.pop.tour),
        )

    def test_batched_engine_runs_on_mock_device(self, mock_cupy_backend):
        seeds = (0, 1, 2)
        cfg = _config("aco").replace(backend="cupy")
        out = run_batched(cfg, seeds, record_timeline=True)
        reference = run_batched(
            cfg.replace(backend="numpy"), seeds, record_timeline=True
        )
        for got, want in zip(out.results, reference.results):
            assert got.throughput_total == want.throughput_total
            np.testing.assert_array_equal(got.moved_per_step, want.moved_per_step)

    def test_padded_heterogeneous_batch_on_mock_device(self, mock_cupy_backend):
        configs = [
            _config("lem", 0).replace(backend="cupy"),
            _config("lem", 1).replace(n_per_side=24, height=24, width=24,
                                      backend="cupy"),
        ]
        out = run_batched(configs, (0, 1), record_timeline=False)
        solo = [
            build_engine(c.replace(backend="numpy"), seed=s).run(
                record_timeline=False
            )
            for c, s in zip(configs, (0, 1))
        ]
        assert [r.throughput_total for r in out.results] == [
            r.throughput_total for r in solo
        ]

    def test_sequential_engine_refuses_device_backends(self, mock_cupy_backend):
        with pytest.raises(EngineError, match="host-only"):
            build_engine(_config("lem"), engine="sequential", backend="cupy")

    def test_sweep_runner_threads_backend_to_lanes(self, mock_cupy_backend):
        points = sweep_grid((1, 2), seeds=(0, 1), models=("lem",), scale="tiny")
        records = SweepRunner(max_lanes=4, backend="cupy").run(points)
        reference = SweepRunner(max_lanes=4, backend="numpy").run(points)
        assert [r.throughput for r in records] == [r.throughput for r in reference]


# ---------------------------------------------------------------------------
# Pinned-memory / stream-overlapped transfer path (to_host_many)
# ---------------------------------------------------------------------------


class _FakeStream:
    """Mock ``cupy.cuda.Stream``: records construction and the final fence."""

    created: list = []

    def __init__(self, non_blocking=False):
        self.non_blocking = non_blocking
        self.sync_count = 0
        _FakeStream.created.append(self)

    def synchronize(self):
        self.sync_count += 1


class _FakeDeviceArray:
    """Minimal device-array stand-in exposing CuPy's ``get`` surface."""

    def __init__(self, arr):
        self._arr = np.asarray(arr)
        self.shape = self._arr.shape
        self.dtype = self._arr.dtype
        self.got_on_stream = None

    def get(self, stream=None, out=None):
        self.got_on_stream = stream
        out[...] = self._arr
        return out


class _FakeCuda:
    Stream = _FakeStream


class _FakeCupyStreams:
    """Mock ``cupy`` whose runtime exposes the CUDA stream surface."""

    asnumpy = staticmethod(np.asarray)
    asarray = staticmethod(np.asarray)
    cuda = _FakeCuda()

    def __getattr__(self, name):
        return getattr(np, name)


class _FakeCupyxPinned:
    """Mock ``cupyx`` with pinned host allocation."""

    scatter_add = staticmethod(np.add.at)
    empty_pinned = staticmethod(np.empty)


class TestPinnedStreamTransfers:
    @pytest.fixture()
    def stream_backend(self):
        _FakeStream.created.clear()
        return CupyBackend(
            cupy_module=_FakeCupyStreams(), cupyx_module=_FakeCupyxPinned()
        )

    def test_capabilities_reflect_probed_support(
        self, stream_backend, mock_cupy_backend
    ):
        caps = stream_backend.capabilities
        assert caps.pinned_memory
        assert caps.supports_streams
        # The plain mock (no cuda submodule, no empty_pinned) degrades.
        plain = mock_cupy_backend
        assert not plain.capabilities.pinned_memory
        assert not plain.capabilities.supports_streams

    def test_to_host_many_overlaps_on_one_stream(self, stream_backend):
        arrs = [
            _FakeDeviceArray(np.arange(6).reshape(2, 3)),
            _FakeDeviceArray(np.ones(4, dtype=np.int64)),
        ]
        outs = stream_backend.to_host_many(arrs)
        np.testing.assert_array_equal(outs[0], np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(outs[1], np.ones(4, dtype=np.int64))
        assert outs[0].dtype == arrs[0].dtype
        # Exactly one non-blocking side stream, every copy queued on it,
        # one fence at the end covering the whole batch.
        assert len(_FakeStream.created) == 1
        stream = _FakeStream.created[0]
        assert stream.non_blocking
        assert stream.sync_count == 1
        assert all(a.got_on_stream is stream for a in arrs)

    def test_to_host_many_falls_back_without_stream_support(self, mock_cupy_backend):
        plain = mock_cupy_backend
        arrs = [np.arange(3), np.arange(5)]
        outs = plain.to_host_many(arrs)
        for got, want in zip(outs, arrs):
            np.testing.assert_array_equal(got, want)

    def test_empty_batch(self, stream_backend):
        assert stream_backend.to_host_many([]) == []
        assert len(_FakeStream.created) == 0
