"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend.core as backend_core
from repro import SimulationConfig
from repro.backend import ArrayBackend, BackendCapabilities, register_backend
from repro.rng import PhiloxKeyedRNG


@pytest.fixture
def rng() -> PhiloxKeyedRNG:
    """A keyed RNG with a fixed seed."""
    return PhiloxKeyedRNG(42)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A small LEM configuration usable by every engine (multiple of 16)."""
    return SimulationConfig(height=32, width=32, n_per_side=60, steps=50, seed=7)


@pytest.fixture
def small_aco_config(small_config) -> SimulationConfig:
    """The small configuration running the ACO model."""
    return small_config.with_model("aco")


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A minimal configuration for per-step inspection tests."""
    return SimulationConfig(height=16, width=16, n_per_side=12, steps=20, seed=3)


class _FakeDeviceBackend(ArrayBackend):
    """NumPy arrays under a device capability record ("cuda")."""

    xp = np
    capabilities = BackendCapabilities(name="fake-device", device="cuda")


@pytest.fixture
def fake_device_backend():
    """Register the fake device backend; restore the registry after."""
    factories = dict(backend_core._FACTORIES)
    instances = dict(backend_core._INSTANCES)
    backend = _FakeDeviceBackend()
    register_backend(backend.name, lambda: backend)
    yield backend
    backend_core._FACTORIES.clear()
    backend_core._FACTORIES.update(factories)
    backend_core._INSTANCES.clear()
    backend_core._INSTANCES.update(instances)
