"""The engines' fixed glibc heap thresholds."""

import ctypes
import platform

import numpy as np
import pytest

import repro.backend.heap as heap
from repro.config import SimulationConfig
from repro.engine.simulation import build_engine

GLIBC = platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


def _mapped_bytes() -> int:
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = _MallInfo2
    return libc.mallinfo2().hblkhd


@pytest.mark.skipif(not GLIBC, reason="glibc only")
def test_building_an_engine_pins_the_thresholds():
    build_engine(SimulationConfig(height=8, width=8, n_per_side=4, steps=1))
    assert heap._pinned is True
    assert heap.pin_heap_thresholds() is True


@pytest.mark.skipif(
    not GLIBC or not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="glibc 2.33+"
)
def test_step_sized_arrays_come_from_the_heap():
    """An 8 MiB array, above glibc's default 128 KiB mmap threshold, is
    served from the heap, not a fresh mapping that faults in anew."""
    assert heap.pin_heap_thresholds()
    before = _mapped_bytes()
    block = np.ones(1 << 20)
    assert _mapped_bytes() == before
    del block


def test_no_op_off_glibc(monkeypatch):
    monkeypatch.setattr(heap, "_pinned", None)
    monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("", ""))
    assert heap.pin_heap_thresholds() is False
