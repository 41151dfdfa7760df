"""CUDA execution-model substrate: devices, occupancy, tiling, cost model.

This package is the documented substitution for the paper's missing
hardware: it models the GTX 560 Ti / i7-930 pair of Table I (device specs,
CC 2.0 occupancy rules, 16x16 tiles with 18x18 halos, warp divergence and
memory-transaction accounting) and prices the paper's exact experimental
configurations through a calibrated analytic cost model to regenerate
Figures 5a-5c. Nothing here steps a simulation: the engines run the
whole-array stages, and a test (``tests/test_cuda_tiling_halo.py``)
checks that each tile's 18x18 shared image of a live state gives its
agents the same neighbours and scan values as the whole grid.
"""

from .costmodel import (
    CpuCostModel,
    GpuCostModel,
    KernelTime,
    PAPER_ACO_OVER_LEM,
    PAPER_ENDPOINTS,
    PAPER_GRID,
    PAPER_STEPS,
    paper_speedup_curve,
)
from .device import (
    CC_20_LIMITS,
    ComputeCapabilityLimits,
    CpuSpec,
    DeviceSpec,
    GTX_560_TI_448,
    I7_930,
)
from .divergence import (
    branchless_factor,
    expected_serialization_factor,
    prob_warp_diverges,
)
from .halo import HaloAssignment, halo_pass_count, halo_perimeter, halo_warp_schedule
from .kernels import (
    HALO_FACTOR,
    KernelWorkload,
    cpu_stage_workloads,
    gpu_kernel_workloads,
)
from .launch import (
    Dim3,
    KernelLaunchConfig,
    agent_kernel_launch,
    cell_kernel_launch,
)
from .memory import (
    MemoryTraffic,
    bank_conflict_degree,
    effective_bandwidth_bytes,
    global_transactions_per_warp,
)
from .occupancy import OccupancyResult, occupancy
from .report import KernelNote, implementation_notes, implementation_report
from .tiling import DEFAULT_TILE, OUT_OF_GRID, Tile, TileDecomposition
from .timers import CudaEvent, Stopwatch, event_elapsed_ms

__all__ = [
    "DeviceSpec",
    "CpuSpec",
    "ComputeCapabilityLimits",
    "GTX_560_TI_448",
    "I7_930",
    "CC_20_LIMITS",
    "Dim3",
    "KernelLaunchConfig",
    "cell_kernel_launch",
    "agent_kernel_launch",
    "OccupancyResult",
    "occupancy",
    "Tile",
    "TileDecomposition",
    "DEFAULT_TILE",
    "OUT_OF_GRID",
    "HaloAssignment",
    "halo_perimeter",
    "halo_warp_schedule",
    "halo_pass_count",
    "MemoryTraffic",
    "global_transactions_per_warp",
    "bank_conflict_degree",
    "effective_bandwidth_bytes",
    "prob_warp_diverges",
    "expected_serialization_factor",
    "branchless_factor",
    "KernelWorkload",
    "gpu_kernel_workloads",
    "cpu_stage_workloads",
    "HALO_FACTOR",
    "GpuCostModel",
    "CpuCostModel",
    "KernelTime",
    "PAPER_GRID",
    "PAPER_STEPS",
    "PAPER_ENDPOINTS",
    "PAPER_ACO_OVER_LEM",
    "paper_speedup_curve",
    "KernelNote",
    "implementation_notes",
    "implementation_report",
    "CudaEvent",
    "event_elapsed_ms",
    "Stopwatch",
]
