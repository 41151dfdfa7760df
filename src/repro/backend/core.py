"""Array-backend protocol and registry — the device-dispatch layer.

Every compute module in :mod:`repro` routes its array math through an
:class:`ArrayBackend` instead of the module-level ``numpy`` namespace. A
backend bundles three things:

* ``xp`` — the array namespace (``numpy`` or ``cupy``): ``asarray``,
  ``zeros``, ``full``, ``arange``, ``where``, ``nonzero``, ``argsort``,
  ``cumsum``, ``concatenate`` and friends. The whole-array kernels call
  only functions that exist with identical semantics in both namespaces,
  so the *same* engine code runs unchanged on either device;
* device transfer — :meth:`ArrayBackend.from_host` moves a host array
  onto the backend's device and :meth:`ArrayBackend.to_host` brings
  results back (both are identity for NumPy, so the CPU path stays
  zero-copy). Engines call these only at setup and recording boundaries;
* the few operations whose spelling differs per namespace, e.g.
  :meth:`ArrayBackend.scatter_add` (``np.add.at`` vs
  ``cupyx.scatter_add``).

Backends are looked up by name through :func:`resolve_backend`; the NumPy
backend is always available, the CuPy backend registers itself lazily and
raises :class:`~repro.errors.BackendUnavailableError` with an actionable
message when ``cupy`` is not installed.

Bit-identity note: with ``backend="numpy"`` every ``xp.*`` call *is* the
corresponding ``numpy`` call, so the dispatch layer cannot perturb a
single bit of the seed engines' trajectories — the property
``tests/test_backend_parity.py`` pins against golden digests. The keyed
Philox RNG is pure integer/bit arithmetic, so its words are identical on
every backend; only transcendental-free float paths (which the decision
kernels already guarantee) are exactly portable across devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..errors import BackendUnavailableError

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "available_backends",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """Static capability record of an array backend."""

    #: Registry name ("numpy", "cupy", ...).
    name: str
    #: Import name of the array namespace module.
    module: str
    #: Device class the arrays live on: "cpu" or "cuda".
    device: str
    #: Whether ``xp.add.at`` exists natively (NumPy) or scatter-add needs a
    #: dedicated op (CuPy's ``cupyx.scatter_add``).
    native_scatter_add: bool = True
    #: float64 whole-array math is first-class (true for both NumPy and
    #: CUDA CuPy). Engines refuse backends without it: the eq.1/eq.2
    #: decision arithmetic needs exact double precision for bit-identity.
    supports_float64: bool = True
    #: Page-locked host staging buffers are available for device->host
    #: copies (CuPy's ``cupyx.empty_pinned``); pinned staging lets the DMA
    #: engine copy without a bounce buffer.
    pinned_memory: bool = False
    #: Device->host copies can be enqueued on a side stream and overlapped
    #: (``arr.get(stream=...)``); implies :meth:`ArrayBackend.to_host_many`
    #: batches its copies behind one fence instead of N.
    supports_streams: bool = False

    @property
    def is_gpu(self) -> bool:
        """True when arrays live on an accelerator device."""
        return self.device != "cpu"


class ArrayBackend:
    """One array namespace plus its device-transfer and scatter ops.

    Subclasses set :attr:`xp` and :attr:`capabilities` and override the
    transfer hooks. The base implementations are the NumPy (host)
    semantics, so a pure-host backend only needs to assign ``xp``.
    """

    #: The array namespace; every kernel reaches numpy/cupy through this.
    xp: ModuleType = np
    capabilities: BackendCapabilities = BackendCapabilities(
        name="base", module="numpy", device="cpu"
    )

    @property
    def name(self) -> str:
        """Registry name of this backend."""
        return self.capabilities.name

    # ------------------------------------------------------------------
    # Device transfer (recording boundaries)
    # ------------------------------------------------------------------
    def from_host(self, arr) -> "np.ndarray":
        """Move a host array onto this backend's device (identity on CPU)."""
        return self.xp.asarray(arr)

    def to_host(self, arr) -> np.ndarray:
        """Bring a device array back to a host ``numpy.ndarray``."""
        return np.asarray(arr)

    def to_host_many(self, arrays) -> List[np.ndarray]:
        """Bring several device arrays back in one recording-boundary call.

        The base implementation is a plain loop over :meth:`to_host`;
        backends with ``capabilities.supports_streams`` override it to
        enqueue all copies on one side stream into pinned staging buffers
        and pay a single fence instead of one synchronizing copy per
        array (the batched-timeline transfer in ``BatchedEngine.run``).
        """
        return [self.to_host(arr) for arr in arrays]

    # ------------------------------------------------------------------
    # Namespace-divergent operations
    # ------------------------------------------------------------------
    def scatter_add(self, arr, index, values) -> None:
        """In-place unbuffered ``arr[index] += values`` (duplicate-safe)."""
        self.xp.add.at(arr, index, values)

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on CPU)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        caps = self.capabilities
        return f"<{type(self).__name__} name={caps.name!r} device={caps.device!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Backend name -> zero-arg factory. Factories may raise
#: BackendUnavailableError (e.g. CuPy without a GPU stack installed).
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}

#: Resolved-instance cache; only successful factory calls are cached.
_INSTANCES: Dict[str, ArrayBackend] = {}

#: The backend used when a config/engine does not name one.
DEFAULT_BACKEND = "numpy"


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``replace=True`` swaps an existing registration (and drops its cached
    instance) — the hook the mocked-CuPy tests use to inject a GPU-less
    stand-in module.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    # A cached profiling wrapper holds the *old* inner instance; drop it
    # so "profile:<name>" re-resolves against the new registration.
    _INSTANCES.pop(f"profile:{name}", None)


def registered_backends() -> List[str]:
    """Names of all registered backends (available or not), sorted."""
    return sorted(_FACTORIES)


def available_backends() -> List[str]:
    """Names of backends that resolve successfully on this machine."""
    out = []
    for name in registered_backends():
        try:
            resolve_backend(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return out


def resolve_backend(
    spec: Optional[Union[str, ArrayBackend]] = None,
) -> ArrayBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves the default NumPy backend. Unknown names and
    registered-but-unavailable backends (CuPy without ``cupy`` installed)
    raise :class:`~repro.errors.BackendUnavailableError`.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    name = DEFAULT_BACKEND if spec is None else str(spec)
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(name)
    if factory is None and (name == "profile" or name.startswith("profile:")):
        # "profile" / "profile:<inner>" wraps the inner backend in a
        # dispatch-counting proxy (repro.backend.profiling). Resolved here
        # rather than pre-registered so the profiler composes with any
        # backend added later; the import is local because profiling
        # imports this module.
        from .profiling import make_profiling_backend

        inner = name.partition(":")[2] or None
        factory = lambda: make_profiling_backend(inner)  # noqa: E731
    if factory is None:
        raise BackendUnavailableError(
            f"unknown array backend {name!r}; registered backends: "
            f"{registered_backends()}"
        )
    backend = factory()
    _INSTANCES[name] = backend
    return backend
