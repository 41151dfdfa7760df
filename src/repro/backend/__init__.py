"""Pluggable array backends: device-agnostic ``xp`` dispatch.

Public surface:

* :func:`resolve_backend` — name -> :class:`ArrayBackend` (the entry
  point every engine/model/RNG constructor funnels through),
* :func:`available_backends` / :func:`registered_backends` — discovery,
* :func:`register_backend` — extension hook for other array namespaces,
* :class:`ArrayBackend` / :class:`BackendCapabilities` — the protocol,
* :class:`NumpyBackend` — the one built-in backend,
* :class:`ProfilingBackend` — the dispatch-counting wrapper that
  ``"profile"`` / ``"profile:<name>"`` resolve to.
"""

from .core import (
    DEFAULT_BACKEND,
    ArrayBackend,
    BackendCapabilities,
    available_backends,
    register_backend,
    registered_backends,
    resolve_backend,
)
from .numpy_backend import NumpyBackend
from .profiling import (
    NON_ALLOC_OPS,
    PROFILE_PREFIX,
    DispatchCounts,
    DispatchProfile,
    ProfilingBackend,
    make_profiling_backend,
)

# replace=True keeps the package body idempotent (importlib.reload, or the
# package reached under two sys.path spellings, re-runs this line).
register_backend("numpy", NumpyBackend, replace=True)

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "NON_ALLOC_OPS",
    "NumpyBackend",
    "DispatchCounts",
    "DispatchProfile",
    "PROFILE_PREFIX",
    "ProfilingBackend",
    "make_profiling_backend",
    "DEFAULT_BACKEND",
    "available_backends",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
