"""Dispatch-counting backend wrapper — the per-step launch profiler.

The paper's GPU wins come from keeping each simulation step inside a
small number of *large* kernel launches; the improved OpenCL
social-field implementation (arXiv:1803.04782) shows the same lesson at
the dispatch level — reorganising *how many* kernels run per step
matters more than the model math. On our array engines the analogue of
a kernel launch is one call through the backend's ``xp`` namespace
(``xp.where``, ``xp.nonzero``, a ufunc, ...): on NumPy each call pays
interpreter + dispatch overhead, on CuPy each is at least one real
kernel launch. :class:`ProfilingBackend` wraps any
:class:`~repro.backend.ArrayBackend` and counts those dispatches, plus
the host↔device transfers and synchronisation fences the engines issue,
so "fewer launches per step" becomes a number the test suite can assert
(``tests/test_dispatch_budget.py``).

The wrapper resolves through the ordinary backend registry under the
names ``"profile"`` (counting NumPy) and ``"profile:<inner>"`` (counting
any registered backend), so it flows everywhere a backend name does:
``SimulationConfig.backend``, ``repro run --profile-dispatch``, the
service wire format and pool workers.

What is (and is not) counted
----------------------------

* every *call* reached through ``backend.xp`` — functions, ufuncs and
  ufunc methods (``xp.add.at``) — is one dispatch; module attributes
  that are types or plain values (``xp.ndarray``, ``xp.pi``) pass
  through unwrapped so ``isinstance`` checks and dtype arguments keep
  working;
* :meth:`~ArrayBackend.scatter_add` and namespace-divergent ops count
  as one dispatch each (plus their own tag);
* :meth:`~ArrayBackend.from_host` / :meth:`~ArrayBackend.to_host` /
  :meth:`to_host_many` count as host↔device transfers, not ops;
* array *method* calls (``arr.fill``, ``arr.sum()``) and fancy-indexed
  assignments do not route through the namespace and are therefore not
  counted — the profile is a lower bound, but a stable one: the hot
  paths reach numpy/cupy through ``xp`` by construction (PR 3), so the
  counted number tracks the real dispatch count closely enough to
  regression-guard it.

Allocation accounting (PR 10)
-----------------------------

Alongside raw dispatches, the tally classifies each counted call as an
**allocation** unless it demonstrably reuses memory: a call that passes
a non-``None`` ``out=`` writes into an existing buffer, and the names in
:data:`NON_ALLOC_OPS` (``asarray`` — identity for on-device arrays of
matching dtype — ``broadcast_to``, a view, and the in-place
``scatter_add``) never produce a fresh hot-path buffer. Everything else
(``where``, ``nonzero``, ``empty``, ``full_like``, ...) allocates a new
array per call, which on small grids is a large slice of per-step cost
and on GPU backends is allocator traffic on the critical path. The
``allocs`` counter makes "the step loop does not allocate" a measured,
budget-guarded quantity exactly like ``ops`` (see
``tests/test_dispatch_budget.py``).

Counting happens on the caller's thread with plain ``int`` increments;
the wrapper adds no per-op allocation beyond one dict update, so a
profiled run's *trajectory* is untouched (the inner backend executes
every op) and stays bit-identical to an unprofiled one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .core import ArrayBackend, BackendCapabilities

__all__ = [
    "DispatchCounts",
    "DispatchProfile",
    "NON_ALLOC_OPS",
    "ProfilingBackend",
    "PROFILE_PREFIX",
]

#: Backend-name prefix that resolves to a counting wrapper.
PROFILE_PREFIX = "profile"

#: Counted namespace ops that never allocate a fresh hot-path buffer:
#: ``asarray`` is identity for an on-device array of matching dtype,
#: ``broadcast_to`` returns a view, ``scatter_add`` mutates in place.
NON_ALLOC_OPS = frozenset({"asarray", "broadcast_to", "scatter_add"})


@dataclass(frozen=True)
class DispatchCounts:
    """Immutable snapshot of a profiler's counters."""

    #: Namespace dispatches (every call through ``backend.xp``), plus the
    #: namespace-divergent backend ops (scatter_add).
    ops: int = 0
    #: Host -> device transfers (``from_host``).
    h2d_transfers: int = 0
    #: Device -> host transfers (``to_host`` / ``to_host_many`` items).
    d2h_transfers: int = 0
    #: ``scatter_add`` calls (also included in ``ops``).
    scatter_adds: int = 0
    #: Device-fence calls (``synchronize``).
    syncs: int = 0
    #: Counted dispatches that allocated a fresh array (no ``out=``,
    #: name not in :data:`NON_ALLOC_OPS`); subset of ``ops``.
    allocs: int = 0
    #: Dispatches per namespace function name ("where", "add.at", ...).
    by_op: Dict[str, int] = field(default_factory=dict)

    def __sub__(self, other: "DispatchCounts") -> "DispatchCounts":
        """Counter delta (``after - before``)."""
        by_op = {
            name: n - other.by_op.get(name, 0)
            for name, n in self.by_op.items()
            if n != other.by_op.get(name, 0)
        }
        return DispatchCounts(
            ops=self.ops - other.ops,
            h2d_transfers=self.h2d_transfers - other.h2d_transfers,
            d2h_transfers=self.d2h_transfers - other.d2h_transfers,
            scatter_adds=self.scatter_adds - other.scatter_adds,
            syncs=self.syncs - other.syncs,
            allocs=self.allocs - other.allocs,
            by_op=by_op,
        )

    @property
    def transfers(self) -> int:
        """Total host↔device transfers in either direction."""
        return self.h2d_transfers + self.d2h_transfers

    def to_dict(self) -> dict:
        """JSON-ready shape (``--profile-dispatch``)."""
        return {
            "ops": self.ops,
            "h2d_transfers": self.h2d_transfers,
            "d2h_transfers": self.d2h_transfers,
            "scatter_adds": self.scatter_adds,
            "syncs": self.syncs,
            "allocs": self.allocs,
            "by_op": dict(sorted(self.by_op.items())),
        }

    def top_ops(self, n: int = 8) -> list:
        """The ``n`` most-dispatched namespace functions, descending."""
        ranked = sorted(self.by_op.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]


@dataclass(frozen=True)
class DispatchProfile:
    """A run's dispatch profile: counter delta plus the step count.

    Returned by ``run_simulation(profile=True)`` (on
    :class:`~repro.engine.simulation.TimedRunResult`) and printed by
    ``repro run --profile-dispatch``. ``steps`` covers the run loop only;
    ``setup`` holds the construction-time counters separately so the
    per-step figure is not polluted by one-off uploads.
    """

    counts: DispatchCounts
    steps: int
    setup: Optional[DispatchCounts] = None

    @property
    def ops_per_step(self) -> float:
        """Mean namespace dispatches per simulation step."""
        return self.counts.ops / max(1, self.steps)

    @property
    def transfers_per_step(self) -> float:
        """Mean host↔device transfers per simulation step."""
        return self.counts.transfers / max(1, self.steps)

    @property
    def allocs_per_step(self) -> float:
        """Mean allocating dispatches per simulation step."""
        return self.counts.allocs / max(1, self.steps)

    def to_dict(self) -> dict:
        out = {
            "steps": self.steps,
            "ops_per_step": self.ops_per_step,
            "transfers_per_step": self.transfers_per_step,
            "allocs_per_step": self.allocs_per_step,
            "counts": self.counts.to_dict(),
        }
        if self.setup is not None:
            out["setup"] = self.setup.to_dict()
        return out

    def describe(self) -> str:
        """Human summary (the ``--profile-dispatch`` output)."""
        lines = [
            f"dispatch profile over {self.steps} steps: "
            f"{self.ops_per_step:.1f} ops/step, "
            f"{self.allocs_per_step:.1f} allocs/step, "
            f"{self.transfers_per_step:.2f} transfers/step "
            f"({self.counts.ops} ops, {self.counts.allocs} allocs, "
            f"{self.counts.transfers} transfers, "
            f"{self.counts.scatter_adds} scatter-adds, "
            f"{self.counts.syncs} syncs total)",
        ]
        top = self.counts.top_ops()
        if top:
            lines.append(
                "hottest ops: "
                + ", ".join(f"{name} x{n}" for name, n in top)
            )
        return "\n".join(lines)


class _CountingCallable:
    """Callable proxy: counts invocations, forwards attribute access.

    Ufunc *methods* matter here — ``xp.add.at`` / ``xp.minimum.reduce``
    are dispatches of their own, so attribute access returns a nested
    counting proxy tagged ``"add.at"``.
    """

    __slots__ = ("_func", "_tally", "_name")

    def __init__(self, func, tally: "_Tally", name: str) -> None:
        self._func = func
        self._tally = tally
        self._name = name

    def __call__(self, *args, **kwargs):
        # ``out=`` reuses the caller's buffer; ufunc ``.at`` methods are
        # in-place by definition; the NON_ALLOC_OPS names are views or
        # identity. Everything else hands back a fresh array.
        alloc = (
            kwargs.get("out") is None
            and self._name not in NON_ALLOC_OPS
            and not self._name.endswith(".at")
        )
        self._tally.count(self._name, alloc)
        return self._func(*args, **kwargs)

    def __getattr__(self, name: str):
        attr = getattr(self._func, name)
        if callable(attr) and not isinstance(attr, type):
            return _CountingCallable(attr, self._tally, f"{self._name}.{name}")
        return attr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<counting {self._name}>"


class _CountingNamespace:
    """Proxy over an array namespace that counts every function call.

    Non-callable attributes (``pi``, ``inf``, ``newaxis``) and *types*
    (``ndarray``, dtype classes, ``errstate``) pass through raw, so the
    proxy is indistinguishable from the real module everywhere except
    that function calls tick the tally.
    """

    def __init__(self, xp, tally: "_Tally") -> None:
        self._xp = xp
        self._tally = tally
        self._cache: Dict[str, object] = {}

    def __getattr__(self, name: str):
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        attr = getattr(self._xp, name)
        if callable(attr) and not isinstance(attr, type):
            attr = _CountingCallable(attr, self._tally, name)
        self._cache[name] = attr
        return attr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<counting namespace over {self._xp.__name__}>"


class _Tally:
    """The mutable counter bundle one profiling backend owns."""

    __slots__ = ("ops", "h2d", "d2h", "scatter_adds", "syncs", "allocs", "by_op")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.h2d = 0
        self.d2h = 0
        self.scatter_adds = 0
        self.syncs = 0
        self.allocs = 0
        self.by_op: Dict[str, int] = {}

    def count(self, name: str, alloc: bool = True) -> None:
        self.ops += 1
        if alloc:
            self.allocs += 1
        self.by_op[name] = self.by_op.get(name, 0) + 1

    def snapshot(self) -> DispatchCounts:
        return DispatchCounts(
            ops=self.ops,
            h2d_transfers=self.h2d,
            d2h_transfers=self.d2h,
            scatter_adds=self.scatter_adds,
            syncs=self.syncs,
            allocs=self.allocs,
            by_op=dict(self.by_op),
        )


class ProfilingBackend(ArrayBackend):
    """Counting wrapper around any :class:`ArrayBackend`.

    Delegates every operation to ``inner`` — arrays live on the inner
    backend's device, trajectories are bit-identical — while tallying
    namespace dispatches and transfers. Resolve it by name
    (``"profile"`` / ``"profile:cupy"``) or construct directly around a
    backend instance.
    """

    def __init__(self, inner: ArrayBackend) -> None:
        if isinstance(inner, ProfilingBackend):
            raise ValueError("refusing to profile a profiling backend")
        self.inner = inner
        self._tally = _Tally()
        self.xp = _CountingNamespace(inner.xp, self._tally)
        caps = inner.capabilities
        self.capabilities = BackendCapabilities(
            name=f"{PROFILE_PREFIX}:{caps.name}",
            module=caps.module,
            device=caps.device,
            native_scatter_add=caps.native_scatter_add,
            supports_float64=caps.supports_float64,
            pinned_memory=caps.pinned_memory,
            supports_streams=caps.supports_streams,
        )

    # ------------------------------------------------------------------
    # Counter surface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter (start of a measured region)."""
        self._tally.reset()

    def snapshot(self) -> DispatchCounts:
        """Immutable copy of the counters right now."""
        return self._tally.snapshot()

    @property
    def ops(self) -> int:
        """Total namespace dispatches since the last reset."""
        return self._tally.ops

    # ------------------------------------------------------------------
    # Delegation (transfers counted, ops counted via the namespace)
    # ------------------------------------------------------------------
    def from_host(self, arr):
        self._tally.h2d += 1
        return self.inner.from_host(arr)

    def to_host(self, arr):
        self._tally.d2h += 1
        return self.inner.to_host(arr)

    def to_host_many(self, arrays):
        arrays = list(arrays)
        self._tally.d2h += len(arrays)
        return self.inner.to_host_many(arrays)

    def scatter_add(self, arr, index, values) -> None:
        self._tally.scatter_adds += 1
        self._tally.count("scatter_add", alloc=False)
        self.inner.scatter_add(arr, index, values)

    def synchronize(self) -> None:
        self._tally.syncs += 1
        self.inner.synchronize()


def make_profiling_backend(inner_name: Optional[str] = None) -> ProfilingBackend:
    """Registry-style factory: wrap the named (or default) inner backend.

    Unavailable inner backends (e.g. ``"profile:cupy"`` without CuPy)
    raise :class:`~repro.errors.BackendUnavailableError` exactly like the
    bare name would.
    """
    from .core import resolve_backend

    return ProfilingBackend(resolve_backend(inner_name))
