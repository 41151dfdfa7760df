"""Batched keyed randomness: one Philox key per replication lane.

:class:`BatchedPhiloxRNG` drives ``B`` independent replications through a
single vectorized Philox evaluation. Replication ``b`` draws with exactly
the key :class:`~repro.rng.philox.PhiloxKeyedRNG` would derive from
``seeds[b]``, and the Philox bijection is element-wise over lanes, so every
word a batched draw produces is bit-identical to the corresponding solo
draw — the invariant the batched engine's equivalence tests pin down.

Two addressing modes cover the engine's needs:

* *replication-major grids* — ``words(stream, step, lane)`` with ``lane``
  of shape ``(B, m)`` (or ``(m,)``, broadcast to every replication): one
  draw per (replication, lane) pair, e.g. per-agent tour-construction
  draws;
* *scattered draws* — ``words_at(stream, step, rep, lane)`` with parallel
  ``rep``/``lane`` index vectors: draws for irregular sets such as the
  contested cells of the movement stage, which differ per replication.

:meth:`BatchedPhiloxRNG.ragged` exposes a :class:`PhiloxKeyedRNG`-compatible
view over flattened rows whose replication is pinned by an explicit index
vector, so the movement models' vector ``select`` kernels run unmodified
on the batched engine's fused rows, whose member sets may differ in size
per replication (padded batching). :meth:`RaggedLaneRNG.subset` narrows
such a view to the rows that actually draw in a step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend import resolve_backend
from .philox import _PhiloxGenerator, _u32_to_unit_open

__all__ = ["BatchedPhiloxRNG", "RaggedLaneRNG"]


class BatchedPhiloxRNG:
    """Per-replication keyed random streams sharing one Philox evaluation.

    ``backend`` selects the array namespace (host NumPy by default); the
    per-lane words are bit-identical on every backend because Philox is
    pure integer arithmetic.
    """

    def __init__(self, seeds: Sequence[int], backend=None) -> None:
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("need at least one replication seed")
        for s in seeds:
            if not (0 <= s < 2**64):
                raise ValueError(f"seed must fit in 64 bits, got {s}")
        self.seeds = tuple(seeds)
        self.n_reps = len(seeds)
        self.backend = resolve_backend(backend)
        self.xp = self.backend.xp
        # One generator keyed by every replication seed; its scratch
        # buffers are shared by the ragged views, whose draws are
        # sequential.
        self._gen = _PhiloxGenerator(self.seeds, self.backend)

    # ------------------------------------------------------------------
    # Replication-major grids: lane shape (B, m) -> words (4, B, m)
    # ------------------------------------------------------------------
    def words(
        self, stream: int, step: int, lane, slot: int = 0, scratch: bool = False
    ) -> np.ndarray:
        """Raw output words, shape ``(4, B, m)``.

        ``lane`` is ``(B, m)`` (one lane vector per replication) or ``(m,)``
        (the same lane vector for every replication — the common case, since
        agent indexing is seed-independent). ``scratch=True`` lands the
        output words in a per-instance reusable buffer (the result is
        overwritten by the next scratch draw) — only for callers
        that consume the words immediately; the values are identical.
        """
        rep, lanes = self._grid(lane)
        out = self._words_flat(stream, step, rep, lanes, slot, scratch)
        return out.reshape(4, self.n_reps, -1)

    def uniform(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        """Uniforms in (0, 1), shape ``(B, m)`` (word 0)."""
        return _u32_to_unit_open(self.words(stream, step, lane, slot, scratch=True)[0])

    def uniform4(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        """Four uniforms in (0, 1) per draw; shape ``(4, B, m)``."""
        return _u32_to_unit_open(self.words(stream, step, lane, slot, scratch=True))

    def normal12(self, stream: int, step: int, lane, slot_base: int = 0) -> np.ndarray:
        """Irwin-Hall standard normal, shape ``(B, m)``.

        Routes through the same fused pass as
        :meth:`~repro.rng.philox.PhiloxKeyedRNG.normal12`, so each element
        is bit-identical to the solo draw under the same seed.
        """
        rep, lanes = self._grid(lane)
        z = self._normal12_flat(stream, step, rep, lanes, slot_base)
        return z.reshape(self.n_reps, -1)

    # ------------------------------------------------------------------
    # Scattered draws: parallel (rep, lane) index vectors
    # ------------------------------------------------------------------
    def words_at(
        self, stream: int, step: int, rep, lane, slot: int = 0, scratch: bool = False
    ) -> np.ndarray:
        """Raw words for scattered ``(rep, lane)`` pairs; shape ``(4, n)``."""
        rep = self.xp.asarray(rep, dtype=np.intp).ravel()
        lanes = self.xp.asarray(lane, dtype=np.uint64).ravel()
        if rep.shape != lanes.shape:
            raise ValueError(
                f"rep and lane must align, got {rep.shape} vs {lanes.shape}"
            )
        return self._words_flat(stream, step, rep, lanes, slot, scratch)

    def uniform_at(self, stream: int, step: int, rep, lane, slot: int = 0) -> np.ndarray:
        """Scattered uniforms in (0, 1); shape ``(n,)``."""
        return _u32_to_unit_open(
            self.words_at(stream, step, rep, lane, slot, scratch=True)[0]
        )

    # ------------------------------------------------------------------
    # Adapters / internals
    # ------------------------------------------------------------------
    def reserve(self, n: int) -> None:
        """Size the scratch buffers for scattered draws of ``n`` lanes.

        The buffers otherwise grow to each new high-water mark, and a
        regrowth inside the step loop is a fresh allocation. An engine
        whose draws never exceed one per agent reserves that count once
        at build.
        """
        self._gen.reserve(n)

    def ragged(self, rep) -> "RaggedLaneRNG":
        """A :class:`PhiloxKeyedRNG`-shaped view over ragged member sets.

        ``rep[i]`` is the replication index keying flattened element ``i``;
        the per-replication member counts may differ.
        """
        return RaggedLaneRNG(self, rep)

    def _grid(self, lane) -> tuple:
        """``(rep, lanes)`` flattened from a replication-major lane grid."""
        xp = self.xp
        lanes = xp.asarray(lane, dtype=np.uint64)
        if lanes.ndim == 0:
            lanes = lanes.reshape(1)
        if lanes.ndim == 1:
            lanes = xp.broadcast_to(lanes, (self.n_reps, lanes.shape[0]))
        if lanes.ndim != 2 or lanes.shape[0] != self.n_reps:
            raise ValueError(
                f"lane must have shape (m,) or ({self.n_reps}, m), got {lanes.shape}"
            )
        m = lanes.shape[1]
        rep = xp.repeat(xp.arange(self.n_reps, dtype=np.intp), m)
        return rep, lanes.ravel()

    def _normal12_flat(
        self, stream: int, step: int, rep: np.ndarray, lanes: np.ndarray, slot_base: int
    ) -> np.ndarray:
        """Irwin-Hall normals for flattened per-replication lanes; ``(n,)``."""
        return self._gen.normal12(
            stream, step, lanes, slot_base, rep=rep if self.n_reps > 1 else None
        )

    def _words_flat(
        self,
        stream: int,
        step: int,
        rep: np.ndarray,
        lanes: np.ndarray,
        slot: int,
        scratch: bool = False,
    ) -> np.ndarray:
        """Philox words for flattened per-replication lanes; shape ``(4, n)``.

        Counter layout matches :meth:`PhiloxKeyedRNG.words` exactly; lane
        ``i`` takes the key schedule of replication ``rep[i]``, gathered
        once per draw (one replication keeps a single broadcast schedule).
        With ``scratch=True`` the output reuses a per-instance buffer; the
        returned array is overwritten by the next scratch draw.
        """
        return self._gen.words(
            stream, step, lanes, slot,
            rep=rep if self.n_reps > 1 else None, scratch=scratch,
        )


class RaggedLaneRNG:
    """Duck-typed :class:`PhiloxKeyedRNG` over ragged replication members.

    The batched engine flattens per-group member sets whose size may
    differ per replication, so this view carries the explicit replication
    index of every flattened element: element ``i`` of a lane vector draws
    with replication ``rep[i]``'s seed, making a ragged ``select`` call
    element-for-element identical to the per-replication solo calls.
    """

    def __init__(self, batched: BatchedPhiloxRNG, rep) -> None:
        rep = batched.xp.asarray(rep, dtype=np.intp).ravel()
        if rep.size and (int(rep.min()) < 0 or int(rep.max()) >= batched.n_reps):
            raise ValueError(
                f"rep indices must lie in [0, {batched.n_reps}), "
                f"got range [{int(rep.min())}, {int(rep.max())}]"
            )
        self._batched = batched
        self._rep = rep

    def subset(self, rows) -> "RaggedLaneRNG":
        """The view over elements ``rows`` of this one.

        Each element keeps its replication, so a subset draw equals the
        same elements of the full draw. The indices were range-checked
        when this view was built, so the subset skips the check and its
        two host reductions.
        """
        view = object.__new__(RaggedLaneRNG)
        view._batched = self._batched
        view._rep = self._rep.take(rows)
        return view

    def _check(self, lanes: np.ndarray) -> np.ndarray:
        if lanes.shape != self._rep.shape:
            raise ValueError(
                f"expected {self._rep.shape[0]} flattened lanes "
                f"(one per ragged member), got {lanes.shape[0]}"
            )
        return self._rep

    def words(
        self, stream: int, step: int, lane, slot: int = 0, scratch: bool = False
    ) -> np.ndarray:
        xp = self._batched.xp
        lanes = xp.asarray(lane, dtype=np.uint64).reshape(-1)
        # _words_flat directly: _check pins the rep/lane alignment, so the
        # words_at re-asarray round trip is dead weight on the hot path.
        return self._batched._words_flat(
            stream, step, self._check(lanes), lanes, slot, scratch
        )

    def uniform(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        return _u32_to_unit_open(self.words(stream, step, lane, slot, scratch=True)[0])

    def uniform4(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        return _u32_to_unit_open(self.words(stream, step, lane, slot, scratch=True))

    def normal12(self, stream: int, step: int, lane, slot_base: int = 0) -> np.ndarray:
        lanes = self._batched.xp.asarray(lane, dtype=np.uint64).reshape(-1)
        return self._batched._normal12_flat(
            stream, step, self._check(lanes), lanes, slot_base
        )
