"""Philox4x32-10 counter-based random number generator.

This is the reproduction's stand-in for CURAND: a stateless, keyed generator
whose output depends only on ``(key, counter)``. Each random decision in the
simulation derives its counter from ``(step, lane, slot)`` and its key from
``(seed, stream)``, so the sequential, vectorized and tiled engines consume
*bit-identical* randomness regardless of iteration order — the property that
lets us strengthen the paper's CPU-vs-GPU consistency check into exact
trajectory equality.

The implementation follows Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3" (SC'11) and is validated against the Random123 known-answer
vectors in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..backend import resolve_backend

__all__ = [
    "philox4x32",
    "philox4x32_scalar",
    "PHILOX_ROUNDS",
    "PhiloxKeyedRNG",
    "irwin_hall_normal12",
]

#: Standard number of rounds for philox4x32-10.
PHILOX_ROUNDS = 10

#: Round multipliers as a column: row 0 scales c0, row 1 scales c2.
_MULTIPLIERS = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
#: Weyl key increments as a column: row 0 bumps k0, row 1 bumps k1.
_WEYL = np.array([[0x9E3779B9], [0xBB67AE85]], dtype=np.uint64)
_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _take_buffer(xp, slots: dict, key: str, rows: int, n: int, dtype) -> np.ndarray:
    """A reusable ``(rows, n)`` buffer (capacity-grown, sliced down).

    The word pairs, shift temporary and output words of a draw are fully
    overwritten on every call and consumed before the next draw, so each
    RNG instance parks one buffer per role and hands back leading-slice
    views — after the high-water mark, a draw performs zero allocating
    namespace dispatches for them.
    """
    buf = slots.get(key)
    if buf is None or buf.shape[1] < n:
        buf = xp.empty((rows, n), dtype=dtype)
        slots[key] = buf
    return buf if buf.shape[1] == n else buf[:, :n]


def _round_keys(key, rounds: int = PHILOX_ROUNDS, xp=np) -> np.ndarray:
    """The Philox key schedule, ``(rounds, 2, m)`` uint64.

    ``key`` is ``(2, m)``: the two key words of ``m`` keys. Round ``r``
    uses ``(k0 + r * W0, k1 + r * W1) mod 2**32``.
    """
    r = xp.arange(rounds, dtype=np.uint64)[:, None, None]
    return (xp.asarray(key, dtype=np.uint64)[None] + r * xp.asarray(_WEYL)) & _U32


def _philox_rounds(a, b, tmp, multipliers, round_keys) -> tuple:
    """The Philox round loop on the paired counter words, in place.

    ``a`` holds words (c0, c2) and ``b`` words (c1, c3), each a ``(2, n)``
    uint64 array of 32-bit values; ``tmp`` is a ``(2, n)`` uint64 buffer
    the loop overwrites. One round of Philox4x32 is

        c0, c1, c2, c3 = hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
                         hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)

    so with ``P = a * (M0, M1)`` the new ``a`` is ``hi(P)`` reversed,
    xored into ``b`` and the round keys, and the new ``b`` is ``lo(P)``
    reversed — one multiply by the ``(2, 1)`` ``multipliers`` column, a
    shift into ``tmp``, a mask, two xors and a swap of views per round,
    in place of sixteen word-wide operations. Each product fits in 64
    bits, so nothing wraps. ``round_keys`` is ``(rounds, 2, m)`` with
    ``m`` 1 (one key, broadcast) or ``n`` (a key per lane); see
    :func:`_round_keys`. Every operation is an array operator (no
    namespace dispatch), so the loop contributes zero counted launches
    under the profiling backend. Returns the final ``(a, b)`` views.
    """
    for keys in round_keys:
        a *= multipliers
        tmp[...] = a
        tmp >>= _SHIFT32
        a &= _U32
        b ^= tmp[::-1]
        b ^= keys
        a, b = b, a[::-1]
    return a, b


class _PhiloxGenerator:
    """Counter-mode Philox words for one or several master seeds.

    Both keyed front-ends draw through this: :class:`PhiloxKeyedRNG` with
    one seed, :class:`~repro.rng.batched.BatchedPhiloxRNG` with one seed
    per replication. The counter of lane ``l`` at ``(step, slot)`` is
    ``(step_lo, step_hi, l_lo, slot)``; the key of seed ``s`` on stream
    ``k`` is ``(s_lo, s_hi ^ k)``. Each stream's key schedule is built
    once on the host and uploaded to the backend, and the word pairs of
    the round loop live in per-instance scratch buffers.
    """

    def __init__(self, seeds, backend) -> None:
        self.backend = backend
        self.xp = backend.xp
        self._key_lo = np.array([s & 0xFFFFFFFF for s in seeds], dtype=np.uint32)
        self._key_hi = np.array(
            [(s >> 32) & 0xFFFFFFFF for s in seeds], dtype=np.uint32
        )
        self._schedules: dict = {}
        self._multipliers = None
        self._scratch: dict = {}

    def reserve(self, n: int) -> None:
        """Size the scratch buffers for draws of up to ``n`` lanes."""
        for role in ("a", "b", "tmp"):
            _take_buffer(self.xp, self._scratch, role, 2, n, np.uint64)
        _take_buffer(self.xp, self._scratch, "out", 4, n, np.uint32)

    def _schedule(self, stream: int):
        """The device key schedule of ``stream``, ``(rounds, 2, seeds)``."""
        word = int(stream) & 0xFFFFFFFF
        keys = self._schedules.get(word)
        if keys is None:
            if self._multipliers is None:
                self._multipliers = self.backend.from_host(_MULTIPLIERS)
            keys = self._schedules[word] = self.backend.from_host(
                _round_keys(np.stack([self._key_lo, self._key_hi ^ np.uint32(word)]))
            )
        return keys

    def words(
        self, stream: int, step: int, lanes, slot: int, rep=None, scratch: bool = False
    ) -> np.ndarray:
        """Output words ``(4, n)`` for the uint64 lanes ``lanes``.

        ``rep[i]`` picks the seed of lane ``i``; ``None`` keys every lane
        with the first seed. With ``scratch=True`` the words land in a
        reusable buffer that the next scratch draw overwrites.
        """
        n = lanes.shape[0]
        take = self._scratch
        a = _take_buffer(self.xp, take, "a", 2, n, np.uint64)
        b = _take_buffer(self.xp, take, "b", 2, n, np.uint64)
        tmp = _take_buffer(self.xp, take, "tmp", 2, n, np.uint64)
        step = int(step)
        a[0] = np.uint64(step & 0xFFFFFFFF)
        lane_words = a[1]
        lane_words[...] = lanes
        lane_words &= _U32
        b[0] = np.uint64((step >> 32) & 0xFFFFFFFF)
        b[1] = np.uint64(int(slot) & 0xFFFFFFFF)
        keys = self._schedule(stream)
        if rep is not None:
            keys = keys.take(rep, axis=2)
        a, b = _philox_rounds(a, b, tmp, self._multipliers, keys)
        out = (
            _take_buffer(self.xp, take, "out", 4, n, np.uint32)
            if scratch
            else self.xp.empty((4, n), dtype=np.uint32)
        )
        out[0::2] = a
        out[1::2] = b
        return out


def philox4x32(
    counter: np.ndarray, key: np.ndarray, rounds: int = PHILOX_ROUNDS, xp=np
) -> np.ndarray:
    """Apply the Philox4x32 bijection.

    Parameters
    ----------
    counter:
        ``uint32`` array of shape ``(4, n)`` — the four counter words for
        each of ``n`` independent lanes.
    key:
        ``uint32`` array of shape ``(2, n)`` or ``(2, 1)`` (broadcast) — the
        two key words.
    rounds:
        Number of rounds; 10 is the standard, cryptographically mixed value.
    xp:
        Array namespace to execute in (``numpy`` or a GPU namespace). The
        rounds are pure integer arithmetic, so the output words are
        bit-identical on every backend.

    Returns
    -------
    ``uint32`` array of shape ``(4, n)`` with the output words.
    """
    counter = xp.asarray(counter, dtype=np.uint32)
    key = xp.asarray(key, dtype=np.uint32)
    if counter.ndim != 2 or counter.shape[0] != 4:
        raise ValueError(f"counter must have shape (4, n), got {counter.shape}")
    if key.ndim != 2 or key.shape[0] != 2:
        raise ValueError(f"key must have shape (2, n), got {key.shape}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n = max(counter.shape[1], key.shape[1])
    counter = xp.broadcast_to(counter, (4, n)).astype(np.uint64)
    a, b = _philox_rounds(
        counter[0::2], counter[1::2], xp.empty((2, n), dtype=np.uint64),
        xp.asarray(_MULTIPLIERS), _round_keys(key, rounds, xp=xp),
    )
    out = xp.empty((4, n), dtype=np.uint32)
    out[0::2] = a
    out[1::2] = b
    return out


def philox4x32_scalar(counter, key, rounds: int = PHILOX_ROUNDS) -> tuple:
    """Scalar convenience wrapper: 4-tuple and 2-tuple of ints in, 4-tuple out.

    Used by tests and by scalar call sites that want plain Python ints; it
    routes through the same vectorized kernel so results are identical by
    construction.
    """
    c = np.array([[w] for w in counter], dtype=np.uint32)
    k = np.array([[w] for w in key], dtype=np.uint32)
    out = philox4x32(c, k, rounds)
    return tuple(int(out[i, 0]) for i in range(4))


class PhiloxKeyedRNG:
    """Keyed random streams for the simulation.

    Every draw is addressed by ``(stream, step, lane, slot)``:

    * ``stream`` — which purpose the draw serves (see
      :class:`repro.rng.streams.Stream`); mixed into the key,
    * ``step`` — the simulation step (64-bit, split across two words),
    * ``lane`` — the data-parallel lane (agent index or cell id),
    * ``slot`` — sub-draw index when one lane needs several values.

    The master ``seed`` occupies the low key word; the high key word mixes
    the seed's top bits with the stream id.

    ``backend`` selects the array namespace the draws are produced on
    (default: the host NumPy backend). Philox is pure integer arithmetic,
    so the words — and every distribution derived from them — are
    bit-identical across backends.
    """

    def __init__(self, seed: int, backend=None) -> None:
        if not (0 <= seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = int(seed)
        self.backend = resolve_backend(backend)
        self.xp = self.backend.xp
        self._gen = _PhiloxGenerator((self.seed,), self.backend)

    def subset(self, rows) -> "PhiloxKeyedRNG":
        """This RNG itself: a draw depends only on the lanes it is given.

        The counterpart of :meth:`repro.rng.batched.RaggedLaneRNG.subset`,
        so a model can narrow its draws to some rows on either RNG.
        """
        return self

    # ------------------------------------------------------------------
    # Core word generator
    # ------------------------------------------------------------------
    def words(
        self, stream: int, step: int, lane, slot: int = 0, scratch: bool = False
    ) -> np.ndarray:
        """Return the four raw ``uint32`` output words, shape ``(4, n)``.

        ``lane`` may be a scalar or any integer array; it is flattened to
        one dimension of lanes.

        This is the hot path of every step: the round loop runs in
        per-instance scratch buffers, so one call costs the ``asarray`` of
        the lanes plus, without ``scratch``, the ``empty`` of the result.
        With ``scratch=True`` the output lands in a reusable buffer too —
        the returned array is *overwritten by the next scratch draw*, so
        only callers that consume the words immediately (the distribution
        helpers, the tie-break bit) may opt in; the values are identical
        either way.
        """
        lanes = self.xp.asarray(lane, dtype=np.uint64).reshape(-1)
        return self._gen.words(stream, step, lanes, slot, scratch=scratch)

    # ------------------------------------------------------------------
    # Distribution helpers (all order-independent and engine-agnostic)
    # ------------------------------------------------------------------
    def uniform(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        """Uniforms in the open interval (0, 1), one per lane (word 0)."""
        w = self.words(stream, step, lane, slot, scratch=True)
        return _u32_to_unit_open(w[0])

    def uniform4(self, stream: int, step: int, lane, slot: int = 0) -> np.ndarray:
        """Four uniforms in (0, 1) per lane; shape ``(4, n)``."""
        w = self.words(stream, step, lane, slot, scratch=True)
        return _u32_to_unit_open(w)

    def normal12(self, stream: int, step: int, lane, slot_base: int = 0) -> np.ndarray:
        """Standard normal via the 12-uniform Irwin-Hall sum, one per lane.

        The sum of 12 U(0,1) minus 6 has zero mean, unit variance and is an
        excellent normal approximation on [-6, 6]. Crucially it uses only
        additions of exactly-derived values — no transcendental functions —
        so it is bit-identical across scalar and vectorized execution, which
        keeps the engine-equivalence invariant airtight.
        """
        return irwin_hall_normal12(self.uniform4, stream, step, lane, slot_base)

    def uniform_scalar(self, stream: int, step: int, lane: int, slot: int = 0) -> float:
        """Scalar uniform in (0, 1) for loop-based (sequential) call sites."""
        return float(self.uniform(stream, step, np.uint64(lane), slot)[0])

    def normal12_scalar(self, stream: int, step: int, lane: int, slot_base: int = 0) -> float:
        """Scalar Irwin-Hall normal for loop-based call sites."""
        return float(self.normal12(stream, step, np.uint64(lane), slot_base)[0])


def irwin_hall_normal12(uniform4, stream: int, step: int, lane, slot_base: int = 0):
    """Irwin-Hall sum over three ``uniform4`` draws: 12 uniforms minus 6.

    The accumulation order (left-to-right over the 4 words of 3 successive
    slots) fixes the FP evaluation order; every RNG front-end — solo,
    batched grid, flattened lane view — routes through this one function so
    the bit-identity invariant has a single source of truth.
    """
    total = None
    for k in range(3):  # 3 philox calls x 4 words = 12 uniforms
        u = uniform4(stream, step, lane, slot_base + k)
        # Left-to-right accumulation: same FP order in all engines.
        for j in range(4):
            total = u[j] if total is None else total + u[j]
    return total - 6.0


def _u32_to_unit_open(words: np.ndarray) -> np.ndarray:
    """Map uint32 words to float64 in the open interval (0, 1).

    ``(w + 0.5) / 2**32`` is exact in float64 (both operands are exactly
    representable and the quotient is a division by a power of two), never
    returns 0.0 or 1.0, and is identical across scalar and vector paths.
    """
    return (words.astype(np.float64) + 0.5) * (1.0 / 4294967296.0)
