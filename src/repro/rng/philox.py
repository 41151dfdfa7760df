"""Philox4x32-10 counter-based random number generator.

This is the reproduction's stand-in for CURAND: a stateless, keyed generator
whose output depends only on ``(key, counter)``. Each random decision in the
simulation derives its counter from ``(step, lane, slot)`` and its key from
``(seed, stream)``, so the sequential and vectorized engines consume
*bit-identical* randomness regardless of iteration order — the property that
lets us strengthen the paper's CPU-vs-GPU consistency check into exact
trajectory equality.

The implementation follows Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3" (SC'11) and is validated against the Random123 known-answer
vectors in the test suite.

The LEM's normal draw is an Irwin-Hall sum of the twelve words of three
successive counter slots, ``sum((w + 0.5) / 2**32) - 6``. Each term is a
multiple of ``2**-33`` and every partial sum of the left-to-right float
accumulation stays below 12, so each needs at most 37 significant bits
and every addition is exact: the float sum equals ``(S + 6) * 2**-32``
with ``S`` the integer sum of the words. :meth:`_PhiloxGenerator.normal12`
therefore evaluates the three counter blocks in one round loop, sums the
words as uint64 and applies the one rounding step (the final ``- 6``),
bit-identical to the float sum on every backend.
"""

from __future__ import annotations

import numpy as np

from ..backend import resolve_backend

__all__ = [
    "philox4x32",
    "philox4x32_scalar",
    "PHILOX_ROUNDS",
    "PhiloxKeyedRNG",
]

#: Standard number of rounds for philox4x32-10.
PHILOX_ROUNDS = 10

#: Round multipliers as a column: row 0 scales c0, row 1 scales c2.
_MULTIPLIERS = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
#: Weyl key increments as a column: row 0 bumps k0, row 1 bumps k1.
_WEYL = np.array([[0x9E3779B9], [0xBB67AE85]], dtype=np.uint64)
_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Counter slots (blocks of four words) per Irwin-Hall normal.
_NORMAL_BLOCKS = 3
#: Lanes per pass of :meth:`_PhiloxGenerator.normal12`: its word pairs and
#: shift temporary, three ``(2, 3, c)`` uint64 arrays, then take ~1.2 MB,
#: small enough to stay in a 2 MB L2 cache through the ten rounds.
NORMAL_CHUNK = 8192


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
        self._reserved = 0

    def reserve(self, n: int) -> None:
        """Size the scratch buffers for draws of up to ``n`` lanes.

        The :meth:`normal12` buffers are sized for ``n`` lanes too, but
        only at the first normal draw, so a generator that never draws
        one (an ACO engine's) holds no memory for them.
        """
        for role in ("a", "b", "tmp"):
            _take_buffer(self.xp, self._scratch, role, 2, n, np.uint64)
        _take_buffer(self.xp, self._scratch, "out", 4, n, np.uint32)
        self._reserved = max(self._reserved, n)

    def _normal_buffers(self, n: int) -> tuple:
        """:meth:`normal12` scratch for at least ``n`` lanes, as flat
        uint64 buffers: the word pairs and shift temporary of one chunk,
        and the word sums.

        A chunk reshapes leading slices of the flat buffers, which stay
        contiguous views; a slice of a wider multi-row buffer would not
        be contiguous, and reshaping it would copy.
        """
        n = max(n, self._reserved)
        c = min(n, NORMAL_CHUNK)
        return tuple(
            _take_buffer(self.xp, self._scratch, role, 1, size, np.uint64)[0]
            for role, size in (
                ("pairs", 4 * _NORMAL_BLOCKS * c),
                ("pairs_tmp", 2 * _NORMAL_BLOCKS * c),
                ("sums", n),
            )
        )

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

    def normal12(self, stream: int, step: int, lanes, slot_base: int, rep=None):
        """Irwin-Hall normals ``(n,)`` for the uint64 lanes ``lanes``.

        Lane ``i`` sums the twelve words of counter slots ``slot_base``,
        ``slot_base + 1`` and ``slot_base + 2``, keyed like :meth:`words`,
        and returns ``(S + 6) * 2**-32 - 6``; see the module docstring for
        why that equals the float sum of the twelve uniforms bit for bit.
        The three blocks run through one round loop as ``(2, 3, c)`` word
        pairs, the key schedule broadcast over the block axis (and, keyed
        by several seeds, gathered once per lane), in chunks of
        :data:`NORMAL_CHUNK` lanes.
        """
        n = lanes.shape[0]
        keys = self._schedule(stream)[:, :, None]
        multipliers = self._multipliers[:, :, None]
        step = int(step)
        pairs_flat, tmp_flat, sums = self._normal_buffers(n)
        sums = sums[:n]
        for lo in range(0, n, NORMAL_CHUNK):
            c = min(NORMAL_CHUNK, n - lo)
            pairs = pairs_flat[: 4 * _NORMAL_BLOCKS * c].reshape(2, 2, _NORMAL_BLOCKS, c)
            tmp = tmp_flat[: 2 * _NORMAL_BLOCKS * c].reshape(2, _NORMAL_BLOCKS, c)
            a, b = pairs
            a[0] = np.uint64(step & 0xFFFFFFFF)
            a[1] = lanes[lo : lo + c]
            a[1] &= _U32
            b[0] = np.uint64((step >> 32) & 0xFFFFFFFF)
            for k in range(_NORMAL_BLOCKS):
                b[1, k] = np.uint64((int(slot_base) + k) & 0xFFFFFFFF)
            chunk_keys = keys if rep is None else keys.take(rep[lo : lo + c], axis=3)
            _philox_rounds(a, b, tmp, multipliers, chunk_keys)
            pairs.reshape(-1, c).sum(axis=0, out=sums[lo : lo + c])
        return _irwin_hall(sums)


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

    def reserve(self, n: int) -> None:
        """Size the scratch buffers for draws of up to ``n`` lanes, once,
        so no draw in a step loop regrows them (a fresh allocation)."""
        self._gen.reserve(n)

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

        The sum of the 12 uniforms of slots ``slot_base`` to
        ``slot_base + 2`` minus 6 has zero mean, unit variance and is an
        excellent normal approximation on [-6, 6]. Crucially it uses no
        transcendental function: the uniforms' float sum is exact, so it
        is computed as an integer sum of the words with one rounding step
        (see the module docstring), bit-identical across scalar and
        vectorized execution, which keeps the engine-equivalence
        invariant airtight.
        """
        lanes = self.xp.asarray(lane, dtype=np.uint64).reshape(-1)
        return self._gen.normal12(stream, step, lanes, slot_base)

    def uniform_scalar(self, stream: int, step: int, lane: int, slot: int = 0) -> float:
        """Scalar uniform in (0, 1) for loop-based (sequential) call sites."""
        return float(self.uniform(stream, step, np.uint64(lane), slot)[0])

    def normal12_scalar(self, stream: int, step: int, lane: int, slot_base: int = 0) -> float:
        """Scalar Irwin-Hall normal for loop-based call sites."""
        return float(self.normal12(stream, step, np.uint64(lane), slot_base)[0])


def _irwin_hall(sums: np.ndarray) -> np.ndarray:
    """Irwin-Hall normals from uint64 sums ``S`` of twelve words each.

    ``(S + 6) * 2**-32`` is the exact float sum of the twelve uniforms
    ``(w + 0.5) * 2**-32`` (``S + 6 < 2**36`` converts and scales
    exactly), and subtracting 6 rounds once, as the float sum's last
    step does.
    """
    z = sums.astype(np.float64)
    z += 6.0
    z *= 1.0 / 4294967296.0
    z -= 6.0
    return z


def _u32_to_unit_open(words: np.ndarray) -> np.ndarray:
    """Map uint32 words to float64 in the open interval (0, 1).

    ``(w + 0.5) / 2**32`` is exact in float64 (both operands are exactly
    representable and the quotient is a division by a power of two), never
    returns 0.0 or 1.0, and is identical across scalar and vector paths.
    """
    return (words.astype(np.float64) + 0.5) * (1.0 / 4294967296.0)
