"""Philox4x32-10 correctness: known-answer tests and stream properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    PHILOX_ROUNDS,
    BatchedPhiloxRNG,
    PhiloxKeyedRNG,
    Stream,
    philox4x32,
    philox4x32_scalar,
)
from repro.rng.philox import NORMAL_CHUNK, _irwin_hall


def _reference_philox(counter, key, rounds=PHILOX_ROUNDS):
    """Philox4x32 on Python ints, one round at a time (Salmon et al.)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    mask = 0xFFFFFFFF
    for _ in range(rounds):
        p0 = 0xD2511F53 * c0
        p1 = 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (
            (p1 >> 32) ^ c1 ^ k0, p1 & mask, (p0 >> 32) ^ c3 ^ k1, p0 & mask
        )
        k0 = (k0 + 0x9E3779B9) & mask
        k1 = (k1 + 0xBB67AE85) & mask
    return c0, c1, c2, c3


class TestKnownAnswers:
    """Random123 known-answer vectors for philox4x32-10."""

    def test_zero_vector(self):
        out = philox4x32_scalar((0, 0, 0, 0), (0, 0))
        assert out == (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)

    def test_ones_vector(self):
        out = philox4x32_scalar((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2)
        assert out == (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)

    def test_pi_vector(self):
        out = philox4x32_scalar(
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
        )
        assert out == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)


class TestBijection:
    def test_rounds_default(self):
        assert PHILOX_ROUNDS == 10

    def test_vectorized_matches_scalar(self):
        counters = np.arange(40, dtype=np.uint32).reshape(4, 10)
        keys = np.array([[7] * 10, [9] * 10], dtype=np.uint32)
        batch = philox4x32(counters, keys)
        for i in range(10):
            single = philox4x32_scalar(tuple(counters[:, i]), (7, 9))
            assert tuple(int(batch[j, i]) for j in range(4)) == single

    @pytest.mark.parametrize("rounds", [1, 7, PHILOX_ROUNDS])
    def test_matches_the_reference_loop(self, rounds):
        """Per-lane keys, any round count: word for word the scalar loop."""
        gen = np.random.default_rng(rounds)
        counters = gen.integers(0, 2**32, size=(4, 16), dtype=np.uint32)
        keys = gen.integers(0, 2**32, size=(2, 16), dtype=np.uint32)
        out = philox4x32(counters, keys, rounds)
        for i in range(16):
            want = _reference_philox(
                [int(w) for w in counters[:, i]], [int(w) for w in keys[:, i]],
                rounds,
            )
            assert tuple(int(w) for w in out[:, i]) == want

    def test_keyed_draws_match_the_reference_loop(self):
        """Solo and per-replication keyed words against the scalar loop,
        with 64-bit steps and lanes (only the low lane word counts)."""
        seeds = (3, 2**40 + 5)
        step, slot = 2**33 + 9, 2
        lanes = np.array([1, 2**32 + 7, 2**63 + 11], dtype=np.uint64)
        rep = np.array([1, 0, 1])
        ragged = BatchedPhiloxRNG(seeds).ragged(rep)
        got = {
            "solo": PhiloxKeyedRNG(seeds[1]).words(Stream.TIEBREAK, step, lanes, slot),
            "ragged": ragged.words(Stream.TIEBREAK, step, lanes, slot),
        }
        for name, words in got.items():
            for i, lane in enumerate(lanes.tolist()):
                seed = seeds[1] if name == "solo" else seeds[rep[i]]
                want = _reference_philox(
                    [step & 0xFFFFFFFF, step >> 32, lane & 0xFFFFFFFF, slot],
                    [seed & 0xFFFFFFFF, (seed >> 32) ^ int(Stream.TIEBREAK)],
                )
                assert tuple(int(w) for w in words[:, i]) == want, (name, i)

    def test_key_broadcast(self):
        counters = np.zeros((4, 5), dtype=np.uint32)
        counters[2] = np.arange(5)
        broadcast = philox4x32(counters, np.array([[1], [2]], dtype=np.uint32))
        explicit = philox4x32(
            counters, np.array([[1] * 5, [2] * 5], dtype=np.uint32)
        )
        assert np.array_equal(broadcast, explicit)

    def test_counter_sensitivity(self):
        a = philox4x32_scalar((0, 0, 0, 0), (0, 0))
        b = philox4x32_scalar((1, 0, 0, 0), (0, 0))
        assert a != b

    def test_key_sensitivity(self):
        a = philox4x32_scalar((0, 0, 0, 0), (0, 0))
        b = philox4x32_scalar((0, 0, 0, 0), (1, 0))
        assert a != b

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="counter"):
            philox4x32(np.zeros((3, 1), dtype=np.uint32), np.zeros((2, 1), dtype=np.uint32))
        with pytest.raises(ValueError, match="key"):
            philox4x32(np.zeros((4, 1), dtype=np.uint32), np.zeros((3, 1), dtype=np.uint32))

    def test_rounds_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            philox4x32(
                np.zeros((4, 1), dtype=np.uint32),
                np.zeros((2, 1), dtype=np.uint32),
                rounds=0,
            )


class TestKeyedRNG:
    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            PhiloxKeyedRNG(-1)
        with pytest.raises(ValueError):
            PhiloxKeyedRNG(2**64)

    def test_uniform_open_interval(self, rng):
        u = rng.uniform(Stream.EXPERIMENT, 0, np.arange(10000))
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_mean(self, rng):
        u = rng.uniform(Stream.EXPERIMENT, 0, np.arange(200000))
        assert abs(u.mean() - 0.5) < 0.005

    def test_order_independence(self, rng):
        """The defining property: draws depend only on keys, not batching."""
        lanes = np.arange(100, dtype=np.uint64)
        batch = rng.uniform(Stream.LEM_SELECT, 5, lanes)
        singles = np.array(
            [rng.uniform_scalar(Stream.LEM_SELECT, 5, int(l)) for l in lanes]
        )
        assert np.array_equal(batch, singles)

    def test_streams_independent(self, rng):
        lanes = np.arange(50)
        a = rng.uniform(Stream.LEM_SELECT, 0, lanes)
        b = rng.uniform(Stream.ACO_SELECT, 0, lanes)
        assert not np.array_equal(a, b)

    def test_steps_independent(self, rng):
        lanes = np.arange(50)
        a = rng.uniform(Stream.LEM_SELECT, 0, lanes)
        b = rng.uniform(Stream.LEM_SELECT, 1, lanes)
        assert not np.array_equal(a, b)

    def test_slots_independent(self, rng):
        lanes = np.arange(50)
        a = rng.uniform(Stream.LEM_SELECT, 0, lanes, slot=0)
        b = rng.uniform(Stream.LEM_SELECT, 0, lanes, slot=1)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = PhiloxKeyedRNG(1).uniform(Stream.EXPERIMENT, 0, np.arange(50))
        b = PhiloxKeyedRNG(2).uniform(Stream.EXPERIMENT, 0, np.arange(50))
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = PhiloxKeyedRNG(99).uniform(Stream.EXPERIMENT, 3, np.arange(50))
        b = PhiloxKeyedRNG(99).uniform(Stream.EXPERIMENT, 3, np.arange(50))
        assert np.array_equal(a, b)

    def test_uniform4_shape(self, rng):
        u4 = rng.uniform4(Stream.EXPERIMENT, 0, np.arange(7))
        assert u4.shape == (4, 7)
        assert np.all((u4 > 0) & (u4 < 1))

    def test_normal12_moments(self, rng):
        z = rng.normal12(Stream.LEM_SELECT, 0, np.arange(200000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal12_range(self, rng):
        """Irwin-Hall with 12 terms is bounded in [-6, 6]."""
        z = rng.normal12(Stream.LEM_SELECT, 0, np.arange(100000))
        assert np.all(z >= -6.0) and np.all(z <= 6.0)

    def test_normal12_scalar_matches(self, rng):
        z = rng.normal12(Stream.LEM_SELECT, 2, np.arange(20))
        for i in range(20):
            assert rng.normal12_scalar(Stream.LEM_SELECT, 2, i) == z[i]

    def test_large_lane_ids(self, rng):
        """Cell lanes on big grids exceed 2**20; draws must stay valid."""
        lanes = np.array([0, 2**31, 2**32 - 1], dtype=np.uint64)
        u = rng.uniform(Stream.MOVE_WINNER, 0, lanes)
        assert np.all((u > 0) & (u < 1))
        assert len(np.unique(u)) == 3


def _float_normal12(draw_words, stream, step, lanes, slot_base):
    """The Irwin-Hall normal as a float sum: the twelve uniforms
    ``(w + 0.5) / 2**32`` of three successive counter slots, added left
    to right, minus 6."""
    total = None
    for k in range(3):
        u = (draw_words(stream, step, lanes, slot_base + k).astype(np.float64) + 0.5)
        u /= 4294967296.0
        for j in range(4):
            total = u[j] if total is None else total + u[j]
    return total - 6.0


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestFusedNormal12:
    """``normal12`` sums the twelve words as integers in one Philox pass;
    it must equal the three-block float sum bit for bit."""

    #: Enough lanes for three chunks of the fused pass, the last partial.
    N = 2 * NORMAL_CHUNK + 37

    @pytest.mark.parametrize("slot_base", [0, 5])
    def test_solo_matches_float_sum(self, slot_base):
        rng = PhiloxKeyedRNG(2**40 + 17)
        lanes = np.arange(self.N, dtype=np.uint64) * 977 + 3
        got = rng.normal12(Stream.LEM_SELECT, 2**33 + 4, lanes, slot_base)
        want = _float_normal12(rng.words, Stream.LEM_SELECT, 2**33 + 4, lanes, slot_base)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("slot_base", [0, 5])
    def test_ragged_four_seeds_match_float_sum(self, slot_base):
        batched = BatchedPhiloxRNG((1, 2**63 + 9, 77, 2**32))
        rep = np.random.default_rng(3).integers(0, 4, self.N)
        lanes = np.arange(self.N, dtype=np.uint64)
        ragged = batched.ragged(rep)
        got = ragged.normal12(Stream.LEM_SELECT, 11, lanes, slot_base)
        want = _float_normal12(ragged.words, Stream.LEM_SELECT, 11, lanes, slot_base)
        assert np.array_equal(_bits(got), _bits(want))
        # Each element is also the solo draw of its seed.
        for b, seed in enumerate(batched.seeds):
            mine = rep == b
            solo = PhiloxKeyedRNG(seed).normal12(
                Stream.LEM_SELECT, 11, lanes[mine], slot_base
            )
            assert np.array_equal(_bits(got[mine]), _bits(solo))

    def test_grid_draw_matches_float_sum(self):
        batched = BatchedPhiloxRNG((4, 5, 6))
        lanes = np.arange(40, dtype=np.uint64)
        got = batched.normal12(Stream.LEM_SELECT, 3, lanes, 2)
        assert got.shape == (3, 40)
        want = _float_normal12(
            lambda *a: batched.words(*a).reshape(4, -1), Stream.LEM_SELECT, 3, lanes, 2
        )
        assert np.array_equal(_bits(got.ravel()), _bits(want))

    @pytest.mark.parametrize("word", [0, 2**32 - 1])
    def test_extreme_words(self, word):
        """All twelve words 0 (the lowest normal) or 2**32 - 1 (the
        highest): the sum stays exact at both ends."""
        want = _float_normal12(
            lambda *a: np.full((4, 1), word, dtype=np.uint32), 0, 0, None, 0
        )
        got = _irwin_hall(np.array([12 * word], dtype=np.uint64))
        assert np.array_equal(_bits(got), _bits(want))
        assert -6.0 < got[0] < 6.0

    @given(words=st.lists(st.integers(0, 2**32 - 1), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_integer_sum_is_the_float_sum(self, words):
        blocks = np.array(words, dtype=np.uint32).reshape(3, 4, 1)
        want = _float_normal12(lambda s, t, l, k: blocks[k], 0, 0, None, 0)
        got = _irwin_hall(np.array([sum(words)], dtype=np.uint64))
        assert np.array_equal(_bits(got), _bits(want))

    def test_empty_draw(self):
        assert PhiloxKeyedRNG(1).normal12(Stream.LEM_SELECT, 0, np.arange(0)).shape == (0,)
