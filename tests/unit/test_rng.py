"""Unit tests for the random utilities."""

import numpy as np
import pytest

from repro.core.pairing import reflection_offsets
from repro.rng import (
    DEFAULT_SEED,
    make_rng,
    random_permutation_table,
    random_signs,
    shard_stream,
)


class TestMakeRng:
    def test_none_uses_default_seed(self):
        a = make_rng(None).integers(0, 1 << 30, size=4)
        b = make_rng(DEFAULT_SEED).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_integer_seeds_are_deterministic(self):
        assert np.array_equal(
            make_rng(7).random(3), make_rng(7).random(3)
        )

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g


class TestShardStream:
    """The 4-word counter key ``(seed, replica, shard, step)``."""

    def test_deterministic(self):
        a = shard_stream(11, 2, 5, replica=3).random(8)
        b = shard_stream(11, 2, 5, replica=3).random(8)
        assert np.array_equal(a, b)

    def test_pairwise_disjoint_over_key_grid(self):
        # Streams for distinct (seed, replica, shard, step) keys must be
        # mutually disjoint: sample a grid spanning every axis and check
        # all pairs of draw blocks differ.  With 64-bit Philox output a
        # single matching 16-draw block would be astronomically unlikely
        # unless two keys collapsed onto the same counter segment.
        keys = [
            (seed, replica, shard, step)
            for seed in (0, 1, 19890101)
            for replica in (0, 1, 7)
            for shard in (0, 3)
            for step in (0, 1, 250)
        ]
        blocks = [
            shard_stream(s, sh, st, replica=r).integers(
                0, 1 << 62, size=16
            )
            for (s, r, sh, st) in keys
        ]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert not np.array_equal(blocks[i], blocks[j]), (
                    f"streams for keys {keys[i]} and {keys[j]} collide"
                )

    def test_legacy_three_key_call_is_replica_zero(self):
        # Pre-ensemble callers passed no replica; their streams must be
        # bitwise what replica=0 yields (the counter word was always 0).
        a = shard_stream(42, 1, 9).random(32)
        b = shard_stream(42, 1, 9, replica=0).random(32)
        assert np.array_equal(a, b)

    def test_replicas_get_distinct_streams(self):
        a = shard_stream(5, 0, 0, replica=0).random(16)
        b = shard_stream(5, 0, 0, replica=1).random(16)
        assert not np.array_equal(a, b)

    def test_seed_sequence_matches_int_seed(self):
        # The int fast path (cached key) and the SeedSequence path must
        # derive the same Philox key.
        a = shard_stream(123, 4, 2, replica=1).random(8)
        b = shard_stream(
            np.random.SeedSequence(123), 4, 2, replica=1
        ).random(8)
        assert np.array_equal(a, b)

    def test_none_seed_uses_default(self):
        a = shard_stream(None, 0, 1).random(4)
        b = shard_stream(DEFAULT_SEED, 0, 1).random(4)
        assert np.array_equal(a, b)

    def test_negative_replica_rejected(self):
        with pytest.raises(ValueError):
            shard_stream(1, 0, 0, replica=-1)

    def test_negative_shard_or_step_rejected(self):
        with pytest.raises(ValueError):
            shard_stream(1, -1, 0)
        with pytest.raises(ValueError):
            shard_stream(1, 0, -2)

    def test_live_generator_seed_rejected(self):
        with pytest.raises(ValueError):
            shard_stream(np.random.default_rng(3), 0, 0)

    @staticmethod
    def _draws(g):
        """One of every draw the kernels make, in sequence."""
        order = np.arange(9)
        g.shuffle(order)
        return (
            g.random(5),
            g.integers(0, 1000, size=3, dtype=np.uint16),
            g.choice(40, size=6, replace=False, shuffle=False),
            order,
            g.uniform(-1.0, 1.0, size=(4, 3)),
        )

    @pytest.mark.parametrize(
        "partial",
        [
            lambda g: g.random(3),
            # One 16-bit draw leaves the other half of a 32-bit word
            # buffered in the bit generator.
            lambda g: g.integers(0, 9, size=1, dtype=np.uint16),
            lambda g: g.choice(30, size=4, replace=False),
            lambda g: g.shuffle(np.arange(7)),
        ],
        ids=["random", "uint16", "choice", "shuffle"],
    )
    def test_rekeyed_stream_is_a_fresh_stream(self, partial):
        keys = [
            (seed, replica, shard, step)
            for seed in (1989, None)
            for replica in (0, 5)
            for shard in (0, 2)
            for step in (0, 1, 250)
        ]
        g = shard_stream(7, 0, 0)
        for seed, replica, shard, step in keys:
            partial(g)
            assert shard_stream(seed, shard, step, replica, into=g) is g
            fresh = shard_stream(seed, shard, step, replica)
            np.testing.assert_equal(
                g.bit_generator.state, fresh.bit_generator.state
            )
            for got, want in zip(self._draws(g), self._draws(fresh)):
                assert np.array_equal(got, want)
            np.testing.assert_equal(
                g.bit_generator.state, fresh.bit_generator.state
            )

    def test_uint16_partial_draw_buffers_a_half_word(self):
        # Guards the case above against re-keying a generator that holds
        # nothing to drop.
        g = shard_stream(7, 0, 0)
        g.integers(0, 9, size=1, dtype=np.uint16)
        assert g.bit_generator.state["has_uint32"] == 1


class TestRandomSigns:
    def test_only_plus_minus_one(self, rng):
        s = random_signs(rng, (1000, 5))
        assert set(np.unique(s).tolist()) == {-1, 1}

    def test_balanced(self, rng):
        s = random_signs(rng, 100_000)
        assert abs(s.mean()) < 0.02


class TestPermutationTable:
    def test_rows_are_permutations(self, rng):
        t = random_permutation_table(rng, 500, length=5)
        assert t.shape == (500, 5)
        sorted_rows = np.sort(t, axis=1)
        assert np.array_equal(
            sorted_rows, np.broadcast_to(np.arange(5, dtype=np.int8), (500, 5))
        )

    def test_uniform_first_element(self, rng):
        # Each value should appear in position 0 about n/5 times.
        t = random_permutation_table(rng, 50_000, length=5)
        counts = np.bincount(t[:, 0], minlength=5)
        assert np.all(np.abs(counts - 10_000) < 600)

    def test_negative_count_raises(self, rng):
        with pytest.raises(ValueError):
            random_permutation_table(rng, -1)

    def test_zero_rows(self, rng):
        assert random_permutation_table(rng, 0).shape == (0, 5)


def _same_position(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Both generators will produce the same stream from here on.

    Compared on the full bit-generator state (including the buffered
    32-bit half) and on the next draws of each width.
    """

    def flat(state):
        if isinstance(state, dict):
            return {k: flat(v) for k, v in state.items()}
        return np.asarray(state).tolist()

    return (
        flat(a.bit_generator.state) == flat(b.bit_generator.state)
        and np.array_equal(a.integers(0, 1 << 20, 3), b.integers(0, 1 << 20, 3))
        and np.array_equal(a.random(3), b.random(3))
    )


STREAMS = {
    "philox": lambda: shard_stream(1989, 0, 7, replica=3),
    "pcg64": lambda: np.random.default_rng(1989),
}


@pytest.mark.parametrize("make", STREAMS.values(), ids=STREAMS.keys())
@pytest.mark.parametrize("occupancy", [0.3, 0.7, 5.0, 40.0])
class TestBoundOneDrawsNothing:
    """The NumPy property the pairable-cell compression rests on.

    ``Generator.integers(0, hi)`` with an array bound returns 0 for a
    bound of 1 *without consuming the bit stream*, so drawing reflection
    offsets over the pairable cells only
    (:func:`repro.core.selection.fused_select_collide`) is bitwise the
    draw over every cell.  A NumPy that changes this would silently
    change every realization: fail here instead.
    """

    def test_integers_skips_bound_one_entries(self, make, occupancy):
        counts = np.random.default_rng(5).poisson(occupancy, size=4000)
        bound = np.maximum(counts, 1)
        full, packed = make(), make()
        with_ones = full.integers(0, bound)
        without = packed.integers(0, bound[bound > 1])
        assert np.array_equal(with_ones[bound > 1], without)
        assert not with_ones[bound == 1].any()
        assert _same_position(full, packed)

    def test_reflection_offsets_ignore_unpairable_cells(self, make, occupancy):
        # One level up: the stream position after the pairing's draw
        # does not depend on how many empty / singleton cells sit
        # between the pairable ones.
        counts = np.random.default_rng(6).poisson(occupancy, size=4000)
        live = np.flatnonzero(counts > 1)
        full, packed = make(), make()
        s_full = reflection_offsets(full, counts)
        s_packed = reflection_offsets(packed, counts[live])
        assert np.array_equal(s_full[live], s_packed)
        assert not np.delete(s_full, live).any()
        assert _same_position(full, packed)
