"""Random number utilities.

The reproduction needs two kinds of randomness:

* **High quality** streams for physics decisions (collision acceptance,
  initial Maxwellian sampling, permutation-table initialization).  These
  wrap :class:`numpy.random.Generator` (PCG64) and are always explicitly
  seeded so every experiment is reproducible.

* **"Quick & dirty"** low-order-bit randomness, as used by the paper's
  integer CM-2 implementation: the low bits of a particle's fixed-point
  position word serve as a small random number of unspecified
  distribution for low-impact draws (random signs, random transposition
  choices, stochastic-rounding bits, sort-key mixing).  That variant
  lives in :mod:`repro.fixedpoint.qformat` next to the fixed-point
  representation it reads; this module provides the high-quality
  streams.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]

#: Default seed used when an experiment does not specify one.  Chosen
#: arbitrarily; fixing it makes `pytest` runs deterministic.
DEFAULT_SEED: int = 19890101

#: seed -> Philox key words, filled by :func:`shard_stream`.  Keys are
#: deterministic functions of the seed, so caching cannot change any
#: stream; the cap only guards against unbounded growth if something
#: iterates seeds.
_KEY_CACHE: dict = {}
_KEY_CACHE_MAX = 256

#: A fresh Philox generator's output buffer: empty, so the next draw
#: computes the block at the counter.
_EMPTY_BUFFER = (0, 0, 0, 0)
_EMPTY_BUFFER_POS = 4


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed.

    Accepts ``None`` (uses :data:`DEFAULT_SEED`), an integer, a
    :class:`numpy.random.SeedSequence`, or an existing generator (passed
    through unchanged so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def shard_stream(
    seed: SeedLike,
    shard_id: int,
    step: int,
    replica: int = 0,
    *,
    into: Optional[np.random.Generator] = None,
) -> np.random.Generator:
    """Counter-based stream for one ``(seed, replica, shard_id, step)`` key.

    The sharded execution backend gives every domain shard a fresh
    generator each time step, keyed -- not advanced -- by where and when
    it runs: the Philox bit generator is counter-based, so the stream is
    a pure function of ``(seed, replica, shard_id, step)`` with no
    sequential state to ship between processes or save in checkpoints.
    Streams for distinct keys are disjoint segments of one 2**256
    counter space (``replica``, ``shard_id`` and ``step`` occupy the
    three high counter words; a single step never draws anywhere near
    the 2**64 values that would overflow into a neighbouring key), which
    makes any worker count run-to-run reproducible and independent of
    barrier arrival order.

    ``replica`` keys the ensemble engine's statistically independent
    Monte Carlo members: replica ``r`` of a batched run draws from
    exactly the streams a solo run keyed for ``r`` would, which is what
    makes batched-vs-solo execution bitwise comparable.  The default of
    0 occupies the counter word that was previously hardwired to 0, so
    every existing 3-key call sees an unchanged stream.

    ``into`` (internal: the engines pass the generator they keyed last
    step) is re-keyed in place and returned instead of a new generator:
    its Philox counter and key are set and its buffered output dropped,
    so it draws bitwise what a fresh stream for the key would.  That
    costs a fraction of building a ``Philox``, whose constructor also
    reads OS entropy for a seed sequence the key then replaces.  Every
    earlier holder of ``into`` sees the new key.
    """
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "shard_stream needs a stateless seed (int or SeedSequence), "
            "not a live Generator"
        )
    if shard_id < 0 or step < 0:
        raise ValueError("shard_id and step must be non-negative")
    if replica < 0:
        raise ValueError("replica must be non-negative")
    if seed is None:
        seed = DEFAULT_SEED
    if isinstance(seed, np.random.SeedSequence):
        key = seed.generate_state(2, np.uint64)
    else:
        # Spinning up a SeedSequence costs ~20us -- real money for the
        # ensemble engine, which keys R fresh streams every step from
        # the same integer seed.  The entropy -> key expansion is a pure
        # function, so cache it per seed (bounded: an engine only ever
        # uses one).
        seed = int(seed)
        key = _KEY_CACHE.get(seed)
        if key is None:
            if len(_KEY_CACHE) >= _KEY_CACHE_MAX:
                _KEY_CACHE.clear()
            key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
            key.setflags(write=False)
            _KEY_CACHE[seed] = key
    if into is None:
        counter = np.array([0, replica, shard_id, step], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, replica, shard_id, step), "key": key},
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": _EMPTY_BUFFER_POS,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return into


def block_streams(rng) -> tuple:
    """The generators of a blocked draw, one per block of the population.

    The collision kernels, the boundary pass and the reservoir draw
    *per block* from that block's own stream: the serial engine and a
    shard worker hand in their one generator, the ensemble engine its R
    replica streams.  A bare generator is a one-block sequence -- as is
    any other per-block argument spelled this way (a surface sampler).
    """
    return tuple(np.atleast_1d(rng))


def random_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Return an array of independent, equally probable +1/-1 values.

    Used by the collision algorithm to assign a random sign to every
    component of the permuted relative-velocity vector (any sign choice
    preserves eq. (18) of the paper).
    """
    signs = rng.integers(0, 2, size=shape, dtype=np.int8)
    signs *= 2
    signs -= 1
    return signs


def random_permutation_table(
    rng: np.random.Generator, n_entries: int, length: int = 5
) -> np.ndarray:
    """Build a table of random permutations of ``range(length)``.

    The paper initializes particle permutation vectors from "a table
    stored on the front end computer"; this builds that table with the
    Knuth (Fisher-Yates) shuffle, vectorized via argsort of uniform
    keys (each row's ranking of i.i.d. uniforms is a uniform random
    permutation).

    Returns an ``(n_entries, length)`` int8 array where each row is a
    permutation of ``0..length-1``.
    """
    if n_entries < 0:
        raise ValueError(f"n_entries must be non-negative, got {n_entries}")
    keys = rng.random((n_entries, length))
    return np.argsort(keys, axis=1).astype(np.int8)
