"""The particle state is held once: columns plus one spare per item shape.

A scratch-enabled :class:`~repro.core.particles.ParticleArrays` keeps
one capacity buffer per column and one spare per item shape (the 8-byte
scalars, a ``rot`` row, a ``perm`` row).  Random histories of the
in-place operations -- ``reorder_inplace`` over every column and over
the reservoir mix's ``MIXED_COLUMNS``, ``remove_inplace``,
``grow_inplace``, ``append_inplace`` and appends that outgrow the
capacity -- run on one-block and blocked populations against a
plain-NumPy reference.  After every operation:

* every column equals the reference, and the block starts do;
* no two live columns share memory;
* no live column shares memory with a spare, and every spare holds the
  capacity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.reservoir import MIXED_COLUMNS
from repro.errors import ConfigurationError
from repro.rng import random_permutation_table

OPS = ("reorder", "reorder_mixed", "remove", "grow", "append", "outgrow")


def _random_columns(rng, n: int, dof: int) -> dict:
    return {
        "x": rng.random(n),
        "y": rng.random(n),
        "u": rng.random(n),
        "v": rng.random(n),
        "w": rng.random(n),
        "rot": rng.random((n, dof)),
        "perm": random_permutation_table(rng, n, length=3 + dof),
        "cell": rng.integers(0, 99, size=n),
        "z": rng.random(n),
    }


def _split(cols: dict, sizes: list) -> list:
    """The reference's blocks: one column dict per block."""
    edges = np.cumsum([0] + sizes)
    return [
        {c: a[b0:b1] for c, a in cols.items()}
        for b0, b1 in zip(edges[:-1], edges[1:])
    ]


def _join(blocks: list) -> dict:
    return {c: np.concatenate([b[c] for b in blocks]) for c in COLUMN_NAMES}


def _backfilled(block: dict, gone: np.ndarray) -> dict:
    """One block after removing its ``gone`` rows (block-local,
    ascending): the holes below the new length take the surviving tail
    rows in ascending order."""
    n = next(iter(block.values())).shape[0]
    end = n - gone.shape[0]
    rows = np.arange(end)
    src = np.setdiff1d(np.arange(end, n), gone)
    rows[gone[gone < end]] = src
    return {c: a[rows] for c, a in block.items()}


def _check(parts: ParticleArrays, blocks: list, blocked: bool) -> None:
    ref = _join(blocks)
    for name in COLUMN_NAMES:
        assert np.array_equal(getattr(parts, name), ref[name]), name
    sizes = [b["x"].shape[0] for b in blocks]
    if blocked:
        assert parts.starts.tolist() == np.cumsum([0] + sizes).tolist()
    else:
        assert parts.starts is None
    live = [getattr(parts, name) for name in COLUMN_NAMES]
    spares = list(parts._spares.values())
    assert len(spares) == len({(a.itemsize,) + a.shape[1:] for a in live})
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            assert not np.shares_memory(a, b)
        for s in spares:
            assert not np.shares_memory(a, s)
    assert all(s.shape[0] == parts.capacity for s in spares)


def _append_blocks(rng, counts: list, dof: int) -> list:
    return [
        ParticleArrays(**_random_columns(rng, m, dof)) for m in counts
    ]


def _apply(op: str, rng, parts: ParticleArrays, blocks: list, dof: int) -> list:
    """Run ``op`` on ``parts``; return the reference's new blocks."""
    n = parts.n
    n_blocks = len(blocks)
    if op in ("reorder", "reorder_mixed"):
        order = rng.permutation(n)
        names = COLUMN_NAMES if op == "reorder" else MIXED_COLUMNS
        parts.reorder_inplace(order, columns=None if op == "reorder" else names)
        ref = _join(blocks)
        for name in names:
            ref[name] = ref[name][order]
        return _split(ref, [b["x"].shape[0] for b in blocks])
    if op == "remove":
        gone = np.flatnonzero(rng.random(n) < rng.random())
        parts.remove_inplace(gone)
        out, start = [], 0
        for b in blocks:
            m = b["x"].shape[0]
            mine = gone[(gone >= start) & (gone < start + m)] - start
            out.append(_backfilled(b, mine))
            start += m
        return out
    if op == "grow":
        counts = rng.integers(0, 6, size=n_blocks).tolist()
        rows = parts.grow_inplace(counts)
        new = _random_columns(rng, sum(counts), dof)
        for name in COLUMN_NAMES:
            getattr(parts, name)[rows] = new[name]
        fresh = _split(new, counts)
    else:
        if op == "append":
            counts = rng.integers(0, 6, size=n_blocks).tolist()
        else:  # outgrow: one append past the capacity
            extra = parts.capacity - n + 1 + int(rng.integers(0, 20))
            counts = np.bincount(
                rng.integers(0, n_blocks, size=extra), minlength=n_blocks
            ).tolist()
        others = _append_blocks(rng, counts, dof)
        cap = parts.capacity
        parts.append_inplace(others if n_blocks > 1 or rng.random() < 0.5
                             else others[0])
        assert op == "append" or parts.capacity > cap
        fresh = [{c: getattr(o, c) for c in COLUMN_NAMES} for o in others]
    return [
        {c: np.concatenate([b[c], f[c]]) for c in COLUMN_NAMES}
        for b, f in zip(blocks, fresh)
    ]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    blocked=st.booleans(),
    dof=st.integers(0, 2),
    history=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)),
        max_size=10,
    ),
)
def test_histories_match_the_numpy_reference(sizes, blocked, dof, history):
    blocked = blocked or len(sizes) > 1
    rng = np.random.default_rng(len(history))
    cols = _random_columns(rng, sum(sizes), dof)
    parts = ParticleArrays(**{c: a.copy() for c, a in cols.items()})
    parts.enable_scratch()
    if blocked:
        parts.starts = np.cumsum([0] + sizes, dtype=np.int64)
    blocks = _split(cols, sizes)
    _check(parts, blocks, blocked)
    for op, seed in history:
        blocks = _apply(op, np.random.default_rng(seed), parts, blocks, dof)
        _check(parts, blocks, blocked)


def test_caller_buffers_need_a_spare_of_every_item_shape():
    rng = np.random.default_rng(0)
    parts = ParticleArrays(**_random_columns(rng, 5, 2))
    columns, spares = parts.buffer_set(8)
    assert len(spares) == 3
    for bad in (spares[:2], spares[:2] + [spares[2][:7]]):
        with pytest.raises(ConfigurationError, match="spare"):
            parts.enable_scratch_from(columns, bad)
    assert parts.enable_scratch_from(columns, spares).capacity == 8
    assert parts.column_buffers["x"] is columns["x"]
    with pytest.raises(ConfigurationError, match="population has 9"):
        ParticleArrays(**_random_columns(rng, 9, 2)).enable_scratch_from(
            *ParticleArrays(**_random_columns(rng, 9, 2)).buffer_set(8)
        )
