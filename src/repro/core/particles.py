"""Particle state: structure-of-arrays, one particle per virtual processor.

The paper distinguishes the **physical state** of a particle -- position
``(x, y)``, translational velocity ``(u, v, w)`` and rotational velocity
``(r1, r2)``, "in two dimensions this representation requires seven
distinct values" -- from the **computational state**, which adds the
cell index and a five-element permutation vector used by the collision
routine.

The container is a structure of arrays (SoA), the layout both the CM's
per-processor fields and NumPy vectorization want.  All methods that
grow/shrink the population return (or build) new arrays; per-step
kernels mutate columns in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.distributions import sample_maxwellian, sample_rectangular
from repro.physics.freestream import Freestream
from repro.rng import random_permutation_table

#: Column names of the SoA container, in reorder/copy order.
COLUMN_NAMES = ("x", "y", "u", "v", "w", "rot", "perm", "cell", "z")

#: Scalar float64 columns carried by a migrating particle, in packing
#: order; the ``rot`` components follow them in the same float buffer
#: and the int8 ``perm`` row travels in a sibling buffer.  ``cell`` is
#: deliberately absent: the receiving shard indexes its arrivals.
MIGRATION_FLOAT_COLUMNS = ("x", "y", "u", "v", "w", "z")


def migration_float_width(rotational_dof: int) -> int:
    """Columns of the float migration buffer for one molecule model."""
    return len(MIGRATION_FLOAT_COLUMNS) + rotational_dof


def scratch_capacity(n: int) -> int:
    """Rows allocated to hold ``n``: 30% headroom, at least 64."""
    return max(int(n * 1.3) + 1, 64)


class ScratchBuffers:
    """Named, capacity-managed reusable temporaries for the step loop.

    Steady-state stepping must not heap-allocate O(N) arrays: the hot
    kernels (sort keys, sort orders, acceptance draws) instead
    borrow buffers from this pool.  A buffer is identified by name and
    grows monotonically with ~30% slack (:func:`scratch_capacity`), so
    after the start-up transient every request is satisfied by a view
    of an existing allocation.
    """

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def array(
        self, name: str, n: int, dtype=np.float64, width: Optional[int] = None
    ) -> np.ndarray:
        """A length-``n`` scratch view (2-D ``(n, width)`` if given).

        Contents are unspecified; callers must overwrite fully.  The
        same name always maps to the same backing allocation, so two
        live uses of one name alias each other -- use distinct names.
        """
        buf = self._arrays.get(name)
        if (
            buf is None
            or buf.shape[0] < n
            or buf.dtype != np.dtype(dtype)
            or (width is not None and (buf.ndim != 2 or buf.shape[1] != width))
            or (width is None and buf.ndim != 1)
        ):
            shape = (scratch_capacity(n),) if width is None else (
                scratch_capacity(n), width
            )
            buf = np.empty(shape, dtype=dtype)
            self._arrays[name] = buf
        return buf[:n]

    def arange(self, n: int) -> np.ndarray:
        """A read-only ``arange(n)`` view (shared; a write raises)."""
        base = self._arrays.get("__arange")
        if base is None or base.shape[0] < n:
            base = np.arange(scratch_capacity(n), dtype=np.intp)
            base.flags.writeable = False
            self._arrays["__arange"] = base
        return base[:n]


def item_shape(buf: np.ndarray) -> tuple:
    """The key of ``buf``'s spare: item size and trailing shape.

    Columns of one key share one spare, each viewing it as its own
    dtype (``x y u v w z`` float64 and ``cell`` int64 are all 8 bytes).
    """
    return (buf.dtype.itemsize,) + buf.shape[1:]


def row_records(block: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D block as one opaque item each
    (a zero-width block, which has no bytes to view, as itself)."""
    if not block.shape[1]:
        return block
    return block.view((np.void, block.strides[0])).reshape(-1)


def pooled(
    scratch: Optional[ScratchBuffers],
    name: str,
    n: int,
    dtype=np.float64,
    width: Optional[int] = None,
) -> np.ndarray:
    """``scratch.array(...)``, or a fresh array without a scratch pool.

    Kernels written against this run allocation-free on the step loop's
    scratch-enabled populations and unchanged on a bare one.
    """
    if scratch is not None:
        return scratch.array(name, n, dtype=dtype, width=width)
    return np.empty(n if width is None else (n, width), dtype=dtype)


def pooled_arange(scratch: Optional[ScratchBuffers], n: int) -> np.ndarray:
    """``arange(n)`` (intp, read-only by convention), pooled if possible."""
    return scratch.arange(n) if scratch is not None else np.arange(n)


def sum_of_squares(a: np.ndarray) -> float:
    """``(a * a).sum()`` in one pass: no temporary, and no BLAS call.

    ``einsum`` runs its own loop, so the per-step conservation sums of
    a forked shard worker never wake an OpenBLAS thread pool.
    """
    flat = a.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


def check_block_starts(starts, n: int, n_blocks: Optional[int] = None) -> np.ndarray:
    """``starts`` as the int64 block boundaries of ``n`` rows, or raise.

    Valid boundaries are a 1-D integer array of ``n_blocks + 1`` entries
    (at least two), rising from 0 without decreasing and ending at ``n``.
    """
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.shape[0] < 2 or starts.dtype.kind not in "iu":
        raise ConfigurationError(
            "starts must be a 1-D integer array of at least two entries"
        )
    if n_blocks is not None and starts.shape[0] != n_blocks + 1:
        raise ConfigurationError(
            f"{starts.shape[0]} block starts for {n_blocks} blocks"
        )
    if starts[0] != 0 or (starts[1:] < starts[:-1]).any():
        raise ConfigurationError("starts must rise from 0 without decreasing")
    if starts[-1] != n:
        raise ConfigurationError("starts[-1] must equal the population")
    return starts.astype(np.int64)


@dataclass
class ParticleArrays:
    """SoA particle population.

    Attributes
    ----------
    x, y:
        Positions, cell widths.  float64 (the CM engine mirrors state in
        fixed point and round-trips through these columns).
    u, v, w:
        Translational velocity components, cell widths / step.  The z
        component ``w`` exists even in 2-D (three translational degrees
        of freedom).
    rot:
        ``(n, rotational_dof)`` rotational velocity components
        (eq. (9): E_rot = 1/2 m r.r).
    perm:
        ``(n, 3 + rotational_dof)`` int8 permutation vectors (the
        computational state; each row is a permutation of 0..k-1).
    cell:
        int64 flattened cell index (computational state; refreshed each
        step after motion).
    z:
        Optional z position for the 3-D extension (Future Work); in the
        2-D configuration it is a zero-filled column that the kernels
        ignore.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    rot: np.ndarray
    perm: np.ndarray
    cell: np.ndarray
    z: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.z is None:
            self.z = np.zeros_like(self.x)
        #: Row-block boundaries: ``None`` is one block; otherwise int64,
        #: length B + 1, rising from 0 to ``n`` -- block ``b`` owns rows
        #: ``starts[b]:starts[b + 1]`` (the ensemble's replicas, in its
        #: flow and its reservoir).  Declared by :meth:`from_blocks`, kept
        #: current by :meth:`remove_inplace` / :meth:`append_inplace`;
        #: :meth:`select`, :meth:`copy` and :meth:`concatenate` return
        #: one block.
        self.starts: Optional[np.ndarray] = None
        # Capacity buffers: one per column, one spare per item shape
        # (None until enable_scratch()).
        self._buffers: Optional[Dict[str, np.ndarray]] = None
        self._spares: Dict[tuple, np.ndarray] = {}
        self.scratch: Optional[ScratchBuffers] = None
        # True when the backing buffers are caller-owned (shared-memory
        # shard segments): capacity is then a hard ceiling, never
        # silently replaced by fresh heap arrays.
        self._fixed_capacity: bool = False

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, rotational_dof: int = 2) -> "ParticleArrays":
        """A zero-particle population (e.g. a drained reservoir)."""
        k = 3 + rotational_dof
        return cls(
            x=np.empty(0),
            y=np.empty(0),
            u=np.empty(0),
            v=np.empty(0),
            w=np.empty(0),
            rot=np.empty((0, rotational_dof)),
            perm=np.empty((0, k), dtype=np.int8),
            cell=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_freestream(
        cls,
        rng: np.random.Generator,
        n: int,
        freestream: Freestream,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        rotational_dof: int = 2,
        rectangular: bool = False,
    ) -> "ParticleArrays":
        """Seed ``n`` particles uniformly in a box at freestream state.

        ``rectangular=True`` uses the cheap uniform velocity sampler
        (reservoir style); otherwise proper Maxwellian sampling.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if x_range[1] < x_range[0] or y_range[1] < y_range[0]:
            raise ConfigurationError("invalid seeding box")
        sampler = sample_rectangular if rectangular else sample_maxwellian
        vel = sampler(rng, n, freestream.c_mp, drift=freestream.drift_vector())
        rot = sampler(rng, n, freestream.c_mp, components=rotational_dof)
        return cls(
            x=rng.uniform(x_range[0], x_range[1], size=n),
            y=rng.uniform(y_range[0], y_range[1], size=n),
            u=vel[:, 0].copy(),
            v=vel[:, 1].copy(),
            w=vel[:, 2].copy(),
            rot=rot,
            perm=random_permutation_table(rng, n, length=3 + rotational_dof),
            cell=np.zeros(n, dtype=np.int64),
        )

    # -- invariants / views --------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def rotational_dof(self) -> int:
        return self.rot.shape[1]

    @property
    def n_blocks(self) -> int:
        """Row blocks the population declares (see ``starts``)."""
        return 1 if self.starts is None else self.starts.shape[0] - 1

    def validate(self) -> None:
        """Check internal consistency (tests, debug runs, snapshot loads).

        Catches a column of the wrong dtype or shape, corrupted
        permutation rows, block ``starts`` that do not partition the
        rows, and non-finite state (NaN/inf positions or velocities) --
        the failure modes the fault-injection tests exercise.
        """
        if self.x.ndim != 1:
            raise ConfigurationError(
                f"column x is {self.x.dtype}{list(self.x.shape)}, not 1-D"
            )
        n = self.n
        k = 3 + (self.rot.shape[1] if self.rot.ndim == 2 else 0)
        if self.starts is not None:
            check_block_starts(self.starts, n)
        layout = {
            "rot": (np.float64, (n, k - 3)),
            "perm": (np.int8, (n, k)),
            "cell": (np.int64, (n,)),
        }
        for name in COLUMN_NAMES:
            col = getattr(self, name)
            dtype, shape = layout.get(name, (np.float64, (n,)))
            if col.dtype != dtype or col.shape != shape:
                raise ConfigurationError(
                    f"column {name} is {col.dtype}{list(col.shape)}, "
                    f"not {np.dtype(dtype)}{list(shape)}"
                )
            if dtype == np.float64 and col.size and not np.isfinite(col).all():
                raise ConfigurationError(f"column {name} has non-finite values")
        identity = np.broadcast_to(np.arange(k, dtype=np.int8), (n, k))
        if not np.array_equal(np.sort(self.perm, axis=1), identity):
            raise ConfigurationError("column perm has rows that are not permutations")

    # -- energy / momentum bookkeeping -------------------------------------

    def kinetic_energy(self) -> float:
        """Total translational kinetic energy, m = 1."""
        return 0.5 * sum(sum_of_squares(c) for c in (self.u, self.v, self.w))

    def rotational_energy(self) -> float:
        """Total rotational energy 1/2 m sum(r.r) (eq. (9))."""
        return 0.5 * sum_of_squares(self.rot)

    def total_energy(self) -> float:
        """Kinetic plus rotational energy."""
        return self.kinetic_energy() + self.rotational_energy()

    def momentum(self) -> np.ndarray:
        """Total linear momentum vector (m = 1)."""
        return np.array([self.u.sum(), self.v.sum(), self.w.sum()])

    # -- population surgery ----------------------------------------------

    def select(self, mask_or_index: np.ndarray) -> "ParticleArrays":
        """A new population of the selected particles (copies)."""
        sel = mask_or_index
        if isinstance(sel, slice):
            # Basic slicing yields views; force fresh arrays.
            take = lambda col: col[sel].copy()  # noqa: E731
        else:
            # ``np.take`` copies the 2-D ``rot`` / ``perm`` rows several
            # times faster than fancy indexing, with the same values.
            sel = np.asarray(sel)
            if sel.dtype == bool:
                sel = np.flatnonzero(sel)
            take = lambda col: np.take(col, sel, axis=0)  # noqa: E731
        return ParticleArrays(
            x=take(self.x),
            y=take(self.y),
            u=take(self.u),
            v=take(self.v),
            w=take(self.w),
            rot=take(self.rot),
            perm=take(self.perm),
            cell=take(self.cell),
            z=take(self.z),
        )

    # -- preallocated scratch backing (the zero-allocation hot path) -------

    @property
    def scratch_enabled(self) -> bool:
        return self._buffers is not None

    def enable_scratch(self) -> "ParticleArrays":
        """Re-home every column in a capacity buffer, plus one spare per item shape.

        The state is held once: :meth:`reorder_inplace` gathers a column
        into the spare of its :func:`item_shape` (the 8-byte scalars, a
        ``rot`` row, a ``perm`` row: 29 B a row beside the columns' 77)
        and swaps, and the surgery (:meth:`remove_inplace`,
        :meth:`grow_inplace`, :meth:`append_inplace`) rewrites the
        columns in place.  With the step's temporaries pooled in
        :attr:`scratch`, no buffer is reallocated in steady state; some
        kernels still allocate transient O(N) arrays (``np.repeat``,
        ``flatnonzero``, the RNG draws).  Capacity carries
        :func:`scratch_capacity` headroom and grows geometrically
        (amortized) if the population outgrows it.  Returns ``self``.
        """
        if self.scratch_enabled:
            return self
        return self._adopt(*self.buffer_set(scratch_capacity(self.n)))

    def buffer_set(self, cap: int, alloc=np.empty) -> Tuple[dict, list]:
        """``cap``-row buffers for every column, and one spare per item shape.

        ``alloc(shape, dtype)`` makes each buffer (the sharded backend
        passes :func:`repro.parallel.backend.shared_segment`).  Returns
        ``(columns, spares)``: a dict in :data:`COLUMN_NAMES` order and
        a list.
        """
        cols = {name: getattr(self, name) for name in COLUMN_NAMES}
        columns = {c: alloc((cap,) + a.shape[1:], a.dtype) for c, a in cols.items()}
        shapes = {item_shape(b): b for b in columns.values()}
        return columns, [alloc(b.shape, b.dtype) for b in shapes.values()]

    def _adopt(self, columns, spares, fixed: bool = False) -> "ParticleArrays":
        """Copy the live rows into ``columns`` and run on them and ``spares``."""
        n = self.n
        for name, buf in columns.items():
            buf[:n] = getattr(self, name)
            setattr(self, name, buf[:n])
        self._buffers = {name: columns[name] for name in COLUMN_NAMES}
        self._spares = {item_shape(s): s for s in spares}
        self._fixed_capacity = fixed
        if self.scratch is None:
            self.scratch = ScratchBuffers()
        return self

    def enable_scratch_from(
        self, columns: Dict[str, np.ndarray], spares: list
    ) -> "ParticleArrays":
        """Re-home every column in caller-provided buffers and spares.

        The sharded backend allocates each shard's buffers in shared
        memory (inherited by the worker process over fork) and hands
        them in here; thereafter the in-place population operations run
        against those segments exactly as :meth:`enable_scratch` runs
        against heap buffers, so the parent can read a quiescent
        shard's state without any serialization.

        ``columns`` must map every :data:`COLUMN_NAMES` entry to an
        array of one common capacity with the column's dtype and
        trailing shape, and ``spares`` hold one array of that shape per
        item shape (:meth:`buffer_set` makes both).  Unlike heap
        scratch, the capacity is **fixed**: the population outgrowing
        it raises instead of silently migrating to private heap arrays
        (which would break the sharing contract).
        """
        if self.scratch_enabled:
            raise ConfigurationError("scratch buffers already enabled")
        cap = columns["x"].shape[0]
        spare_shape = {item_shape(s): s.shape for s in spares}
        for name in COLUMN_NAMES:
            col = getattr(self, name)
            want = (cap,) + col.shape[1:]
            buf = columns.get(name)
            if buf is None or (buf.shape, buf.dtype) != (want, col.dtype) or (
                spare_shape.get(item_shape(col)) != want
            ):
                raise ConfigurationError(
                    f"buffer {name!r} and its spare must have shape {want} "
                    f"and dtype {col.dtype}"
                )
        if cap < self.n:
            raise ConfigurationError(
                f"buffers hold {cap} particles, population has {self.n}"
            )
        return self._adopt(columns, spares, fixed=True)

    @property
    def capacity(self) -> int:
        """Backing capacity (equals ``n`` when scratch is disabled)."""
        if self._buffers is None:
            return self.n
        return self._buffers["x"].shape[0]

    @property
    def column_buffers(self) -> Optional[Dict[str, np.ndarray]]:
        """The buffer each column lives in (``None`` without scratch).

        A reorder swaps a column's buffer with its item shape's spare,
        so which physical buffer holds a column varies over time (an
        8-byte column may sit in one first made for another, viewed as
        its own dtype); the sharded backend reads this mapping to
        publish each column's buffer id for the parent's shared-memory
        reads.  Callers must not mutate the returned dict.
        """
        return self._buffers

    def _ensure_capacity(self, n_new: int) -> None:
        """Grow the buffers and spares to hold ``n_new`` (amortized, rare)."""
        if n_new <= self.capacity:
            return
        if self._fixed_capacity:
            raise ConfigurationError(
                f"population of {n_new} exceeds the fixed shared-memory "
                f"capacity {self.capacity}, which the sharded backend "
                "reserves for the bind-time flow plus reservoir: the "
                "particle count grew past that bound"
            )
        self._adopt(*self.buffer_set(scratch_capacity(n_new)))

    def reorder_inplace(self, order: np.ndarray, columns=None) -> None:
        """Apply a sort order to every column (the post-sort layout).

        With scratch enabled this gathers each column into the spare of
        its item shape and swaps, so the old buffer becomes the spare --
        no allocation, and no second copy of the state; otherwise it
        falls back to plain fancy indexing (fresh arrays).  ``columns``
        limits the reorder to the named columns (e.g. the reservoir
        mix, whose positional columns are meaningless placeholders).
        """
        names = COLUMN_NAMES if columns is None else columns
        if self._buffers is None:
            for name in names:
                setattr(self, name, getattr(self, name)[order])
            return
        n = self.n
        for name in names:
            buf = self._buffers[name]
            key = item_shape(buf)
            spare = self._spares[key].view(buf.dtype)
            # mode="clip": the order comes from argsort, always in
            # range; "raise" would buffer the out array (an allocation).
            np.take(
                getattr(self, name), order, axis=0, out=spare[:n], mode="clip"
            )
            self._buffers[name], self._spares[key] = spare, buf
            setattr(self, name, spare[:n])

    def block_edges(self) -> list:
        """The block boundaries as Python ints (``[0, n]`` for one block)."""
        if self.starts is None:
            return [0, self.n]
        edges = self.starts.tolist()
        if edges[-1] != self.n:
            raise ConfigurationError("starts[-1] must equal the population")
        return edges

    def blocks(self) -> list:
        """One view population per declared block (``[self]`` for one)."""
        if self.starts is None:
            return [self]
        e = self.block_edges()
        return [
            ParticleArrays(**{c: getattr(self, c)[b0:b1] for c in COLUMN_NAMES})
            for b0, b1 in zip(e[:-1], e[1:])
        ]

    @classmethod
    def from_blocks(cls, blocks) -> "ParticleArrays":
        """One population declaring ``blocks``, in order, as its blocks."""
        joined = cls.concatenate(*blocks)
        joined.starts = np.cumsum([0] + [b.n for b in blocks], dtype=np.int64)
        return joined

    def _relayout(self, edges: list, sizes: list) -> list:
        """Resize block ``b`` to ``sizes[b]`` rows in place; return the new edges.

        Block ``b`` keeps its first ``min(old size, sizes[b])`` rows,
        slid to its new start inside the column buffers; the rows it
        gains hold unspecified values until the caller fills them.  A
        call either only shrinks blocks or only grows them, so sliding
        in ascending block order when the population shrinks and in
        descending order when it grows never overwrites a block that
        has yet to move.  Block 0 never moves, and one block is the
        same loop with nothing to slide.
        """
        new_edges = [0]
        for size in sizes:
            new_edges.append(new_edges[-1] + size)
        n_new = new_edges[-1]
        slides = []
        for b, size in enumerate(sizes):
            k = min(edges[b + 1] - edges[b], size)
            if k and new_edges[b] != edges[b]:
                slides.append((new_edges[b], edges[b], k))
        if n_new > self.n:
            slides.reverse()
        self._ensure_capacity(n_new)
        # Rows sliding down copy forward: through one record per row
        # that is a memmove, where an overlapping 2-D slice goes through
        # a temporary.  Sliding up, NumPy copies backwards item by item,
        # which is slower per record than per element.
        down = bool(slides) and n_new < self.n
        for name in COLUMN_NAMES:
            col = self._buffers[name]
            rows = row_records(col) if down and col.ndim == 2 else col
            for d0, s0, k in slides:
                rows[d0 : d0 + k] = rows[s0 : s0 + k]
            setattr(self, name, col[:n_new])
        if self.starts is not None:
            self.starts = np.array(new_edges, dtype=np.int64)
        return new_edges

    def remove_inplace(self, rows: np.ndarray) -> list:
        """Delete the ascending ``rows`` by backfilling holes from the tail.

        O(removed) instead of the O(N) full compaction: every hole
        below the new length receives a surviving particle moved down
        from the tail.  Particle *order is not preserved* -- only safe
        where the next cell sort re-orders the population anyway (the
        step loop's downstream removal, the reservoir withdrawal).

        Each block is backfilled from its own tail, so its surviving
        rows are those a removal on that block alone would leave; the
        holes and sources of every block are gathered first and moved
        with one copy per column, then the blocks slide together
        (:meth:`_relayout`).  Returns the number of rows removed from
        each block.
        """
        if self._buffers is None:
            raise ConfigurationError("remove_inplace requires enable_scratch")
        gone = np.asarray(rows)
        if gone.size and not (0 <= gone[0] and gone[-1] < self.n
                              and (gone[1:] > gone[:-1]).all()):
            raise ConfigurationError("rows must be ascending distinct rows")
        edges = self.block_edges()
        if not gone.shape[0]:
            return [0] * (len(edges) - 1)
        # gone[cut[b]:cut[b + 1]] are block b's rows.  The block keeps
        # [edges[b], ends[b]): its holes lie below ends[b], and the rows
        # that fill them are the survivors of its tail.
        cut = np.searchsorted(gone, edges).tolist()
        removed = [c1 - c0 for c0, c1 in zip(cut, cut[1:])]
        ends = [e - r for e, r in zip(edges[1:], removed)]
        below = np.searchsorted(gone, ends).tolist()
        holes = np.concatenate([gone[c:h] for c, h in zip(cut, below)])
        row = self.scratch.arange(edges[-1])
        tail = np.concatenate([row[e:e1] for e, e1 in zip(ends, edges[1:])])
        # The tail rows that go themselves leave no survivor to move.
        keep = np.ones(tail.shape[0], dtype=bool)
        keep[np.searchsorted(tail, np.concatenate(
            [gone[h:c] for h, c in zip(below, cut[1:])]
        ))] = False
        src = tail[keep]
        for name in COLUMN_NAMES:
            col = self._buffers[name]
            col = row_records(col) if col.ndim == 2 else col  # one item a row
            col[holes] = col[src]
        self._relayout(edges, [e - b0 for e, b0 in zip(ends, edges)])
        return removed

    def grow_inplace(self, counts) -> "slice | np.ndarray":
        """Give block ``b`` ``counts[b]`` more rows at its end.

        One relayout for all blocks (:meth:`_relayout`).  Returns the
        new rows in block order -- a slice for one block, an index
        array for several -- whose every column the caller must fill.
        """
        if self._buffers is None:
            raise ConfigurationError("grow_inplace requires enable_scratch")
        edges = self.block_edges()
        if len(counts) != len(edges) - 1:
            raise ConfigurationError(
                f"{len(counts)} counts for {len(edges) - 1} blocks"
            )
        if min(counts) < 0:
            raise ConfigurationError("counts must be non-negative")
        new_edges = self._relayout(
            edges,
            [b1 - b0 + m for b0, b1, m in zip(edges[:-1], edges[1:], counts)],
        )
        if len(counts) == 1:
            return slice(edges[1], new_edges[1])
        row = self.scratch.arange(new_edges[-1])
        return np.concatenate(
            [row[e - m : e] for e, m in zip(new_edges[1:], counts)]
        )

    def append_inplace(self, other) -> "slice | np.ndarray":
        """Append ``other``'s particles to the block they are meant for.

        ``other`` is a sequence of one population per block (possibly
        empty), or one population declaring as many blocks (a
        population without ``starts`` is one); block ``b`` becomes its
        current rows followed by ``other``'s block ``b``.  Grows the
        blocks (:meth:`grow_inplace`), then copies into the new rows
        with one copy per column.  Returns the new rows.
        """
        if self._buffers is None:
            raise ConfigurationError("append_inplace requires enable_scratch")
        if isinstance(other, ParticleArrays):
            e = other.block_edges()
            counts = [e1 - e0 for e0, e1 in zip(e, e[1:])]
        else:
            counts = [o.n for o in other]
        if len(counts) != self.n_blocks:
            raise ConfigurationError("one appended population per block")
        if not isinstance(other, ParticleArrays):
            other = ParticleArrays.concatenate(*other)
        if other.rotational_dof != self.rotational_dof:
            raise ConfigurationError("rotational dof mismatch")
        rows = self.grow_inplace(counts)
        for name in COLUMN_NAMES:
            getattr(self, name)[rows] = getattr(other, name)
        return rows

    # -- migration pack/unpack (the sharded exchange) ---------------------

    def pack_rows(
        self,
        idx: np.ndarray,
        float_out: np.ndarray,
        perm_out: np.ndarray,
    ) -> int:
        """Copy the particles at ``idx`` into migration buffers.

        Writes the :data:`MIGRATION_FLOAT_COLUMNS` scalars and the
        ``rot`` components into ``float_out`` and the ``perm`` rows
        into ``perm_out`` (first ``len(idx)`` rows of each).  Pure
        float64/int8 copies, so every state field round-trips bitwise
        through :meth:`append_rows` -- including values quantized to
        the CM engine's Q8.23 grid.  Returns the row count.
        """
        m = int(idx.shape[0])
        dof = self.rotational_dof
        if float_out.shape[0] < m or perm_out.shape[0] < m:
            raise ConfigurationError(
                f"migration buffer overflow: {m} migrants exceed the "
                f"buffer capacity {min(float_out.shape[0], perm_out.shape[0])}"
            )
        if float_out.shape[1] != migration_float_width(dof):
            raise ConfigurationError(
                f"float buffer must have {migration_float_width(dof)} columns"
            )
        for c, name in enumerate(MIGRATION_FLOAT_COLUMNS):
            float_out[:m, c] = getattr(self, name)[idx]
        base = len(MIGRATION_FLOAT_COLUMNS)
        float_out[:m, base : base + dof] = self.rot[idx]
        perm_out[:m] = self.perm[idx]
        return m

    def append_rows(
        self,
        float_in: np.ndarray,
        perm_in: np.ndarray,
        m: int,
    ) -> None:
        """Append ``m`` migrants from buffers filled by :meth:`pack_rows`.

        Requires scratch backing (the shard populations always have
        it).  The caller indexes the arrivals' cells
        (:func:`repro.core.cells.index_rows`).
        """
        if self._buffers is None:
            raise ConfigurationError("append_rows requires enable_scratch")
        if m == 0:
            return
        n = self.n
        dof = self.rotational_dof
        self._ensure_capacity(n + m)
        for c, name in enumerate(MIGRATION_FLOAT_COLUMNS):
            self._buffers[name][n : n + m] = float_in[:m, c]
        base = len(MIGRATION_FLOAT_COLUMNS)
        self._buffers["rot"][n : n + m] = float_in[:m, base : base + dof]
        self._buffers["perm"][n : n + m] = perm_in[:m]
        for name in COLUMN_NAMES:
            setattr(self, name, self._buffers[name][: n + m])

    @staticmethod
    def concatenate(*parts: "ParticleArrays") -> "ParticleArrays":
        """Concatenate populations (e.g. flow + plunger refill), one block."""
        if len({p.rotational_dof for p in parts}) > 1:
            raise ConfigurationError("rotational dof mismatch")
        return ParticleArrays(**{
            c: np.concatenate([getattr(p, c) for p in parts]) for c in COLUMN_NAMES
        })

    def copy(self) -> "ParticleArrays":
        """Deep copy of the population."""
        return self.select(slice(None))
