"""Adaptive load balancing for the sharded backend, always on.

The paper's CM-2 re-homes particles every sort, so physical processors
stay evenly loaded no matter where the shock piles the flow.  The
sharded backend repartitions its x-slabs on a fixed step cadence
instead, closing a measure -> decide -> act loop:

* **measure** -- a shard's load is every particle it steps: its flow
  rows (``shared["n_parts"]``), plus, on shard 0, the reservoir rows,
  once per ``reservoir_mix_rounds``.  The planner sees the per-column
  flow histogram with the reservoir added at column 0, the inlet
  column shard 0 always owns (:func:`column_loads`).  All of it is
  integer counts of simulation state -- never wall-clock timings,
  which would break bitwise reproducibility;
* **decide** -- every :data:`REBALANCE_EVERY` steps, when the measured
  imbalance exceeds :data:`THRESHOLD`,
  :meth:`repro.parallel.shard.ShardSlabs.rebalance` plans new integer
  slab edges (the columns nearest the load quantiles, under the
  :data:`~repro.parallel.shard.DEFAULT_MAX_SHIFT` damping clamp);
* **act** -- the backend executes the repartition as a *widened
  exchange epoch* through the existing migration channels: each worker
  ships the rows in its ceded columns to the adjacent neighbour,
  refreshes its slab bounds and guard bands, and publishes the new
  layout (see ``ShardWorker.rebalance_a``/``rebalance_b``).

Binder et al. (arXiv:1811.04742) evaluate exactly this cadenced
rebalance-from-measured-load scheme for hypersonic DSMC; the
within-slab kernels stay cell-blocked and untouched (Bogdanov et al.,
cs/9902024) -- only the slab boundaries move.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.parallel.shard import ShardSlabs

#: Decision cadence: the rule runs after every step whose count is a
#: multiple of this (docs/algorithm.md has the 5 / 10 / 20 sweep).
REBALANCE_EVERY = 10

#: Rebalance only when the measured max-over-mean shard load exceeds
#: this.  Wall-clock efficiency is ~1/imbalance, so 1.02 means "act on
#: anything worse than a 2% loss" while leaving a balanced flow
#: untouched (skipping keeps the exchange epoch off the steady state).
THRESHOLD = 1.02


def column_loads(flow_hist: np.ndarray, reservoir_load: int) -> np.ndarray:
    """The planner's per-column loads: flow rows, reservoir at column 0.

    Shard 0 steps the reservoir and always owns the inlet column, so
    the reservoir's rows weigh on column 0 without ever migrating.
    """
    loads = np.array(flow_hist, dtype=np.int64)
    loads[0] += int(reservoir_load)
    return loads


def planned_transfers(
    old: ShardSlabs,
    new: ShardSlabs,
    column_counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Migration rows each interior edge move will ship, per direction.

    Returns ``(to_left, to_right)``, each of length ``n_workers + 1``
    and indexed by edge: edge ``k`` moving *right* cedes columns
    ``[old_k, new_k)`` from shard ``k`` to shard ``k-1`` (rows counted
    in ``to_left[k]``); moving *left* cedes ``[new_k, old_k)`` from
    shard ``k-1`` to shard ``k`` (``to_right[k]``).  After a completed
    step every particle sits inside its own slab, so the global
    per-column histogram attributes each ceded row to the ceding shard
    exactly.
    """
    cum = np.concatenate(([0], np.cumsum(np.asarray(column_counts,
                                                    dtype=np.int64))))
    W = old.n_workers
    to_left = np.zeros(W + 1, dtype=np.int64)
    to_right = np.zeros(W + 1, dtype=np.int64)
    for k in range(1, W):
        o, n = old.edges[k], new.edges[k]
        if n > o:
            to_left[k] = cum[n] - cum[o]
        elif n < o:
            to_right[k] = cum[o] - cum[n]
    return to_left, to_right


def validate_plan(
    old: ShardSlabs,
    new: ShardSlabs,
    column_counts: np.ndarray,
    channel_capacity: int,
    shard_capacities: np.ndarray,
) -> Optional[str]:
    """Re-validate exchange and buffer capacity for a planned move.

    The migration channels were sized at bind time for the *uniform*
    split, the per-shard column buffers and spares for the whole flow
    plus reservoir; a repartition must fit the rows it ships into the
    channels and the post-rebalance populations into the destination
    buffers.  Returns a human-readable reason to skip the event, or
    ``None`` when the plan is executable.  Deterministic, so every
    worker-count-W run skips or executes identically.
    ``column_counts`` is the flow-only histogram: the reservoir rows
    that weigh on column 0 in the plan (:func:`column_loads`) never
    migrate and live outside the buffers.
    """
    to_left, to_right = planned_transfers(old, new, column_counts)
    worst = int(max(to_left.max(), to_right.max()))
    if worst > channel_capacity:
        return (
            f"planned repartition ships {worst} rows through a channel of "
            f"capacity {channel_capacity}; raise ShardedBackend("
            "channel_capacity=...)"
        )
    predicted = new.slab_sums(np.asarray(column_counts, dtype=np.float64),
                              new.edges)
    caps = np.asarray(shard_capacities, dtype=np.int64)
    if (predicted > caps).any():
        k = int(np.argmax(predicted - caps))
        return (
            f"shard {k} would hold {int(predicted[k])} particles, over its "
            f"fixed buffer capacity {int(caps[k])} (reserved at bind for "
            "the whole flow plus reservoir)"
        )
    return None
