"""Per-step physics observables derived from the live particle state.

Metrics about the *simulation* rather than the machine: is energy
drifting, how rarefied is each region of the tunnel, and how evenly is
the work spread over the shards.  The first two are the physics health
signals a DSMC practitioner watches; the last is the prerequisite for
any load-rebalancing work (you cannot rebalance slabs you cannot
measure -- the hub samples it every step at O(W) cost).

Everything here is pure computation on arrays the caller already has;
the telemetry hub decides the cadence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def energy_drift(energy: float, baseline: float) -> float:
    """Relative drift of total energy against a run baseline."""
    return (energy - baseline) / max(abs(baseline), 1.0)


def load_imbalance(loads: Sequence[float]) -> float:
    """Max-over-mean shard load factor (1.0 = perfectly balanced).

    The standard DSMC load-balance figure of merit: a W-worker step
    finishes when the most loaded shard finishes, so wall-clock
    efficiency is ~ 1/imbalance.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        return 1.0
    mean = float(loads.mean())
    if mean <= 0.0:
        return 1.0
    return float(loads.max()) / mean


def band_densities(
    x: np.ndarray, width: float, n_bands: int
) -> np.ndarray:
    """Particle count per equal-width x band (one O(N) bincount)."""
    if x.size == 0:
        return np.zeros(n_bands)
    idx = np.clip(
        (x * (n_bands / width)).astype(np.int64), 0, n_bands - 1
    )
    return np.bincount(idx, minlength=n_bands).astype(np.float64)


def mean_free_path_bands(
    x_columns: List[np.ndarray],
    domain_width: float,
    domain_cross_section: float,
    freestream_density: float,
    freestream_lambda: float,
    n_bands: int = 8,
) -> Optional[np.ndarray]:
    """Local mean free path per x band, in cell widths.

    DSMC's hard-sphere mean free path scales inversely with number
    density, so the local value follows from the freestream one and the
    band's density ratio: ``lambda_band = lambda_inf * n_inf / n_band``.
    Bands with no particles report ``inf`` (collisionless vacuum);
    a continuum configuration (``lambda_inf == 0``) returns ``None``
    since the observable is undefined there.

    ``domain_cross_section`` is the tunnel's y-z extent (its height,
    times the depth of a span domain), so a band's particle count is
    compared against its *volume* at freestream density.
    ``x_columns`` is one x-position array per shard (a single entry for
    serial runs), so sharded runs compute this straight from the
    shared-memory views without a gather.
    """
    if freestream_lambda <= 0.0 or freestream_density <= 0.0:
        return None
    counts = np.zeros(n_bands)
    for x in x_columns:
        counts += band_densities(x, domain_width, n_bands)
    band_volume = (domain_width / n_bands) * domain_cross_section
    with np.errstate(divide="ignore"):
        ratio = np.where(
            counts > 0, (freestream_density * band_volume) / counts, np.inf
        )
    return freestream_lambda * ratio
