"""Macroscopic sampling of cell quantities with time averaging.

The paper's solutions are **time averages**: "The simulation was run for
1200 time steps to reach steady state and then time averaged for a
further 2000 timesteps to generate the solution."  The sort makes
sampling cheap (particles of a cell are contiguous), but the emulation
samples directly with ``np.bincount`` -- same result, one pass, no
Python loops.

Cut cells divide by their **fractional volume** ("special allowance must
be made for the fractional cell volume ... in computing the time average
cell density"), which is exactly the correction the paper's plotting
package lacked (the "jagged edge" caveat of figure 3).  The sampler can
reproduce both behaviours for the figure benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.particles import ParticleArrays, pooled
from repro.core.sortstep import blocked_cell_key
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain


#: Accumulator attribute names of :class:`CellSampler` (one flat float64
#: array each).
SAMPLER_FIELDS = ("_count", "_mu", "_mv", "_mw", "_e_trans", "_e_rot")


def _squared_norm(columns, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out = columns[0]**2 + columns[1]**2 + ...``, added left to right."""
    np.square(columns[0], out=out)
    for col in columns[1:]:
        np.add(out, np.square(col, out=tmp), out=out)
    return out


class MomentSums:
    """The :data:`SAMPLER_FIELDS` accumulators and their one kernel.

    Per bin: the particle count and the sums of c, c.c and r.r.
    """

    def __init__(self, domain: Domain, n_bins: int, volume_fractions) -> None:
        if volume_fractions is not None:
            volume_fractions = np.asarray(volume_fractions, dtype=np.float64)
            if volume_fractions.shape != domain.shape:
                raise ConfigurationError(f"volume_fractions must be {domain.shape}")
        self.volume_fractions = volume_fractions
        for name in SAMPLER_FIELDS:
            setattr(self, name, np.zeros(n_bins))
        self._steps = 0

    @property
    def steps(self) -> int:
        return self._steps

    def reset(self) -> None:
        """Discard accumulated statistics (e.g. at end of transient)."""
        for name in SAMPLER_FIELDS:
            getattr(self, name)[:] = 0.0
        self._steps = 0

    def _accumulate(
        self, particles: ParticleArrays, key: np.ndarray, span: int = 1
    ) -> None:
        """Add one snapshot: particle ``i`` goes to bin ``key[i] // span``.

        The one spelling of the moment sums.  ``np.bincount`` sums each
        bin in particle order and the squares are added left to right,
        so the energy sums are float-for-float ``bincount(key, u**2 +
        v**2 + w**2)`` and ``bincount(key, (rot**2).sum(axis=1))``.

        Passes over the population that remain: the count ``bincount``
        (its range scan is the bounds check; an out-of-range key
        accumulates nothing), one weighted ``bincount`` per moment and
        one square-and-add per velocity component through two N-float
        buffers of ``particles.scratch``; a span adds one divide into a
        pooled key.  Nothing per particle is allocated with scratch on.
        """
        n = particles.n
        n_bins = self._count.shape[0]
        if key.shape[0] != n:
            raise ConfigurationError("key must have one entry per particle")
        scratch = particles.scratch
        if span > 1:
            key = np.floor_divide(
                key, span, out=pooled(scratch, "moment_key", n, key.dtype)
            )
        try:
            self._count += np.bincount(key, minlength=n_bins)
        except (ValueError, MemoryError):  # negative, or bins past the last
            raise ConfigurationError("particle cell key out of range") from None
        sq = pooled(scratch, "moment_sq", n)
        tmp = pooled(scratch, "moment_tmp", n)

        def add(name: str, weights: np.ndarray) -> None:
            acc = getattr(self, name)
            acc += np.bincount(key, weights=weights, minlength=n_bins)

        add("_mu", particles.u)
        add("_mv", particles.v)
        add("_mw", particles.w)
        velocity = (particles.u, particles.v, particles.w)
        add("_e_trans", _squared_norm(velocity, sq, tmp))
        if particles.rot.size:
            add("_e_rot", _squared_norm(particles.rot.T, sq, tmp))
        self._steps += 1


class CellSampler(MomentSums):
    """Accumulates per-cell moments over time steps, for one block or R.

    A population that declares blocks (``particles.starts``, an
    ensemble's replicas) accumulates into ``n_blocks`` independent sets
    of cells held back to back in the flat arrays, all filled by *one*
    ``np.bincount`` per moment keyed by the composite ``block * n_cells
    + cell`` (:func:`repro.core.sortstep.blocked_cell_key`, the sorter's
    key); one block is keyed by ``cell``.  Within a block the particles
    appear in the order a run of that block alone holds them, and
    ``np.bincount`` sums each bin in input order, so :meth:`block`
    yields float-for-float what a one-block sampler would have
    accumulated.

    Parameters
    ----------
    domain:
        The grid.  Moments accumulate on its x-y footprint (fields are
        ``(nx, ny)``): a span domain's are span-collapsed, which is its
        z-average and the 2-D reference field at once.
    volume_fractions:
        Optional open-volume fractions of ``domain``'s cells for cut
        cells; omitted means unit volumes everywhere.
    n_blocks:
        Blocks of the population sampled (the derived fields below read
        one block; read a sampler of several through :meth:`blocks`).
    """

    def __init__(
        self,
        domain: Domain,
        volume_fractions: Optional[np.ndarray] = None,
        n_blocks: int = 1,
    ) -> None:
        if n_blocks < 1:
            raise ConfigurationError("n_blocks must be >= 1")
        footprint = domain.xy_domain()
        super().__init__(domain, n_blocks * footprint.n_cells, volume_fractions)
        self.n_blocks = int(n_blocks)
        #: Cells per footprint column (1 without a span).
        self._span = domain.n_cells // footprint.n_cells
        if volume_fractions is not None:
            # A body cuts every z-slab alike: keep the footprint's.
            self.volume_fractions = self.volume_fractions.reshape(
                *footprint.shape, -1
            )[..., 0]
        self.domain = footprint

    def accumulate(self, particles: ParticleArrays) -> None:
        """Add one snapshot of the population to the averages."""
        key = particles.cell
        if particles.starts is not None:
            out = pooled(particles.scratch, "blocked_key", particles.n, np.int64)
            key = blocked_cell_key(
                key, particles.starts, self._span * self.domain.n_cells, out=out
            )
        self._accumulate(particles, key, self._span)

    def block(self, b: int) -> "CellSampler":
        """Block ``b``'s accumulators as a one-block sampler (a copy)."""
        if not 0 <= b < self.n_blocks:
            raise ConfigurationError(
                f"block index {b} out of range [0, {self.n_blocks})"
            )
        one = CellSampler(self.domain, self.volume_fractions)
        one._span = self._span
        n = self.domain.n_cells
        for name in SAMPLER_FIELDS:
            getattr(one, name)[:] = getattr(self, name)[b * n : (b + 1) * n]
        one._steps = self._steps
        return one

    def blocks(self) -> list:
        """One one-block sampler per block, in block order."""
        return [self.block(b) for b in range(self.n_blocks)]

    # -- derived fields ---------------------------------------------------------

    def _require_data(self) -> None:
        if self.n_blocks > 1:
            raise ConfigurationError(
                f"a sampler of {self.n_blocks} blocks has one field per "
                "block: read them through blocks()"
            )
        if self._steps == 0:
            raise ConfigurationError("no snapshots accumulated yet")

    def _grid(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.domain.shape)

    def number_density(self, correct_volumes: bool = True) -> np.ndarray:
        """Time-averaged number density per cell, ``(nx, ny)``.

        ``correct_volumes=False`` reproduces the paper's plotting-package
        limitation (figure 3's jagged wedge edge): cut cells report raw
        count per *unit* volume instead of per open volume.
        """
        self._require_data()
        dens = self._count / (self._steps * self._span)
        if correct_volumes and self.volume_fractions is not None:
            vf = np.maximum(self.volume_fractions.reshape(-1), 1e-12)
            open_cell = self.volume_fractions.reshape(-1) > 0
            dens = np.where(open_cell, dens / vf, 0.0)
        return self._grid(dens)

    def density_ratio(self, freestream_density: float, correct_volumes: bool = True) -> np.ndarray:
        """Density normalized by the freestream value (figures 1-6)."""
        if freestream_density <= 0:
            raise ConfigurationError("freestream density must be positive")
        return self.number_density(correct_volumes) / freestream_density

    def mean_velocity(self) -> tuple:
        """Time-averaged bulk velocity components, each ``(nx, ny)``."""
        self._require_data()
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(self._count > 0, self._mu / self._count, 0.0)
            v = np.where(self._count > 0, self._mv / self._count, 0.0)
            w = np.where(self._count > 0, self._mw / self._count, 0.0)
        return self._grid(u), self._grid(v), self._grid(w)

    def translational_temperature(self) -> np.ndarray:
        """RT per cell from peculiar translational energy, ``(nx, ny)``.

        RT = (<c.c> - <c>.<c>) / 3 using the time-aggregated moments.
        """
        self._require_data()
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(self._count > 0, 1.0 / self._count, 0.0)
        mean_sq = self._e_trans * inv
        bulk_sq = (self._mu * inv) ** 2 + (self._mv * inv) ** 2 + (self._mw * inv) ** 2
        rt = np.maximum(mean_sq - bulk_sq, 0.0) / 3.0
        return self._grid(rt)


# -- ensemble statistics ----------------------------------------------------


@dataclass(frozen=True)
class EnsembleStatistic:
    """Mean, standard error and t-confidence interval of replica values.

    ``n == 1`` carries no interval information: ``stderr`` is ``inf``
    and the interval is the whole real line (callers gating on
    :meth:`contains` should require ``n >= 2``).
    """

    mean: float
    stderr: float
    lo: float
    hi: float
    n: int
    confidence: float

    def __str__(self) -> str:
        half = 0.5 * (self.hi - self.lo)
        return (
            f"{self.mean:.6g} +/- {half:.3g} "
            f"({100 * self.confidence:g}% CI, n={self.n})"
        )


def _t_critical(df: int, confidence: float) -> float:
    """Two-sided Student-t critical value (scipy, normal fallback)."""
    q = 0.5 + confidence / 2.0
    try:
        from scipy import stats

        return float(stats.t.ppf(q, df))
    except ImportError:  # pragma: no cover - scipy is a declared dep
        # Normal-quantile fallback (Acklam-style rational approximation
        # is overkill here; the inverse error function via math suffices
        # for the common confidence levels).
        # For small df this *underestimates* the interval width.
        return math.sqrt(2.0) * _erfinv(2.0 * q - 1.0)


def _erfinv(y: float) -> float:  # pragma: no cover - fallback only
    """Inverse error function by bisection (fallback path only)."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ensemble_statistic(
    values: Sequence[float], confidence: float = 0.95
) -> EnsembleStatistic:
    """Summarize one scalar measure across ensemble replicas.

    Replicas are independent by construction (disjoint Philox counter
    blocks), so the standard small-sample machinery applies: mean,
    standard error ``s / sqrt(n)`` (``ddof=1``), and the two-sided
    Student-t interval at the requested confidence.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    vals = np.asarray(values, dtype=np.float64).ravel()
    n = int(vals.size)
    if n == 0:
        raise ConfigurationError("no replica values to summarize")
    mean = float(vals.mean())
    if n == 1:
        return EnsembleStatistic(
            mean=mean,
            stderr=float("inf"),
            lo=float("-inf"),
            hi=float("inf"),
            n=1,
            confidence=confidence,
        )
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    half = _t_critical(n - 1, confidence) * stderr
    return EnsembleStatistic(
        mean=mean,
        stderr=stderr,
        lo=mean - half,
        hi=mean + half,
        n=n,
        confidence=confidence,
    )
