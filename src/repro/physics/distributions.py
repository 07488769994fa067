"""Velocity distribution sampling and diagnostics.

Units follow the Baganoff normalization (see ``repro.constants``): the
*most probable speed* ``c_mp = sqrt(2 R T)`` is the temperature handle,
so a Maxwellian velocity component has standard deviation
``sigma = c_mp / sqrt(2)``.

The paper's reservoir trick motivates the **rectangular** sampler:
"These particles are given velocities from a rectangular distribution
with the same variance as the freestream, therefore after a few time
steps collisions with other reservoir particles relaxes these to the
correct Gaussian distributions."  Sampling a uniform needs only one
cheap random draw, against either "costly calls to transcendental
functions or repeated calls to a random number generator" for a direct
Gaussian -- the right trade on a bit-serial machine.

Diagnostics (component variance, excess kurtosis, energy shares) back
the property tests that verify the relaxation actually happens.
"""

from __future__ import annotations

import math
import numpy as np

from repro.errors import ConfigurationError


def sigma_from_cmp(c_mp: float) -> float:
    """Per-component standard deviation of a Maxwellian, c_mp / sqrt(2)."""
    if c_mp <= 0:
        raise ConfigurationError(f"c_mp must be positive, got {c_mp}")
    return c_mp / math.sqrt(2.0)


def sample_maxwellian(
    rng: np.random.Generator,
    n: int,
    c_mp: float,
    drift: tuple = (0.0, 0.0, 0.0),
    components: int = 3,
) -> np.ndarray:
    """Sample an equilibrium (Maxwellian) velocity distribution.

    Returns an ``(n, components)`` float64 array.  Each component is an
    independent Gaussian with standard deviation ``c_mp / sqrt(2)``
    shifted by the corresponding ``drift`` entry (missing drift entries
    default to zero, so rotational components can reuse this sampler).
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    sigma = sigma_from_cmp(c_mp)
    out = rng.normal(0.0, sigma, size=(n, components))
    for i, d in enumerate(drift[:components]):
        if d:
            out[:, i] += d
    return out


def rectangular_half_width(c_mp: float) -> float:
    """Half-width ``a`` of the uniform with the Maxwellian's variance.

    A uniform on ``[-a, a]`` has variance ``a**2 / 3``, so
    ``a = sigma * sqrt(3)``.
    """
    return sigma_from_cmp(c_mp) * math.sqrt(3.0)


def sample_rectangular(
    rng: np.random.Generator,
    n: int,
    c_mp: float,
    drift: tuple = (0.0, 0.0, 0.0),
    components: int = 3,
) -> np.ndarray:
    """Sample the reservoir's rectangular (uniform) distribution.

    Matches the Maxwellian variance per component: a uniform on
    ``[-a, a]`` with ``a`` from :func:`rectangular_half_width`.  One uniform draw per component -- the cheap sampler the paper uses
    when parking particles in the reservoir, relying on reservoir
    self-collisions to Gaussianize them.
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    a = rectangular_half_width(c_mp)
    out = rng.uniform(-a, a, size=(n, components))
    for i, d in enumerate(drift[:components]):
        if d:
            out[:, i] += d
    return out


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def component_variance(velocities: np.ndarray) -> np.ndarray:
    """Variance of each velocity component (about its own mean)."""
    v = np.asarray(velocities, dtype=np.float64)
    if v.ndim != 2:
        raise ConfigurationError("velocities must be (n, components)")
    return v.var(axis=0)


def excess_kurtosis(samples: np.ndarray) -> np.ndarray:
    """Excess kurtosis per component (0 for a Gaussian, -1.2 uniform).

    The reservoir relaxation test watches this rise from the rectangular
    value (-1.2) to ~0 as self-collisions Gaussianize the population.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    mu = x.mean(axis=0)
    centered = x - mu
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(m2 > 0, m4 / m2**2 - 3.0, 0.0)
    return k


def temperature_from_velocities(
    velocities: np.ndarray, c_mp_reference: bool = False
) -> float:
    """Kinetic temperature proxy: mean peculiar kinetic energy per DOF.

    Returns ``<c'^2>`` per component (= R T in physical units).  With
    ``c_mp_reference=True`` returns the corresponding most probable
    speed ``sqrt(2 <c'^2>)`` instead.
    """
    v = np.asarray(velocities, dtype=np.float64)
    if v.ndim != 2:
        raise ConfigurationError("velocities must be (n, components)")
    rt = v.var(axis=0).mean()
    if c_mp_reference:
        return math.sqrt(2.0 * rt)
    return float(rt)


def energy_shares(
    translational: np.ndarray, rotational: np.ndarray
) -> tuple:
    """Fractions of *thermal* energy in translation and rotation.

    Translational thermal energy removes the bulk drift (per-component
    mean); rotational velocity has no bulk part in this model.  At
    equilibrium a diatomic gas holds 3/5 translational, 2/5 rotational.
    """
    t = np.asarray(translational, dtype=np.float64)
    r = np.asarray(rotational, dtype=np.float64)
    e_tr = t.var(axis=0).sum()  # sum over components of <c'^2>
    e_rot = (r**2).mean(axis=0).sum() if r.size else 0.0
    total = e_tr + e_rot
    if total == 0:
        return 0.0, 0.0
    return float(e_tr / total), float(e_rot / total)


def speed_distribution_chi2(
    velocities: np.ndarray,
    c_mp: float,
    n_bins: int = 24,
) -> float:
    """Chi-squared-per-bin distance of speeds from the Maxwell speed pdf.

    Bins particle speeds and compares against the analytic Maxwell speed
    distribution ``f(c) = (4/sqrt(pi)) (c^2/c_mp^3) exp(-c^2/c_mp^2)``.
    Used by equilibrium tests: values of order 1 indicate agreement at
    the statistical noise level.
    """
    v = np.asarray(velocities, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ConfigurationError("velocities must be (n, 3)")
    speeds = np.sqrt((v**2).sum(axis=1))
    n = speeds.size
    if n < 100:
        raise ConfigurationError("need >= 100 samples for a chi2 test")
    edges = np.linspace(0.0, 3.0 * c_mp, n_bins + 1)
    counts, _ = np.histogram(speeds, bins=edges)
    x = edges / c_mp
    # CDF of the Maxwell speed distribution at the bin edges.
    from scipy.special import erf

    cdf_vals = erf(x) - 2.0 / math.sqrt(math.pi) * x * np.exp(-(x**2))
    probs = np.diff(cdf_vals)
    expected = probs * n
    mask = expected > 5  # standard chi2 validity threshold
    chi2 = ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    return float(chi2 / max(mask.sum(), 1))
