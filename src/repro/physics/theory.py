"""Inviscid 2-D theory oracle.

The paper validates the simulation against classical results read off
figures 1-6:

* the **oblique shock angle** (45 degrees for Mach 4 over a 30 degree
  wedge) from the theta-beta-M relation,
* the **post-shock density ratio** (3.7) from the Rankine-Hugoniot
  relations,
* the **Prandtl-Meyer expansion fan** around the wedge corner
  ("compared to theory and found to be correct"),
* the **shock thickness** growth with mean free path (3 cell widths
  near-continuum vs 5 cell widths at lambda = 0.5).

All functions take angles in *radians* unless the name says ``_deg``
and default to the diatomic gamma = 7/5.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.constants import GAMMA
from repro.errors import ConfigurationError

#: Upper end of :func:`minimum_attachment_mach`'s search: a deflection
#: still detached at this Mach number counts as detached at every Mach.
ATTACHMENT_MACH_HI = 50.0


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` (Brent).

    The classic Brent-Dekker iteration (inverse quadratic interpolation
    guarded by bisection) with SciPy's ``brentq`` defaults, so the three
    scalar root-finds below need no SciPy import on the run path: every
    :class:`repro.core.simulation.SimulationConfig` construction solves
    one.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConfigurationError("root is not bracketed: f(a) f(b) > 0")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre))
                )
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise ConfigurationError(f"root find did not converge in {maxiter} steps")


def _check_supersonic(mach: float) -> None:
    if mach <= 1.0:
        raise ConfigurationError(f"need supersonic Mach number, got {mach}")


# ---------------------------------------------------------------------------
# Oblique shock (theta-beta-M)
# ---------------------------------------------------------------------------

def deflection_angle(mach: float, beta: float, gamma: float = GAMMA) -> float:
    """Flow deflection theta produced by an oblique shock at angle beta.

    The theta-beta-M relation:
        tan(theta) = 2 cot(beta) (M^2 sin^2 beta - 1)
                     / (M^2 (gamma + cos 2 beta) + 2)
    """
    _check_supersonic(mach)
    mn2 = (mach * math.sin(beta)) ** 2
    if mn2 <= 1.0:
        return 0.0  # no compression: Mach wave or weaker
    num = 2.0 / math.tan(beta) * (mn2 - 1.0)
    den = mach**2 * (gamma + math.cos(2.0 * beta)) + 2.0
    return math.atan(num / den)


def max_deflection(mach: float, gamma: float = GAMMA) -> Tuple[float, float]:
    """Maximum attached-shock deflection and the beta achieving it.

    Returns ``(theta_max, beta_at_max)``.  Wedge angles above theta_max
    detach the shock (bow shock), which the library flags rather than
    silently solving the wrong branch.
    """
    _check_supersonic(mach)
    mu = math.asin(1.0 / mach)  # Mach angle: weakest possible shock
    betas = np.linspace(mu + 1e-9, math.pi / 2 - 1e-9, 20001)
    # Vectorized theta-beta-M over the whole beta sweep.
    mn2 = (mach * np.sin(betas)) ** 2
    num = 2.0 / np.tan(betas) * (mn2 - 1.0)
    den = mach**2 * (gamma + np.cos(2.0 * betas)) + 2.0
    thetas = np.where(mn2 > 1.0, np.arctan(num / den), 0.0)
    i = int(np.argmax(thetas))
    return float(thetas[i]), float(betas[i])


def shock_angle(
    mach: float, theta: float, gamma: float = GAMMA, strong: bool = False
) -> float:
    """Invert theta-beta-M: the (weak by default) shock angle beta.

    Raises :class:`ConfigurationError` for detached conditions.
    For Mach 4 and theta = 30 degrees with gamma = 7/5 the weak solution
    is beta ~= 45 degrees -- the angle the paper reads off figure 1.
    """
    _check_supersonic(mach)
    if theta < 0:
        raise ConfigurationError("deflection angle must be non-negative")
    if theta == 0.0:
        return math.asin(1.0 / mach)
    theta_max, beta_max = max_deflection(mach, gamma)
    if theta > theta_max:
        raise ConfigurationError(
            f"deflection {math.degrees(theta):.1f} deg exceeds maximum "
            f"{math.degrees(theta_max):.1f} deg at Mach {mach}: detached shock"
        )
    mu = math.asin(1.0 / mach)
    f = lambda b: deflection_angle(mach, b, gamma) - theta
    if strong:
        return _brentq(f, beta_max, math.pi / 2 - 1e-10, xtol=1e-12)
    return _brentq(f, mu + 1e-10, beta_max, xtol=1e-12)


def shock_angle_deg(
    mach: float, theta_deg: float, gamma: float = GAMMA, strong: bool = False
) -> float:
    """Degree-in, degree-out convenience wrapper for :func:`shock_angle`."""
    return math.degrees(
        shock_angle(mach, math.radians(theta_deg), gamma, strong)
    )


# ---------------------------------------------------------------------------
# Rankine-Hugoniot jumps
# ---------------------------------------------------------------------------

def normal_shock_density_ratio(mach_n: float, gamma: float = GAMMA) -> float:
    """rho2/rho1 across a normal shock of normal Mach number mach_n.

    rho2/rho1 = (gamma+1) Mn^2 / ((gamma-1) Mn^2 + 2).  For the paper's
    Mach 4 flow at beta = 45 deg, Mn = 2.83 and the ratio is 3.69 ~ 3.7.
    """
    if mach_n <= 1.0:
        raise ConfigurationError("normal Mach must exceed 1 for a shock")
    m2 = mach_n**2
    return (gamma + 1.0) * m2 / ((gamma - 1.0) * m2 + 2.0)


def normal_shock_pressure_ratio(mach_n: float, gamma: float = GAMMA) -> float:
    """p2/p1 = 1 + 2 gamma (Mn^2 - 1) / (gamma + 1)."""
    if mach_n <= 1.0:
        raise ConfigurationError("normal Mach must exceed 1 for a shock")
    return 1.0 + 2.0 * gamma * (mach_n**2 - 1.0) / (gamma + 1.0)


def normal_shock_temperature_ratio(mach_n: float, gamma: float = GAMMA) -> float:
    """T2/T1 from the pressure and density ratios (ideal gas)."""
    return normal_shock_pressure_ratio(mach_n, gamma) / normal_shock_density_ratio(
        mach_n, gamma
    )


def post_normal_shock_mach(mach_n: float, gamma: float = GAMMA) -> float:
    """Normal Mach number behind a normal shock."""
    if mach_n <= 1.0:
        raise ConfigurationError("normal Mach must exceed 1 for a shock")
    m2 = mach_n**2
    return math.sqrt((1.0 + 0.5 * (gamma - 1.0) * m2) / (gamma * m2 - 0.5 * (gamma - 1.0)))


def oblique_shock_density_ratio(
    mach: float, theta: float, gamma: float = GAMMA
) -> float:
    """rho2/rho1 behind the weak oblique shock for deflection theta."""
    beta = shock_angle(mach, theta, gamma)
    return normal_shock_density_ratio(mach * math.sin(beta), gamma)


def post_oblique_shock_mach(
    mach: float, theta: float, gamma: float = GAMMA
) -> float:
    """Downstream Mach number behind the weak oblique shock."""
    beta = shock_angle(mach, theta, gamma)
    mn2 = post_normal_shock_mach(mach * math.sin(beta), gamma)
    return mn2 / math.sin(beta - theta)


# ---------------------------------------------------------------------------
# Prandtl-Meyer expansion
# ---------------------------------------------------------------------------

def prandtl_meyer(mach: float, gamma: float = GAMMA) -> float:
    """The Prandtl-Meyer function nu(M), radians.  nu(1) = 0."""
    if mach < 1.0:
        raise ConfigurationError(f"Prandtl-Meyer needs M >= 1, got {mach}")
    g = gamma
    k = math.sqrt((g + 1.0) / (g - 1.0))
    m2 = mach**2 - 1.0
    return k * math.atan(math.sqrt(m2) / k) - math.atan(math.sqrt(m2))


def mach_from_prandtl_meyer(nu: float, gamma: float = GAMMA) -> float:
    """Invert nu(M) for M in (1, 50]."""
    nu_max = prandtl_meyer(50.0, gamma)
    if not 0.0 <= nu <= nu_max:
        raise ConfigurationError(
            f"nu = {nu:.4f} rad outside invertible range [0, {nu_max:.4f}]"
        )
    if nu == 0.0:
        return 1.0
    return _brentq(
        lambda m: prandtl_meyer(m, gamma) - nu, 1.0 + 1e-12, 50.0, xtol=1e-12
    )


def expansion_density_ratio(
    mach1: float, turn_angle: float, gamma: float = GAMMA
) -> float:
    """rho2/rho1 across a Prandtl-Meyer expansion turning the flow.

    Isentropic: nu(M2) = nu(M1) + turn; density from the isentropic
    relation with the common total conditions.  This is the theory the
    paper checked "around the corner of the wedge ... and found to be
    correct".
    """
    if turn_angle < 0:
        raise ConfigurationError("turn angle must be non-negative")
    m2 = mach_from_prandtl_meyer(prandtl_meyer(mach1, gamma) + turn_angle, gamma)
    g = gamma
    t_ratio = (1.0 + 0.5 * (g - 1.0) * mach1**2) / (1.0 + 0.5 * (g - 1.0) * m2**2)
    return t_ratio ** (1.0 / (g - 1.0))


def minimum_attachment_mach(theta: float, gamma: float = GAMMA) -> float:
    """Smallest Mach number with an attached shock for deflection theta.

    Below this the wedge detaches a bow shock and the theta-beta-M
    comparison the validation relies on stops applying; simulation
    configurations use it to warn about detached regimes.
    """
    if theta <= 0:
        return 1.0
    theta_max_hi, _ = max_deflection(ATTACHMENT_MACH_HI, gamma)
    if theta >= theta_max_hi:
        raise ConfigurationError(
            f"deflection {math.degrees(theta):.1f} deg detaches at every "
            f"Mach number up to {ATTACHMENT_MACH_HI:g}"
        )
    return _brentq(
        lambda m: max_deflection(m, gamma)[0] - theta,
        1.0 + 1e-6,
        ATTACHMENT_MACH_HI,
        xtol=1e-10,
    )


def isentropic_density_ratio(mach1: float, mach2: float, gamma: float = GAMMA) -> float:
    """rho2/rho1 along an isentrope between two Mach numbers."""
    g = gamma
    t_ratio = (1.0 + 0.5 * (g - 1.0) * mach1**2) / (
        1.0 + 0.5 * (g - 1.0) * mach2**2
    )
    return t_ratio ** (1.0 / (g - 1.0))


def expansion_fan_ray(
    mach1: float,
    turn: float,
    flow_direction: float,
    gamma: float = GAMMA,
) -> Tuple[float, float, float]:
    """State on one characteristic of a centered Prandtl-Meyer fan.

    For flow at Mach ``mach1`` moving at ``flow_direction`` (radians
    above horizontal) expanding clockwise around a convex corner, the
    characteristic carrying the state that has turned by ``turn`` lies
    at ray angle ``(flow_direction - turn) + mu(M)`` above horizontal.

    Returns ``(ray_angle, mach, density_ratio)`` with the density ratio
    relative to the pre-fan state.  This is the theory the paper
    compared the corner fan against ("compared to theory and found to
    be correct").
    """
    if turn < 0:
        raise ConfigurationError("turn must be non-negative")
    m2 = mach_from_prandtl_meyer(prandtl_meyer(mach1, gamma) + turn, gamma)
    mu = math.asin(1.0 / m2)
    ray = (flow_direction - turn) + mu
    return ray, m2, isentropic_density_ratio(mach1, m2, gamma)


# ---------------------------------------------------------------------------
# Free-molecular (collisionless) limit
# ---------------------------------------------------------------------------

def free_molecular_specular_pressure_ratio(
    mach: float, surface_angle: float, gamma: float = GAMMA
) -> float:
    """p/p_inf on a specular surface in free-molecular flow.

    The Kn -> infinity bracket of the wedge problem: with no collisions
    the surface pressure is the doubled incident normal-momentum flux of
    the drifting Maxwellian.  For normal drift speed ``mu = U sin(theta)``
    and thermal spread ``sigma = sqrt(RT)``,

        p = 2 rho [ (mu^2 + sigma^2) Phi(s) + mu sigma phi(s) ],
        s = mu / sigma,

    (Phi, phi: standard normal CDF/pdf), which reduces to the static-gas
    ``p = rho R T`` at mu = 0 and to the Newtonian ``rho U_n^2 * 2`` at
    hypersonic speed ratios.  Returned normalized by ``p_inf = rho R T``.
    """
    if surface_angle < 0:
        raise ConfigurationError("surface angle must be non-negative")
    if mach < 0:
        raise ConfigurationError("mach must be non-negative")
    # Normal speed ratio: U sin(theta) / sqrt(RT); U = M sqrt(gamma RT).
    s = mach * math.sqrt(gamma) * math.sin(surface_angle)
    phi = math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(s / math.sqrt(2.0)))
    return 2.0 * ((s * s + 1.0) * cdf + s * phi)


# ---------------------------------------------------------------------------
# Shock structure scales
# ---------------------------------------------------------------------------
