"""Shock metrology: the quantitative reads of figures 1-6.

The paper validates four numbers against 2-D inviscid theory:

* the **shock angle** (45 degrees for Mach 4 / 30 degree wedge),
* the **post-shock density ratio** (Rankine-Hugoniot: 3.7),
* the **Prandtl-Meyer expansion** around the wedge corner,
* the **shock thickness** (3 cell widths near-continuum, 5 rarefied)
  and the **wake shock** that is "completely washed out" in the
  rarefied run.

All functions operate on a time-averaged density-ratio field
``rho[(nx, ny)]`` (density / freestream density) plus the geometry that
produced it, and return plain floats so benches and tests can assert on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge


@dataclass(frozen=True)
class ShockFit:
    """Least-squares fit of the shock front above the ramp.

    Attributes
    ----------
    angle_deg:
        Shock angle from the horizontal (the oblique shock's beta).
    intercept:
        Fitted y at the leading-edge x (near 0 for an attached shock).
    xs, ys:
        The per-column crossing points used in the fit (diagnostics).
    """

    angle_deg: float
    intercept: float
    xs: np.ndarray
    ys: np.ndarray


def _column_crossing(
    col: np.ndarray, level: float, y_start: int
) -> Optional[float]:
    """First y (sub-cell, linear interp) where ``col`` falls below level.

    Scans upward from ``y_start`` (just above the wedge surface) where
    the column sits at post-shock density, to the freestream above: the
    crossing of ``level`` locates the shock front in this column.
    """
    above = col[y_start:]
    below_mask = above < level
    if not below_mask.any() or below_mask.all():
        return None
    j = int(np.argmax(below_mask))  # first index below the level
    if j == 0:
        return None
    y1, y0 = above[j], above[j - 1]
    if y0 == y1:
        frac = 0.0
    else:
        frac = (y0 - level) / (y0 - y1)
    return float(y_start + j - 1 + frac + 0.5)  # cell centers at +0.5


def shock_crossings(
    rho: np.ndarray,
    wedge: Wedge,
    level: Optional[float] = None,
    post_shock_ratio: float = 3.7,
    x_margin: float = 3.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate the shock front above the ramp, column by column.

    ``level`` defaults to the midpoint between freestream (1) and the
    theoretical post-shock ratio.  Columns within ``x_margin`` cells of
    the leading edge or corner are skipped (leading-edge curvature and
    corner-expansion contamination).

    Returns ``(xs, ys)`` arrays of crossing points (cell-center
    coordinates).
    """
    if rho.ndim != 2:
        raise ConfigurationError("rho must be a 2-D (nx, ny) field")
    if level is None:
        level = 0.5 * (1.0 + post_shock_ratio)
    i_lo = int(math.ceil(wedge.x_leading + x_margin))
    i_hi = int(math.floor(wedge.x_trailing - x_margin))
    xs, ys = [], []
    for i in range(i_lo, min(i_hi, rho.shape[0] - 1) + 1):
        surf = wedge.ramp_height_at(i + 0.5)
        y_start = int(math.ceil(surf)) + 1
        if y_start >= rho.shape[1] - 2:
            continue
        y = _column_crossing(rho[i], level, y_start)
        if y is not None:
            xs.append(i + 0.5)
            ys.append(y)
    return np.asarray(xs), np.asarray(ys)


def fit_shock_angle(
    rho: np.ndarray,
    wedge: Wedge,
    level: Optional[float] = None,
    post_shock_ratio: float = 3.7,
) -> ShockFit:
    """Fit a straight shock front and return its angle (figure 1's 45 deg).

    The fit is a least-squares line through the per-column crossing
    points, with the angle measured from the freestream direction.
    """
    xs, ys = shock_crossings(rho, wedge, level, post_shock_ratio)
    if xs.size < 4:
        raise ConfigurationError(
            f"only {xs.size} shock crossings found; field not converged "
            "or geometry mismatch"
        )
    slope, intercept = np.polyfit(xs - wedge.x_leading, ys, 1)
    return ShockFit(
        angle_deg=math.degrees(math.atan(slope)),
        intercept=float(intercept),
        xs=xs,
        ys=ys,
    )


def post_shock_plateau(
    rho: np.ndarray,
    wedge: Wedge,
    fit: Optional[ShockFit] = None,
    surface_clearance: float = 2.0,
    shock_clearance: float = 2.0,
) -> float:
    """Mean density ratio in the shock layer (Rankine-Hugoniot's 3.7).

    Averages the field between the ramp surface and the fitted shock
    front, keeping ``surface_clearance`` cells off the wedge (cut-cell
    noise) and ``shock_clearance`` cells under the front (finite shock
    width).  On small (scaled) geometries where the layer is only a few
    cells thick, the clearances are progressively halved until usable
    samples exist.
    """
    if fit is None:
        fit = fit_shock_angle(rho, wedge)
    slope = math.tan(math.radians(fit.angle_deg))
    sc, kc = surface_clearance, shock_clearance
    for _ in range(4):
        vals = []
        for x, _y in zip(fit.xs, fit.ys):
            i = int(x)
            surf = wedge.ramp_height_at(x)
            y_front = fit.intercept + slope * (x - wedge.x_leading)
            lo = surf + sc
            hi = y_front - kc
            j_lo, j_hi = int(math.ceil(lo)), int(math.floor(hi))
            if j_hi > j_lo:
                vals.append(rho[i, j_lo:j_hi].mean())
        if vals:
            return float(np.mean(vals))
        sc, kc = sc / 2.0, kc / 2.0
    raise ConfigurationError("no usable shock-layer samples")


def shock_thickness(
    rho: np.ndarray,
    wedge: Wedge,
    fit: Optional[ShockFit] = None,
    lo_frac: float = 0.15,
    hi_frac: float = 0.85,
    plateau: Optional[float] = None,
) -> float:
    """Shock thickness in cell widths, normal to the front.

    For each usable column, measures the vertical distance between the
    ``lo_frac`` and ``hi_frac`` points of the density rise (between 1
    and the plateau), then projects onto the shock normal
    (``dy * cos(beta)``).  The paper reads 3 cell widths off figure 1
    (near-continuum; resolution-limited) and 5 off figure 4 (rarefied).
    """
    if fit is None:
        fit = fit_shock_angle(rho, wedge)
    if plateau is None:
        plateau = post_shock_plateau(rho, wedge, fit)
    lo_level = 1.0 + lo_frac * (plateau - 1.0)
    hi_level = 1.0 + hi_frac * (plateau - 1.0)
    beta = math.radians(fit.angle_deg)
    widths = []
    for x in fit.xs:
        i = int(x)
        surf = wedge.ramp_height_at(x)
        y_start = int(math.ceil(surf)) + 1
        y_hi = _column_crossing(rho[i], hi_level, y_start)
        y_lo = _column_crossing(rho[i], lo_level, y_start)
        if y_hi is not None and y_lo is not None and y_lo > y_hi:
            widths.append((y_lo - y_hi) * math.cos(beta))
    if not widths:
        raise ConfigurationError("no measurable shock-rise columns")
    return float(np.median(widths))


def wake_recompression_factor(
    rho: np.ndarray,
    wedge: Wedge,
    domain: Domain,
    floor_band: float = 3.0,
    x_clearance: float = 3.0,
) -> float:
    """Wake-shock strength behind the wedge.

    In the near-continuum run the corner-expanded flow recompresses
    where it meets the floor ("the fully developed wake shock"); in the
    rarefied run the wake shock is "completely washed out".  Metric:
    along the floor band behind the back face, the maximum density
    divided by the minimum upstream of it (the expansion trough).  Near
    continuum this is >> 1; rarefied it approaches 1.
    """
    i_lo = int(wedge.x_trailing + x_clearance)
    i_hi = domain.nx - 2
    if i_hi <= i_lo + 3:
        raise ConfigurationError("domain too short behind the wedge")
    j_hi = int(floor_band)
    band = rho[i_lo:i_hi, 0:j_hi].mean(axis=1)
    trough_i = int(np.argmin(band))
    trough = float(band[trough_i])
    if trough_i >= band.size - 1:
        return 1.0
    peak = float(band[trough_i:].max())
    if trough <= 0:
        raise ConfigurationError("empty wake band; field not converged")
    return peak / trough


def expansion_fan_samples(
    rho: np.ndarray,
    wedge: Wedge,
    turns_deg,
    mach_post_shock: float,
    plateau: float,
    radius: float = 10.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the corner expansion fan along theoretical characteristics.

    For each turn angle, computes the Prandtl-Meyer characteristic ray
    through the corner (incoming flow parallel to the ramp at the
    post-shock Mach number) and samples the density at ``radius`` cells
    from the corner along that ray.

    Returns ``(measured, predicted)`` density ratios *relative to the
    pre-fan (post-shock) plateau*, aligned with ``turns_deg``.  The FIG1
    bench compares them pointwise -- the quantitative version of the
    paper's "Prandtl-Meyer expansion fan ... compared to theory and
    found to be correct".
    """
    from repro.physics import theory

    if plateau <= 0:
        raise ConfigurationError("plateau must be positive")
    cx, cy = wedge.corner
    flow_dir = wedge.angle
    measured, predicted = [], []
    for t in np.atleast_1d(turns_deg):
        ray, _m2, ratio = theory.expansion_fan_ray(
            mach_post_shock, math.radians(float(t)), flow_dir
        )
        px = cx + radius * math.cos(ray)
        py = cy + radius * math.sin(ray)
        i = int(np.clip(px, 0, rho.shape[0] - 1))
        j = int(np.clip(py, 0, rho.shape[1] - 1))
        measured.append(float(rho[i, j]) / plateau)
        predicted.append(ratio)
    return np.asarray(measured), np.asarray(predicted)


def vertical_rise_width(
    rho: np.ndarray,
    wedge: Wedge,
    x_station: float,
    plateau: Optional[float] = None,
    lo_frac: float = 0.15,
    hi_frac: float = 0.85,
) -> float:
    """Vertical width of the density rise through the shock at one station.

    The figure 3 / figure 6 comparison localized to a single column:
    scanning upward from the ramp surface at ``x_station``, the distance
    between the ``hi_frac`` and ``lo_frac`` points of the fall from the
    plateau to the freestream.  Rarefied flow gives a wider rise than
    near-continuum flow at the same station.
    """
    i = int(x_station)
    if not 0 <= i < rho.shape[0]:
        raise ConfigurationError("x_station outside the field")
    if plateau is None:
        plateau = post_shock_plateau(rho, wedge)
    surf = wedge.ramp_height_at(x_station)
    y_start = int(math.ceil(surf)) + 1
    lo_level = 1.0 + lo_frac * (plateau - 1.0)
    hi_level = 1.0 + hi_frac * (plateau - 1.0)
    y_hi = _column_crossing(rho[i], hi_level, y_start)
    y_lo = _column_crossing(rho[i], lo_level, y_start)
    if y_hi is None or y_lo is None or y_lo <= y_hi:
        raise ConfigurationError(
            f"no measurable rise at station x = {x_station}"
        )
    return float(y_lo - y_hi)


def wake_floor_ridge(
    rho: np.ndarray,
    wedge: Wedge,
    domain: Domain,
    x_offset: float = 20.0,
    floor_band: float = 3.0,
) -> float:
    """Floor-attachment of the wake recompression layer.

    The wake shock forms "when the fluid which has expanded around the
    corner of the wedge meets the bottom surface of the wind tunnel":
    the recompressed gas piles up in a layer attached to the floor, so
    in the near-continuum solution the far-wake density *decreases* with
    height (ridge > 1).  In the rarefied solution the long mean free
    path diffuses the layer away ("the wake shock is completely washed
    out") and the ratio drops to or below 1.

    Returns mean(floor-band density) / mean(density at mid-wedge
    height) over the far wake (``x_offset`` cells behind the back face
    to the exit).
    """
    i_lo = int(wedge.x_trailing + x_offset)
    i_hi = domain.nx - 1
    if i_hi <= i_lo + 2:
        raise ConfigurationError("domain too short for the far-wake window")
    j_floor = max(int(floor_band), 1)
    j_mid_lo = int(wedge.height * 0.5)
    j_mid_hi = j_mid_lo + j_floor
    floor = rho[i_lo:i_hi, 0:j_floor].mean()
    mid = rho[i_lo:i_hi, j_mid_lo:j_mid_hi].mean()
    if mid <= 0:
        raise ConfigurationError("empty mid-wake band; field not converged")
    return float(floor / mid)
