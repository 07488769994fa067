"""Index before bounding: the edge-cell boundary pass is the full scan.

``WindTunnelBoundaries.apply_rebuilding`` indexes the moved population,
then tests only the rows whose cell :attr:`edge_cells` flags.  Two
properties hold it to the full-scan spelling this module keeps as its
reference (:func:`full_scan_rebuilding`: every test over every row, one
cell pass at the end):

* every row a full-scan test catches sits in a flagged cell (the
  superset), positions far outside the tunnel, exactly on its faces and
  the body's edges, infinite and NaN included;
* the edge-cell pass leaves the population (cells included), the
  reservoir, the stream, the plunger, ``BoundaryStats`` and the surface
  records bitwise equal to the reference -- for every registered body,
  every wall model, 2-D and span domains, with and without an inlet
  and an outlet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boundary import (
    MAX_REFLECTION_PASSES,
    BoundaryStats,
    WindTunnelBoundaries,
)
from repro.core.cells import assign_cells
from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.surface import SURFACE_FIELDS, SurfaceSampler
from repro.geometry.bodies import Cylinder, Step
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.rng import block_streams

FS = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=2.0)
NX, NY = 30, 20
BODIES = {
    "wedge": Wedge(x_leading=8.0, base=10.0, angle_deg=30.0),
    "cylinder": Cylinder(cx=15.0, cy=10.0, radius=4.0),
    "step": Step(x_leading=8.0, height=5.5, length=8.0),
    "none": None,
}
WALLS = {
    "specular": {},
    "diffuse": {"wall_model": "diffuse"},
    "adiabatic": {"wall_model": "adiabatic"},
    "maxwell": {"wall_model": "maxwell", "accommodation": 0.5},
}


def full_scan_rebuilding(wb, parts, reservoir, rng):
    """The boundary phase with every test over every row, then one cell
    pass: what ``apply_rebuilding`` computed before it indexed first.

    Returns ``(parts, stats, caught)``, ``caught`` the ascending rows
    any pass-1 test (plunger, walls, body, outlet) flagged.
    """
    streams = block_streams(rng)
    record = wb._surface_record(parts)
    x, y, u, v = parts.x, parts.y, parts.u, parts.v
    height = wb.domain.height
    n_walls = n_wedge = n_clamped = 0
    caught = []
    if wb.has_inlet:
        xp = wb.plunger.position
        behind = np.flatnonzero(x < xp)
        caught.append(behind)
        x[behind] = 2.0 * xp - x[behind]
        u[behind] = 2.0 * wb.plunger.speed - u[behind]
        n_walls += int(behind.size)
    active = None
    clean = False
    for _ in range(MAX_REFLECTION_PASSES):
        moved = []
        if active is None:
            off = np.flatnonzero((y < 0.0) | (y > height))
            caught.append(off)
        else:
            ys = y[active]
            off = active[(ys < 0.0) | (ys > height)]
        if off.size:
            wb._wall_step(parts, off, streams)
            n_walls += int(off.size)
            moved.append(off)
        if wb.wedge is not None:
            if active is None:
                idx_in = np.flatnonzero(wb.wedge.inside(x, y))
                caught.append(idx_in)
            else:
                idx_in = active[wb.wedge.inside(x[active], y[active])]
            if idx_in.size:
                x0, y0, u0, v0 = x[idx_in], y[idx_in], u[idx_in], v[idx_in]
                x1, y1, u1, v1, back, ramp = wb.wedge.reflect_specular_report(
                    x0, y0, u0, v0
                )
                if record is not None:
                    hit = back | ramp
                    record(idx_in[hit], x1[hit], u1[hit] - u0[hit],
                           v1[hit] - v0[hit], back[hit])
                x[idx_in], y[idx_in], u[idx_in], v[idx_in] = x1, y1, u1, v1
                n_wedge += int(idx_in.size)
                moved.append(idx_in)
        if not moved:
            clean = True
            break
        active = np.unique(np.concatenate(moved))
    if not clean and active is not None and active.size:
        n_clamped = wb._clamp_subset(parts, active)
    n_removed = 0
    if wb.has_outlet:
        exited = np.flatnonzero(parts.x >= wb.domain.width)
        caught.append(exited)
        n_removed = int(exited.size)
        if n_removed:
            removed = parts.remove_inplace(exited)
            reservoir.deposit(streams, removed)
    n_injected = 0
    reset = False
    if wb.has_inlet:
        wb.plunger.position += wb.plunger.speed
        if wb.plunger.position >= wb.plunger.trigger:
            fresh = wb.plunger_inflow(reservoir, streams, parts.rotational_dof)
            if fresh is not None:
                n_injected = fresh.n
                parts.append_inplace(fresh)
            wb.plunger.position = 0.0
            reset = True
    assign_cells(parts, wb.domain)
    stats = BoundaryStats(n_walls, n_wedge, n_removed, n_injected, n_clamped,
                          reset)
    return parts, stats, np.unique(np.concatenate([np.empty(0, int), *caught]))


def _specials(body, domain, xp):
    """Coordinates on every face and edge, infinities, NaN, far away."""
    xs = [0.0, xp, np.nextafter(xp, -1.0), domain.width,
          np.nextafter(domain.width, 0.0), -1e300, 1e300, 1e19, 2.0**32 + 5,
          -1e10, -7.5, 40.0]
    ys = [0.0, domain.height, np.nextafter(domain.height, 99.0), -0.0,
          -1e300, 1e300, 2.0**32 + 5, -1e10, -3.0, 25.0]
    if body is not None:
        x0, x1, y0, y1 = body.bounds
        xs += [x0, x1, np.nextafter(x0, 99.0), np.nextafter(x1, 0.0)]
        ys += [y0, y1, np.nextafter(y1, 0.0), np.nextafter(y0, 99.0)]
    odd = [np.inf, -np.inf, np.nan]
    return xs + odd, ys + odd


@st.composite
def scenarios(draw):
    body_name = draw(st.sampled_from(sorted(BODIES)))
    body = BODIES[body_name]
    domain = draw(st.sampled_from([Domain(NX, NY), Domain3D(NX, NY, 3)]))
    trigger = draw(st.sampled_from([0.5, 2.0, 3.7]))
    position = draw(st.floats(0.0, trigger))
    xs, ys = _specials(body, domain, position)
    points = draw(st.lists(
        st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=24,
    ))
    return {
        "body": body,
        "domain": domain,
        "walls": WALLS[draw(st.sampled_from(sorted(WALLS)))],
        "has_inlet": draw(st.booleans()),
        "has_outlet": draw(st.booleans()),
        "trigger": trigger,
        "position": position,
        "points": points,
        "n": draw(st.integers(0, 300)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _build(sc):
    """A fresh boundaries object, scratch population, reservoir, stream."""
    domain = sc["domain"]
    wb = WindTunnelBoundaries(
        domain, FS, wedge=sc["body"], plunger_trigger=sc["trigger"],
        has_inlet=sc["has_inlet"], has_outlet=sc["has_outlet"], **sc["walls"],
    )
    wb.plunger.position = sc["position"]
    rng = np.random.default_rng(sc["seed"])
    n = sc["n"] + len(sc["points"])
    parts = ParticleArrays.from_freestream(
        rng, n, FS, (-2.0, NX + 2.0), (-2.0, NY + 2.0)
    )
    # Moves of up to a few cells carry rows across every face.
    parts.u[:] = rng.normal(0.0, 1.5, n)
    parts.v[:] = rng.normal(0.0, 1.5, n)
    for row, (x, y) in enumerate(sc["points"]):
        parts.x[row], parts.y[row] = x, y
    if domain.has_span:
        parts.z[:] = rng.uniform(0.0, domain.depth, n)
    parts.enable_scratch()
    reservoir = Reservoir(FS)
    reservoir.particles.enable_scratch()
    reservoir.deposit(rng, 40)
    if isinstance(sc["body"], Wedge) and not domain.has_span:
        wb.surface_sampler = SurfaceSampler(sc["body"])
    return wb, parts, reservoir, np.random.default_rng(sc["seed"] + 1)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_every_caught_row_sits_in_an_edge_cell(sc):
    wb, parts, reservoir, rng = _build(sc)
    with np.errstate(all="ignore"):
        cells = parts.copy()
        assign_cells(cells, wb.domain)
        _, _, caught = full_scan_rebuilding(wb, parts, reservoir, rng)
    assert wb.edge_cells[cells.cell[caught]].all()


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_edge_cell_pass_equals_the_full_scan(sc):
    wb, parts, reservoir, rng = _build(sc)
    ref_wb, ref_parts, ref_res, ref_rng = _build(sc)
    with np.errstate(all="ignore"):
        _, stats = wb.apply_rebuilding(parts, reservoir, rng)
        _, ref_stats, _ = full_scan_rebuilding(ref_wb, ref_parts, ref_res,
                                               ref_rng)
    assert stats == ref_stats
    assert wb.plunger.position == ref_wb.plunger.position
    for name in COLUMN_NAMES:
        assert _same_bits(getattr(parts, name), getattr(ref_parts, name)), name
        assert _same_bits(
            getattr(reservoir.particles, name),
            getattr(ref_res.particles, name),
        ), f"reservoir {name}"
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if wb.surface_sampler is not None:
        for name in SURFACE_FIELDS:
            assert _same_bits(
                getattr(wb.surface_sampler, name),
                getattr(ref_wb.surface_sampler, name),
            ), f"surface {name}"
