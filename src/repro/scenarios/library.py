"""The built-in scenario library.

Six registered scenarios: the paper's seed wedge plus five beyond it --
a collisionless flat plate, a blunt body (cylinder), a channel
constriction with sudden expansion (forward step), an unsteady
impulsive start (per Bogdanov et al.'s time-resolved DSMC runs), and
the z-periodic 3-D wedge prism.  Each carries an acceptance contract:
closed-form comparisons against :mod:`repro.physics.theory` where one
exists, committed golden observables (``scenarios/golden/*.json``)
otherwise.

Band coordinates in checks index the *validation-scale* field (the
grid after ``validation.overrides``); the golden regenerator and the
validator always run at that scale.
"""

from __future__ import annotations

from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec

#: The seed experiment: Mach 4 over the paper's 30-degree wedge.  The
#: geometry is grid-derived ("paper" placement: x_leading = nx/4.9,
#: base = nx/3.92) exactly as the legacy ``wedge`` CLI wired it, which
#: is what keeps ``repro run wedge`` bitwise identical to the pre-
#: registry ``repro wedge`` at every grid size.  Validation runs the
#: half-scale grid (the full 98x64 is the CLI default, not the CI
#: fixture).
WEDGE = register(
    ScenarioSpec(
        name="wedge",
        title="Mach 4 / 30 deg wedge (the paper's validation case)",
        description=(
            "Near-continuum Mach 4 flow over the 30-degree wedge: "
            "attached oblique shock, Prandtl-Meyer corner expansion, "
            "wake recompression (figures 1-6 of the paper)."
        ),
        geometry={"kind": "wedge", "placement": "paper", "angle_deg": 30.0},
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.0,
            "density": 12.0,
        },
        grid={"nx": 98, "ny": 64},
        schedule={"transient": 350, "average": 350},
        seed=1989,
        tags=("seed", "steady", "closed-form"),
        validation={
            "overrides": {
                "nx": 49,
                "ny": 32,
                "density": 10.0,
                "transient": 180,
                "average": 200,
            },
            "checks": [
                {
                    "name": "shock_angle_deg",
                    "kind": "shock_angle",
                    "expect": "theory:shock_angle",
                    "rel_tol": 0.08,
                },
                {
                    "name": "plateau_density_ratio",
                    "kind": "plateau_density_ratio",
                    "expect": "theory:density_ratio",
                    "rel_tol": 0.12,
                },
                {
                    # The plunger refill cadence leaves the inlet band
                    # a few percent under freestream (measured ~0.95);
                    # the check guards against gross inflow breakage,
                    # not that bias.
                    "name": "upstream_unity",
                    "kind": "band_mean",
                    "x": [2, 8],
                    "y": [2, 28],
                    "expect": "const",
                    "value": 1.0,
                    "abs_tol": 0.10,
                },
            ],
        },
    )
)

#: The free-molecular bracket: an inclined flat plate with collisions
#: switched off (lambda >> domain).  The exact kinetic-theory pressure
#: on a specular plate validates motion + boundary machinery without
#: the collision operator (the opposite limit from the seed wedge).
FLAT_PLATE = register(
    ScenarioSpec(
        name="flat_plate",
        title="Free-molecular inclined flat plate (collisionless)",
        description=(
            "Kn -> infinity flow over the 30-degree inclined plate: no "
            "shock forms, the region over the ramp is a two-stream "
            "overlap, and the exact collisionless specular-plate "
            "pressure formula pins the surface load."
        ),
        geometry={
            "kind": "wedge",
            "x_leading": 10.0,
            "base": 12.5,
            "angle_deg": 30.0,
        },
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 1.0e9,
            "density": 14.0,
        },
        grid={"nx": 49, "ny": 32},
        schedule={"transient": 180, "average": 220},
        seed=8,
        tags=("steady", "free-molecular", "closed-form"),
        validation={
            "checks": [
                {
                    "name": "ramp_pressure_ratio",
                    "kind": "ramp_pressure_ratio",
                    "expect": "theory:free_molecular_pressure",
                    "rel_tol": 0.10,
                },
                {
                    "name": "upstream_unity",
                    "kind": "band_mean",
                    "x": [2, 8],
                    "y": [2, 28],
                    "expect": "const",
                    "value": 1.0,
                    "abs_tol": 0.08,
                },
                {
                    "name": "two_stream_overlap",
                    "kind": "band_mean",
                    "x": [14, 22],
                    "y": [6, 12],
                    "expect": "const",
                    "value": 2.0,
                    "abs_tol": 0.5,
                },
            ],
        },
    )
)

#: Blunt body: Mach 4 past a circular cylinder.  The shock detaches
#: into a bow shock -- the regime the theta-beta-M metrology cannot
#: reach -- so validation is against committed golden observables
#: (stagnation compression, wake expansion, upstream cleanliness).
CYLINDER = register(
    ScenarioSpec(
        name="cylinder",
        title="Mach 4 blunt body (cylinder, detached bow shock)",
        description=(
            "Rarefied Mach 4 flow past a circular cylinder at mid "
            "height: detached bow shock ahead of the body, stagnation "
            "compression, low-density expansion wake behind."
        ),
        geometry={"kind": "cylinder", "cx": 20.0, "cy": 16.0, "radius": 6.0},
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.5,
            "density": 10.0,
        },
        grid={"nx": 60, "ny": 32},
        schedule={"transient": 200, "average": 200},
        seed=11,
        tags=("steady", "blunt-body", "golden"),
        validation={
            "golden": "cylinder.json",
            "checks": [
                {
                    "name": "stagnation_band",
                    "kind": "band_mean",
                    "x": [11, 14],
                    "y": [13, 19],
                    "expect": "golden",
                },
                {
                    "name": "wake_band",
                    "kind": "band_mean",
                    "x": [30, 44],
                    "y": [12, 20],
                    "expect": "golden",
                },
                {
                    "name": "peak_compression",
                    "kind": "field_max",
                    "expect": "golden",
                },
                {
                    "name": "upstream_unity",
                    "kind": "band_mean",
                    "x": [2, 8],
                    "y": [4, 28],
                    "expect": "const",
                    "value": 1.0,
                    "abs_tol": 0.10,
                },
            ],
        },
    )
)

#: Channel constriction + sudden expansion: a forward-facing step on
#: the tunnel floor.  The cross-section contracts over the block (a
#: detached shock stands ahead of the vertical face) and re-expands off
#: the top-back corner into a low-density wake -- the channel/nozzle-
#: expansion flow of the scenario roadmap.
CHANNEL = register(
    ScenarioSpec(
        name="channel",
        title="Channel constriction with sudden expansion (forward step)",
        description=(
            "Mach 4 flow into a forward-facing step: compression ahead "
            "of the face, accelerated flow through the constriction "
            "above the block, expansion into the wake behind it."
        ),
        geometry={"kind": "step", "x_leading": 18.0, "height": 10.0,
                  "length": 14.0},
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.5,
            "density": 10.0,
        },
        grid={"nx": 64, "ny": 32},
        schedule={"transient": 200, "average": 200},
        seed=23,
        tags=("steady", "channel", "golden"),
        validation={
            "golden": "channel.json",
            "checks": [
                {
                    "name": "compression_band",
                    "kind": "band_mean",
                    "x": [12, 17],
                    "y": [0, 10],
                    "expect": "golden",
                },
                {
                    "name": "throat_band",
                    "kind": "band_mean",
                    "x": [20, 30],
                    "y": [14, 28],
                    "expect": "golden",
                },
                {
                    "name": "wake_band",
                    "kind": "band_mean",
                    "x": [36, 52],
                    "y": [0, 10],
                    "expect": "golden",
                },
                {
                    "name": "upstream_unity",
                    "kind": "band_mean",
                    "x": [2, 6],
                    "y": [2, 30],
                    "expect": "const",
                    "value": 1.0,
                    "abs_tol": 0.10,
                },
            ],
        },
    )
)

#: Unsteady impulsive start (per Bogdanov et al.): the freestream
#: switches on at t = 0 over the quickstart wedge and the run samples
#: consecutive time windows, each a fresh average.  The golden
#: observables pin the shock layer *establishing itself* (early windows
#: below the steady compression, late windows at it) and the wake
#: draining from freestream toward its steady deficit.
IMPULSIVE_START = register(
    ScenarioSpec(
        name="impulsive_start",
        title="Impulsive start over the wedge (unsteady windows)",
        description=(
            "Time-resolved startup: uniform freestream at t = 0, then "
            "four consecutive 45-step sampling windows watch the "
            "oblique shock and corner expansion establish themselves."
        ),
        geometry={
            "kind": "wedge",
            "x_leading": 10.0,
            "base": 12.5,
            "angle_deg": 30.0,
        },
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.0,
            "density": 12.0,
        },
        grid={"nx": 49, "ny": 32},
        schedule={"transient": 60, "average": 120},
        seed=31,
        unsteady={"windows": 4, "window_steps": 45},
        tags=("unsteady", "golden"),
        validation={
            "golden": "impulsive_start.json",
            "checks": [
                {
                    "name": "layer_window0",
                    "kind": "band_mean",
                    "x": [10, 22],
                    "y": [6, 14],
                    "window": 0,
                    "expect": "golden",
                },
                {
                    "name": "layer_window3",
                    "kind": "band_mean",
                    "x": [10, 22],
                    "y": [6, 14],
                    "window": 3,
                    "expect": "golden",
                },
                {
                    "name": "wake_window0",
                    "kind": "band_mean",
                    "x": [30, 45],
                    "y": [0, 8],
                    "window": 0,
                    "expect": "golden",
                },
                {
                    "name": "wake_window3",
                    "kind": "band_mean",
                    "x": [30, 45],
                    "y": [0, 8],
                    "window": 3,
                    "expect": "golden",
                },
            ],
        },
    )
)

#: The z-periodic 3-D slab (the Future Work extension, a ``Domain3D``
#: run of the one driver): the wedge extruded to a prism.
#: Span-collapsing the 3-D field must reproduce the 2-D oblique-shock
#: solution, so the closed-form checks apply -- with wider tolerances,
#: as the per-cell population is thinner in 3-D.  The shock fit needs
#: four of the five usable ramp columns at this scale and one of them
#: is marginal (~2.5 sigma above the crossing level), so about one
#: realization in forty yields no fit; the pinned seed is not one.
WEDGE3D = register(
    ScenarioSpec(
        name="wedge3d",
        title="3-D wedge prism (z-periodic slab)",
        description=(
            "Mach 4 over the wedge extruded spanwise with periodic z: "
            "the span-collapsed density field reproduces the 2-D "
            "oblique shock (the built-in 3-D validation)."
        ),
        geometry={
            "kind": "wedge",
            "x_leading": 8.0,
            "base": 10.0,
            "angle_deg": 30.0,
        },
        freestream={
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.0,
            "density": 3.0,
        },
        grid={"nx": 40, "ny": 26, "nz": 4},
        schedule={"transient": 150, "average": 150},
        seed=11,
        tags=("steady", "3d", "closed-form"),
        validation={
            "checks": [
                {
                    "name": "shock_angle_deg",
                    "kind": "shock_angle",
                    "expect": "theory:shock_angle",
                    "rel_tol": 0.12,
                },
                {
                    # ~3 particles/cell under-resolves the thin shock
                    # layer (measured 3.1-3.4 vs 3.7 across seeds); the
                    # 2-D/3-D consistency test pins the tighter bound.
                    "name": "plateau_density_ratio",
                    "kind": "plateau_density_ratio",
                    "expect": "theory:density_ratio",
                    "rel_tol": 0.22,
                },
            ],
        },
    )
)
