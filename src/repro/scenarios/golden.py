"""The shared scenario-validation harness (golden + closed-form).

Every registered scenario carries an acceptance contract in
``spec.validation``:

``checks``
    A list of observable checks.  Each has a ``name``, a ``kind``
    (how the number is measured from the run) and an ``expect``
    (where the reference value comes from):

    kinds
        * ``shock_angle`` -- least-squares fitted oblique-shock angle
          above the wedge ramp (degrees);
        * ``plateau_density_ratio`` -- mean density ratio in the shock
          layer;
        * ``ramp_pressure_ratio`` -- mean ramp surface pressure over
          the freestream static pressure;
        * ``band_mean`` -- mean density ratio over a rectangular cell
          band ``x = [lo, hi)``, ``y = [lo, hi)`` (field indices);
        * ``field_max`` -- peak density ratio anywhere in the field.

        Unsteady scenarios tag band checks with a ``window`` index;
        each window is a fresh time average, so the checks pin the
        *evolution* of the flow, not just its end state.

    expects
        * ``theory:shock_angle`` -- theta-beta-M oblique-shock angle;
        * ``theory:density_ratio`` -- Rankine-Hugoniot density ratio;
        * ``theory:surface_pressure`` -- oblique-shock ramp pressure;
        * ``theory:free_molecular_pressure`` -- exact collisionless
          specular-plate pressure;
        * ``const`` -- a literal reference (``value`` key);
        * ``golden`` -- the committed golden file carries the value
          and tolerance.

    Closed-form/const checks carry their own ``rel_tol``/``abs_tol``.

``golden``
    File name under ``repro/scenarios/golden/`` holding the golden
    observables for the ``expect = "golden"`` checks.  Golden values
    are the cross-replica mean at the scenario's validation scale and
    the tolerance is floored at 3x the worst cross-replica deviation,
    so a correct run at the pinned seed passes with margin while a
    physics regression beyond run-to-run noise fails (see
    :func:`regenerate_golden` and ``docs/scenarios.md``).

``overrides``
    Optional reduced-scale overrides (grid, density, schedule) applied
    for validation runs, keeping the CI matrix seconds-per-scenario.

One run path serves every caller: :func:`execute` builds the run
(:meth:`ScenarioSpec.build_simulation`, one block or R replica blocks),
runs its schedule and harvests one :class:`ScenarioRun` per block; and
one check rule judges them -- the mean of the blocks' measurements
against the check's own tolerance, with the t-interval half-width
reported alongside for R >= 2 (:func:`validate_scenario`).

Regenerate golden files after an intentional physics change with::

    PYTHONPATH=src python -m repro.scenarios <name> [--seeds N]
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.sampling import CellSampler, ensemble_statistic
from repro.core.simulation import SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.scenarios.spec import ScenarioSpec
from repro.verify import state_digest

#: Directory of committed golden-observable files (package data).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Tolerance floors for regenerated golden observables: never tighter
#: than 3% of the value (absolute floor 0.03), never tighter than 3x
#: the worst cross-replica deviation actually measured.
GOLDEN_REL_FLOOR = 0.03
GOLDEN_ABS_FLOOR = 0.03
GOLDEN_SPREAD_FACTOR = 3.0

CHECK_KINDS = (
    "shock_angle",
    "plateau_density_ratio",
    "ramp_pressure_ratio",
    "band_mean",
    "field_max",
)

THEORY_EXPECTS = (
    "theory:shock_angle",
    "theory:density_ratio",
    "theory:surface_pressure",
    "theory:free_molecular_pressure",
)


@dataclass(frozen=True)
class ScenarioRun:
    """One block's harvest of a finished scenario run."""

    #: The scenario (``None`` for a run resumed from its checkpoint).
    spec: Optional[ScenarioSpec]
    #: The configuration actually run (post-overrides).
    config: SimulationConfig
    #: Time-averaged density-ratio fields, one per sampling window
    #: (steady scenarios have exactly one).
    fields: List[np.ndarray]
    #: This block's accumulators (of the last window).
    sampler: CellSampler
    #: Mean ramp pressure / freestream static pressure (wedge runs).
    ramp_pressure_ratio: Optional[float]
    #: Flow particles the block was seeded with (``None`` when the
    #: harvest did not see the run start).
    n_seeded: Optional[int] = None
    #: :func:`repro.verify.state_digest` of the whole run (every block).
    state_digest: Optional[str] = None

    @property
    def body(self) -> Any:
        """Body object actually simulated."""
        return self.config.wedge

    @property
    def mach(self) -> float:
        """Freestream Mach number of the run."""
        return self.config.freestream.mach

    @property
    def gamma(self) -> float:
        """Freestream ratio of specific heats of the run."""
        return self.config.freestream.gamma


@dataclass(frozen=True)
class CheckResult:
    """One observable check's outcome.

    ``value`` is the mean of the blocks' measurements; ``ci`` is the
    t-interval half-width of that mean over R >= 2 blocks (``None`` for
    one block).  Either way ``ok`` is ``|value - expected| <= tol``.
    """

    name: str
    kind: str
    expect: str
    value: float
    expected: float
    tol: float
    tol_kind: str  # "rel" | "abs"
    ok: bool
    ci: Optional[float] = None


@dataclass(frozen=True)
class ValidationReport:
    """Every check of one scenario, plus the run parameters used."""

    scenario: str
    results: List[CheckResult] = field(default_factory=list)
    #: Blocks the values average over, and the level of their CIs.
    replicas: int = 1
    confidence: float = 0.95

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        """Human-readable per-check report (printed by ``--validate``)."""
        head = f"scenario {self.scenario}: {'PASS' if self.ok else 'FAIL'}"
        if self.replicas > 1:
            head += (
                f" (mean of {self.replicas} replicas, "
                f"{100 * self.confidence:g}% CI)"
            )
        lines = [head]
        for r in self.results:
            mark = "ok " if r.ok else "FAIL"
            tol = f"{r.tol_kind} {r.tol:.3g}"
            ci = "" if r.ci is None else f"  ci +/-{r.ci:.3g}"
            lines.append(
                f"  [{mark}] {r.name:<28s} {r.value:10.4f}  "
                f"expected {r.expected:10.4f}  ({r.expect}, {tol}){ci}"
            )
        return "\n".join(lines)


# -- running ------------------------------------------------------------


def execute(
    spec: Optional[ScenarioSpec],
    overrides: Optional[Mapping] = None,
    *,
    replicas: Optional[int] = None,
    backend=None,
    telemetry=None,
    supervise: Optional[Mapping] = None,
    on_chunk: Optional[Callable[[Any], None]] = None,
) -> List[ScenarioRun]:
    """Build a scenario's run, run its schedule, harvest every block.

    The one path from a scenario to an answer: the run is
    :meth:`ScenarioSpec.build_simulation` (``replicas=R`` makes R
    replica blocks; ``backend``/``telemetry`` pass through), and the
    result is one :class:`ScenarioRun` per block (:func:`harvest`).

    The schedule is the spec's ``unsteady`` windows -- each a fresh
    time average after ``sampler.reset()`` -- when ``overrides`` set no
    ``transient``/``average``; otherwise ``transient`` unsampled then
    ``average`` sampled steps (after overrides).

    ``supervise`` runs that schedule under
    :class:`repro.resilience.SupervisedRun`, with its keyword arguments
    (``run_dir``, ``checkpoint_every``, ``audit_every``, ...).  A fresh
    run records its schedule in ``run.json`` before its first step;
    ``spec=None`` instead resumes the run whose ``run.json`` is in
    ``run_dir`` (the other keys replace its stored knobs, ``overrides``
    and ``replicas`` do not apply, ``telemetry`` is attached).  The run
    steps in chunks that end on its checkpoint cadence, and
    ``on_chunk(run)`` is called before each chunk and once at the end.
    """
    ov = dict(overrides or {})
    windowed = spec is not None and spec.unsteady is not None and not (
        {"transient", "average"} & set(ov)
    )
    if windowed and supervise is not None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: a supervised run takes a transient "
            "+ average schedule; pass transient/average overrides"
        )
    build = {"replicas": replicas, "backend": backend, "telemetry": telemetry}
    if supervise is not None:
        return _execute_supervised(spec, ov, build, dict(supervise), on_chunk)
    sim = spec.build_simulation(ov, **build)
    seeded = [block.n for block in sim.particles.blocks()]
    with sim:
        if not windowed:
            for n_steps, sample in _phases(spec, ov):
                sim.run(n_steps, sample=sample)
            return harvest(sim, spec, n_seeded=seeded)
        fields: List[List[np.ndarray]] = [[] for _ in seeded]
        for _ in range(int(spec.unsteady["windows"])):
            sim.sampler.reset()
            sim.run(int(spec.unsteady["window_steps"]), sample=True)
            for per_block, rho in zip(fields, _block_fields(sim)):
                per_block.append(rho)
        return harvest(sim, spec, fields=fields, n_seeded=seeded)


def _execute_supervised(spec, ov, build, supervise, on_chunk):
    """:func:`execute` under :class:`SupervisedRun`, fresh or resumed."""
    from repro.resilience import SupervisedRun

    seeded = None
    if spec is None:
        run = SupervisedRun.resume(supervise.pop("run_dir"), **supervise)
        run.attach_telemetry(build["telemetry"])
    else:
        sim = spec.build_simulation(ov, **build)
        seeded = [block.n for block in sim.particles.blocks()]
        try:
            run = SupervisedRun(sim, **supervise)
        except BaseException:
            sim.close()
            raise
        run.record_schedule(_phases(spec, ov))
    with run:
        end, chunk = run.schedule_end, run.checkpoint_every
        while True:
            if on_chunk is not None:
                on_chunk(run)
            step = run.sim.step_count
            if step >= end:
                break
            run.run_schedule(max_steps=chunk - step % chunk if chunk else None)
        # Recovery may have replaced the simulation: harvest run.sim.
        return harvest(run.sim, spec, n_seeded=seeded)


def _phases(spec: ScenarioSpec, overrides: Mapping) -> list:
    """``(steps, sample)`` phases of the transient + average schedule."""
    transient, average = spec.resolve_schedule(overrides)
    return [(n, s) for n, s in ((transient, False), (average, True)) if n]


def _block_fields(sim, samplers=None) -> List[np.ndarray]:
    """Each block's time-averaged density-ratio field."""
    density = sim.config.freestream.density
    return [
        s.density_ratio(density)
        for s in (samplers or sim.sampler.blocks())
    ]


def harvest(
    sim,
    spec: Optional[ScenarioSpec] = None,
    fields: Optional[List[List[np.ndarray]]] = None,
    n_seeded: Optional[List[int]] = None,
) -> List[ScenarioRun]:
    """One :class:`ScenarioRun` per block of a finished run.

    Reads ``sim.sampler.blocks()`` and ``sim.surfaces`` -- the same for
    one block or R, fresh or resumed -- after the run's
    :func:`~repro.verify.state_digest`, which gathers a sharded run.
    ``fields`` (per block, per window) replaces the one end-of-run field
    of each block when the caller sampled in windows.
    """
    digest = state_digest(sim)
    samplers = sim.sampler.blocks()
    if fields is None:
        fields = [[rho] for rho in _block_fields(sim, samplers)]
    fs = sim.config.freestream
    p_inf = fs.density * fs.rt
    ramps = [
        float(surf.ramp_pressure()[2:-2].mean() / p_inf)
        if surf.steps > 0
        else None
        for surf in sim.surfaces
    ] or [None] * len(samplers)
    return [
        ScenarioRun(
            spec=spec,
            config=sim.config,
            fields=fields[b],
            sampler=samplers[b],
            ramp_pressure_ratio=ramps[b],
            n_seeded=None if n_seeded is None else n_seeded[b],
            state_digest=digest,
        )
        for b in range(len(samplers))
    ]


def validation_overrides(
    spec: ScenarioSpec,
    overrides: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The validation-scale overrides: ``spec.validation["overrides"]``,
    then caller ``overrides``, then ``seed``."""
    ov: Dict[str, Any] = dict(spec.validation.get("overrides", {}))
    if overrides:
        ov.update(overrides)
    if seed is not None:
        ov["seed"] = int(seed)
    return ov


def run_scenario(
    spec: ScenarioSpec,
    overrides: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> ScenarioRun:
    """Run a scenario at validation scale and harvest its observables.

    :func:`execute` of one block under :func:`validation_overrides`.
    """
    return execute(spec, validation_overrides(spec, overrides, seed))[0]


# -- measuring ----------------------------------------------------------


def measure_check(run: ScenarioRun, check: Mapping[str, Any]) -> float:
    """Evaluate one check's observable on a finished run."""
    kind = check["kind"]
    if kind not in CHECK_KINDS:
        raise ConfigurationError(
            f"unknown check kind {kind!r}; expected one of {CHECK_KINDS}"
        )
    window = int(check.get("window", 0))
    if not 0 <= window < len(run.fields):
        raise ConfigurationError(
            f"check {check['name']!r}: window {window} out of range "
            f"(run produced {len(run.fields)} fields)"
        )
    rho = run.fields[window]
    if kind == "band_mean":
        try:
            x_lo, x_hi = (int(v) for v in check["x"])
            y_lo, y_hi = (int(v) for v in check["y"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"check {check['name']!r}: band_mean needs x = [lo, hi] "
                "and y = [lo, hi] integer cell ranges"
            ) from None
        band = rho[x_lo:x_hi, y_lo:y_hi]
        if band.size == 0:
            raise ConfigurationError(
                f"check {check['name']!r}: empty band "
                f"x=[{x_lo},{x_hi}) y=[{y_lo},{y_hi}) on a "
                f"{rho.shape} field"
            )
        return float(band.mean())
    if kind == "field_max":
        return float(rho.max())
    if kind == "ramp_pressure_ratio":
        if run.ramp_pressure_ratio is None:
            raise ConfigurationError(
                f"check {check['name']!r}: no surface sampler on this "
                "run (ramp_pressure_ratio needs a 2-D wedge scenario)"
            )
        return run.ramp_pressure_ratio
    # Shock metrology: wedge-only.
    if not isinstance(run.body, Wedge):
        raise ConfigurationError(
            f"check {check['name']!r}: {kind} requires wedge geometry"
        )
    from repro.analysis.shock import fit_shock_angle, post_shock_plateau

    fit = fit_shock_angle(rho, run.body)
    if kind == "shock_angle":
        return float(fit.angle_deg)
    return float(post_shock_plateau(rho, run.body, fit))


def expected_value(run: ScenarioRun, check: Mapping[str, Any]) -> float:
    """Closed-form / const reference value for a non-golden check."""
    expect = check["expect"]
    if expect == "const":
        return float(check["value"])
    body = run.body
    if expect == "theory:shock_angle":
        return float(theory.shock_angle_deg(run.mach, body.angle_deg))
    if expect == "theory:density_ratio":
        return float(
            theory.oblique_shock_density_ratio(
                run.mach, math.radians(body.angle_deg)
            )
        )
    if expect == "theory:surface_pressure":
        from repro.core.surface import oblique_shock_surface_pressure_ratio

        return float(
            oblique_shock_surface_pressure_ratio(
                run.mach, body.angle_deg, run.gamma
            )
        )
    if expect == "theory:free_molecular_pressure":
        return float(
            theory.free_molecular_specular_pressure_ratio(
                run.mach, body.angle, run.gamma
            )
        )
    raise ConfigurationError(
        f"check {check['name']!r}: unknown expect {expect!r}; valid: "
        f"{THEORY_EXPECTS + ('const', 'golden')}"
    )


# -- golden files -------------------------------------------------------


def golden_path(spec: ScenarioSpec) -> Optional[pathlib.Path]:
    """Path of the scenario's golden file (None when it has none)."""
    fname = spec.validation.get("golden")
    return None if fname is None else GOLDEN_DIR / fname


def load_golden(spec: ScenarioSpec) -> Dict[str, Any]:
    """Parse the scenario's committed golden file (errors if absent)."""
    path = golden_path(spec)
    if path is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no golden file but has "
            "golden-expecting checks"
        )
    if not path.exists():
        raise ConfigurationError(
            f"scenario {spec.name!r}: golden file {path.name} is missing; "
            "regenerate with: python -m repro.scenarios " + spec.name
        )
    return json.loads(path.read_text())


def validate_contract(spec: ScenarioSpec) -> None:
    """Statically verify the scenario's acceptance contract.

    Raises unless every check has a known kind, a resolvable expect,
    a tolerance, and -- for golden expects -- a committed golden entry.
    The registry-completeness test runs this over the whole library, so
    a scenario without validation fails CI, not review.
    """
    golden_names = None
    for check in spec.validation["checks"]:
        name = check.get("name")
        if check["kind"] not in CHECK_KINDS:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: unknown kind "
                f"{check['kind']!r}"
            )
        expect = check["expect"]
        if expect == "golden":
            if golden_names is None:
                golden_names = set(load_golden(spec)["observables"])
            if name not in golden_names:
                raise ConfigurationError(
                    f"scenario {spec.name!r} check {name!r}: not present "
                    f"in golden file {spec.validation['golden']!r}; "
                    "regenerate it"
                )
            continue
        if expect != "const" and expect not in THEORY_EXPECTS:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: unknown expect "
                f"{expect!r}"
            )
        if expect == "const" and "value" not in check:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: const expects "
                "need a 'value'"
            )
        if "rel_tol" not in check and "abs_tol" not in check:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: closed-form "
                "checks need rel_tol or abs_tol"
            )


# -- validating ---------------------------------------------------------


def validate_scenario(
    spec: ScenarioSpec,
    overrides: Optional[Mapping] = None,
    run: Optional[ScenarioRun] = None,
    replicas: Optional[int] = None,
    confidence: float = 0.95,
) -> ValidationReport:
    """Run the scenario and check every observable against its reference.

    Returns the full report (pass/fail per check); raise-on-fail is the
    caller's choice via :meth:`ValidationReport.ok`.

    One rule for one block or R: the run is ``run`` when given, else
    :func:`execute` at validation scale -- one block, or R replica
    blocks of one engine with ``replicas=R``.  Each check's value is the
    mean of the blocks' measurements and passes when it lies within the
    check's own tolerance of the reference (``rel_tol``, ``abs_tol`` or
    the golden file's ``tol``).  For R >= 2 the report adds the
    ``confidence`` t-interval half-width of that mean; it informs, it
    does not gate (validation scale carries known biases that a
    shrinking interval would exclude).  ``replicas=1`` is the point
    check on replica 0's realization.
    """
    validate_contract(spec)
    if run is not None and replicas is not None:
        raise ConfigurationError("pass either run= or replicas=, not both")
    if replicas is not None and replicas < 1:
        raise ConfigurationError("replicas must be >= 1")
    runs = (
        [run]
        if run is not None
        else execute(
            spec, validation_overrides(spec, overrides), replicas=replicas
        )
    )
    golden = None
    results = []
    for check in spec.validation["checks"]:
        stat = ensemble_statistic(
            [measure_check(r, check) for r in runs], confidence=confidence
        )
        value = stat.mean
        if check["expect"] == "golden":
            if golden is None:
                golden = load_golden(spec)
            entry = golden["observables"][check["name"]]
            expected = float(entry["value"])
            tol = float(entry["tol"])
            ok = abs(value - expected) <= tol
            tol_kind = "abs"
        elif "abs_tol" in check:
            expected = expected_value(runs[0], check)
            tol = float(check["abs_tol"])
            ok = abs(value - expected) <= tol
            tol_kind = "abs"
        else:
            expected = expected_value(runs[0], check)
            tol = float(check["rel_tol"])
            ok = abs(value - expected) <= tol * abs(expected)
            tol_kind = "rel"
        results.append(
            CheckResult(
                name=check["name"],
                kind=check["kind"],
                expect=check["expect"],
                value=value,
                expected=expected,
                tol=tol,
                tol_kind=tol_kind,
                ok=ok,
                ci=None if stat.n == 1 else (stat.hi - stat.lo) / 2.0,
            )
        )
    return ValidationReport(
        scenario=spec.name,
        results=results,
        replicas=len(runs),
        confidence=confidence,
    )


# -- golden regeneration ------------------------------------------------


def regenerate_golden(
    spec: ScenarioSpec,
    n_seeds: int = 3,
    write: bool = True,
) -> Dict[str, Any]:
    """Recompute a scenario's golden file from ``n_seeds`` replicas.

    Runs the scenario at validation scale as one engine of ``n_seeds``
    replica blocks (replica keys ``0..n_seeds-1`` of the pinned seed),
    records the cross-replica mean of every golden-expecting
    observable, and sets each tolerance to ``max(floors, 3x worst
    cross-replica deviation)`` -- wide enough that any correct
    realization passes with margin, tight enough that a physics change
    outside run-to-run noise fails.
    """
    golden_checks = [
        c for c in spec.validation["checks"] if c["expect"] == "golden"
    ]
    if not golden_checks:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no golden-expecting checks"
        )
    if n_seeds < 2:
        raise ConfigurationError("n_seeds must be >= 2 to measure spread")
    runs = execute(spec, validation_overrides(spec), replicas=n_seeds)
    observables = {}
    for check in golden_checks:
        arr = np.asarray([measure_check(run, check) for run in runs])
        mean = float(arr.mean())
        spread = float(np.abs(arr - mean).max())
        tol = max(
            GOLDEN_ABS_FLOOR,
            GOLDEN_REL_FLOOR * abs(mean),
            GOLDEN_SPREAD_FACTOR * spread,
        )
        observables[check["name"]] = {
            "value": round(mean, 6),
            "tol": round(tol, 6),
            "spread": round(spread, 6),
        }
    blob = {
        "scenario": spec.name,
        "generator": f"python -m repro.scenarios {spec.name}",
        "seed": spec.seed,
        "replica_ids": list(range(n_seeds)),
        "observables": observables,
    }
    if write:
        path = golden_path(spec)
        if path is None:
            raise ConfigurationError(
                f"scenario {spec.name!r} declares no validation.golden "
                "file name"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(blob, indent=2) + "\n")
    return blob
