"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``run`` -- run any registered scenario (``repro run --list``): the
  seed wedge, the free-molecular flat plate, the cylinder blunt body,
  the channel constriction, the unsteady impulsive start, the 3-D
  wedge prism.  ``--validate`` checks the scenario's golden /
  closed-form acceptance contract instead of running the schedule;
  ``--replicas R`` runs R replica blocks of one engine wherever a run
  goes (plain, supervised, resumed, validated) and reports each
  observable as mean +/- a t-confidence interval.
* ``wedge`` -- alias of ``run wedge`` (the Mach-4 wedge validation,
  figures 1-6 metrics), kept so existing scripts and docs never break.
* ``heatbath`` -- the collision-scheme comparison (Bird / Nanbu /
  McDonald-Baganoff) on a uniform relaxation workload.
* ``timing`` -- the figure-7 curve from the calibrated CM-2 timing
  model (optionally measured with the emulation engine).
* ``info`` -- version, configuration defaults and the paper constants.
* ``serve`` -- run the job orchestration service (``docs/service.md``);
  ``submit`` / ``status`` / ``cancel`` / ``fetch`` talk to it over HTTP;
  ``sweep`` expands a Mach x Kn x seed grid into one submission per
  grid point.
* ``watch`` -- live dashboard for one job (streamed step progress,
  us/particle sparkline, retries) or ``--fleet`` for the whole fleet.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

import numpy as np


def _add_infra_flags(p: argparse.ArgumentParser, default_dir: str) -> None:
    """Execution-infrastructure flags shared by ``run`` and ``wedge``."""
    p.add_argument("--workers", type=int, default=1,
                   help="shard the tunnel into N x-slabs stepped by N "
                        "worker processes, their edges rebalanced from "
                        "the shard loads every 10 steps (1 = serial "
                        "engine)")
    p.add_argument("--supervised", action="store_true",
                   help="run under the fault-tolerant supervisor "
                        "(periodic checkpoints, invariant audits, "
                        "automatic crash recovery)")
    p.add_argument("--checkpoint-every", type=int, default=50,
                   dest="checkpoint_every",
                   help="supervised mode: checkpoint cadence in steps")
    p.add_argument("--audit-every", type=int, default=50,
                   dest="audit_every",
                   help="supervised mode: invariant-audit cadence in steps")
    p.add_argument("--max-retries", type=int, default=3, dest="max_retries",
                   help="supervised mode: recoveries allowed before "
                        "giving up")
    p.add_argument("--run-dir", type=str, default=None, dest="run_dir",
                   help="supervised mode: checkpoint/journal directory "
                        f"(default {default_dir})")
    p.add_argument("--resume", type=str, default=None, metavar="DIR",
                   help="resume a supervised run from its run directory "
                        "and finish the stored schedule (ignores the "
                        "configuration flags)")
    p.add_argument("--telemetry", action="store_true",
                   help="record metrics/spans/events to a run directory "
                        "(events.jsonl, metrics.prom, trace.json)")
    p.add_argument("--telemetry-dir", type=str, default=None,
                   dest="telemetry_dir",
                   help="telemetry output directory (default: the "
                        f"supervised run dir, or {default_dir}-telemetry)")
    p.add_argument("--telemetry-port", type=int, default=None,
                   dest="telemetry_port", metavar="PORT",
                   help="serve live /metrics on this port (0 = ephemeral); "
                        "implies --telemetry")
    p.add_argument("--telemetry-every", type=int, default=10,
                   dest="telemetry_every",
                   help="steps between JSONL samples / .prom rewrites")
    p.add_argument("--live", action="store_true",
                   help="print a one-line telemetry status to stderr "
                        "while stepping; implies --telemetry")
    p.add_argument("--contours", action="store_true",
                   help="print ASCII density contours")
    p.add_argument("--save", type=str, default=None,
                   help="write the density field to this .npz path")
    p.add_argument("--vtk", type=str, default=None,
                   help="write density/temperature/Mach fields to this "
                        ".vtk path (ParaView)")


def _add_run_flags(p: argparse.ArgumentParser, default_dir: str) -> None:
    """The scenario-run flags of ``run`` and its ``wedge`` alias."""
    p.add_argument("--validate", action="store_true",
                   help="run the scenario's golden/closed-form validation "
                        "contract instead of the full schedule; exit 1 on "
                        "failure")
    p.add_argument("--steps", type=int, default=None,
                   help="smoke-run: sample for N steps total instead of "
                        "the scenario's transient+average schedule")
    p.add_argument("--nx", type=int, default=None,
                   help="override the scenario grid width")
    p.add_argument("--ny", type=int, default=None,
                   help="override the scenario grid height")
    p.add_argument("--mach", type=float, default=None)
    p.add_argument("--angle", type=float, default=None,
                   help="wedge angle override, deg (wedge scenarios only)")
    p.add_argument("--density", type=float, default=None,
                   help="particles per cell override")
    p.add_argument("--lambda-mfp", type=float, default=None,
                   dest="lambda_mfp",
                   help="freestream mean free path override, cells")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--transient", type=int, default=None,
                   help="override the transient step count")
    p.add_argument("--average", type=int, default=None,
                   help="override the averaging step count")
    p.add_argument("--replicas", type=int, default=None, metavar="R",
                   help="step R independent replicas as one replica-blocked "
                        "population (repro.ensemble) and report each "
                        "observable as mean +/- a t-confidence interval; "
                        "with --validate, check the replicas' mean against "
                        "each check's tolerance and report its CI")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="confidence level for --replicas intervals "
                        "(default 0.95)")
    _add_infra_flags(p, default_dir=default_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Dagum (1989): hypersonic rarefied flow "
            "particle simulation on the Connection Machine"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    r = sub.add_parser(
        "run",
        help="run a registered scenario (see --list)",
        description=(
            "Run a scenario from the registry.  Flags left unset take "
            "the scenario's declared defaults; see docs/scenarios.md "
            "for the spec schema and the validation contract."
        ),
    )
    r.add_argument("scenario", nargs="?", default=None,
                   help="registered scenario name (try --list)")
    r.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list registered scenarios and exit")
    _add_run_flags(r, default_dir="runs/<scenario>-<seed>")

    w = sub.add_parser(
        "wedge",
        help="run the Mach-4 wedge validation (alias of 'run wedge')",
    )
    w.set_defaults(scenario="wedge", list_scenarios=False)
    _add_run_flags(w, default_dir="runs/wedge-<seed>")

    h = sub.add_parser("heatbath", help="compare collision schemes")
    h.add_argument("--particles", type=int, default=20000)
    h.add_argument("--cells", type=int, default=200)
    h.add_argument("--steps", type=int, default=20)
    h.add_argument("--seed", type=int, default=3)

    t = sub.add_parser("timing", help="figure-7 timing curve")
    t.add_argument("--processors", type=int, default=32 * 1024)
    t.add_argument("--measure", action="store_true",
                   help="also run the emulation engine (scaled machine)")

    sub.add_parser("info", help="package and paper constants")

    s = sub.add_parser(
        "serve",
        help="run the job orchestration service (HTTP API)",
        description=(
            "Serve the crash-safe job orchestrator on 127.0.0.1.  Jobs "
            "are submitted over HTTP (repro submit), executed by worker "
            "processes under the fault-tolerant supervisor, and "
            "journaled so a restarted service resumes in-flight work.  "
            "SIGTERM drains running jobs to a checkpoint before exit.  "
            "See docs/service.md."
        ),
    )
    s.add_argument("--data-dir", type=str, default="runs/service",
                   dest="data_dir",
                   help="service journal + job directories "
                        "(default runs/service)")
    s.add_argument("--port", type=int, default=8787,
                   help="HTTP port (0 = ephemeral; printed on start)")
    s.add_argument("--workers", type=int, default=2,
                   help="concurrent worker processes")
    s.add_argument("--queue-limit", type=int, default=16,
                   dest="queue_limit",
                   help="queued jobs before submissions get 429")
    s.add_argument("--heartbeat-every", type=int, default=10,
                   dest="heartbeat_every",
                   help="worker chunk size in steps (heartbeat cadence)")
    s.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   dest="heartbeat_timeout",
                   help="seconds of worker silence before the watchdog "
                        "kills it")
    s.add_argument("--deadline", type=float, default=None,
                   help="default per-job wall-clock deadline, seconds")
    s.add_argument("--max-job-retries", type=int, default=2,
                   dest="max_job_retries",
                   help="job-level retries before FAILED")

    def _add_client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", type=str,
                       default="http://127.0.0.1:8787",
                       help="service endpoint")

    sj = sub.add_parser("submit", help="submit a job to the service")
    _add_client_flags(sj)
    sj.add_argument("scenario", help="registered scenario name")
    sj.add_argument("--seed", type=int, default=None)
    sj.add_argument("--nx", type=int, default=None)
    sj.add_argument("--ny", type=int, default=None)
    sj.add_argument("--mach", type=float, default=None)
    sj.add_argument("--angle", type=float, default=None)
    sj.add_argument("--density", type=float, default=None)
    sj.add_argument("--lambda-mfp", type=float, default=None,
                    dest="lambda_mfp")
    sj.add_argument("--transient", type=int, default=None)
    sj.add_argument("--average", type=int, default=None)
    sj.add_argument("--steps", type=int, default=None,
                    help="smoke-run: 0 transient + N averaging steps")
    sj.add_argument("--deadline", type=float, default=None,
                    help="per-job wall-clock deadline, seconds")
    sj.add_argument("--wait", action="store_true",
                    help="poll until the job reaches a terminal state; "
                         "exit 0 only on DONE")
    sj.add_argument("--timeout", type=float, default=600.0,
                    help="--wait limit, seconds")

    sw = sub.add_parser(
        "sweep",
        help="submit a mach x kn x seed grid of jobs to the service",
        description=(
            "Expand a parameter grid into individual job submissions "
            "through the service's normal submit path (dedup cache, "
            "backpressure and retries all apply per job).  Each axis "
            "flag takes one or more values; omitted axes use the "
            "scenario's defaults.  --kn values are freestream mean "
            "free paths in cell widths (the lambda_mfp override)."
        ),
    )
    _add_client_flags(sw)
    sw.add_argument("scenario", help="registered scenario name")
    sw.add_argument("--mach", type=float, nargs="+", default=None,
                    help="freestream Mach numbers to sweep")
    sw.add_argument("--kn", type=float, nargs="+", default=None,
                    help="freestream mean free paths (cells) to sweep")
    sw.add_argument("--seeds", type=int, nargs="+", default=None,
                    help="seeds to sweep (default: the scenario's seed)")
    sw.add_argument("--nx", type=int, default=None)
    sw.add_argument("--ny", type=int, default=None)
    sw.add_argument("--angle", type=float, default=None)
    sw.add_argument("--density", type=float, default=None)
    sw.add_argument("--transient", type=int, default=None)
    sw.add_argument("--average", type=int, default=None)
    sw.add_argument("--steps", type=int, default=None,
                    help="smoke-run: 0 transient + N averaging steps")
    sw.add_argument("--deadline", type=float, default=None,
                    help="per-job wall-clock deadline, seconds")

    st_ = sub.add_parser("status", help="show job status / list jobs")
    _add_client_flags(st_)
    st_.add_argument("job_id", nargs="?", default=None,
                     help="job id (omit to list all jobs)")

    ca = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_client_flags(ca)
    ca.add_argument("job_id")

    fe = sub.add_parser("fetch", help="fetch a DONE job's result")
    _add_client_flags(fe)
    fe.add_argument("job_id")
    fe.add_argument("--out", type=str, default=None,
                    help="write the result JSON here instead of stdout")

    wa = sub.add_parser(
        "watch",
        help="live dashboard for one job or the whole fleet",
        description=(
            "Follow a running job live (step progress, population, "
            "us/particle sparkline, retries) over the service's "
            "long-poll event route, or --fleet for a one-row-per-job "
            "fleet table from /fleet.  Exits 0 when the watched job "
            "finishes DONE (fleet view: when every job is terminal)."
        ),
    )
    _add_client_flags(wa)
    wa.add_argument("job_id", nargs="?", default=None,
                    help="job id to follow (omit with --fleet)")
    wa.add_argument("--fleet", action="store_true",
                    help="watch every job (one table row per job)")
    wa.add_argument("--interval", type=float, default=1.0,
                    help="fleet view refresh seconds (default 1)")
    wa.add_argument("--rounds", type=int, default=None,
                    help="stop after N refreshes even if still running "
                         "(useful in scripts/CI)")
    return parser


def _block_mean(arrays: list) -> np.ndarray:
    """One block's array as is, the mean over R blocks'."""
    return arrays[0] if len(arrays) == 1 else np.mean(arrays, axis=0)


def _run_report(runs, args: argparse.Namespace) -> int:
    """Print the validation metrics of a finished run's blocks.

    Everything is derived from the harvest (:class:`ScenarioRun`, not
    the CLI flags) so the same report serves fresh runs and
    ``--resume``-d ones, whose geometry lives in the checkpoint rather
    than the command line.  One block reports point values, R blocks
    mean +/- a t-confidence interval; the exported fields are the
    block mean.  Wedge bodies get the shock metrology; other bodies
    get field statistics (their quantitative contract lives in
    ``--validate``).
    """
    from repro.analysis.contour import render_ascii, save_field_npz
    from repro.analysis.shock import (
        fit_shock_angle,
        post_shock_plateau,
        shock_thickness,
        wake_floor_ridge,
    )
    from repro.core.sampling import ensemble_statistic
    from repro.errors import ReproError
    from repro.geometry.wedge import Wedge
    from repro.physics import theory

    def show(values) -> str:
        if len(values) == 1:
            return f"{values[0]:7.2f}"
        return str(ensemble_statistic(values, confidence=args.confidence))

    config = runs[0].config
    wedge = config.wedge
    mach = config.freestream.mach
    fields = [run.fields[-1] for run in runs]
    if isinstance(wedge, Wedge):
        beta = theory.shock_angle_deg(mach, wedge.angle_deg)
        ratio = theory.oblique_shock_density_ratio(
            mach, math.radians(wedge.angle_deg)
        )
        try:
            fits = [fit_shock_angle(rho, wedge) for rho in fields]
            plateaus = [
                post_shock_plateau(rho, wedge, fit)
                for rho, fit in zip(fields, fits)
            ]
            thick = [
                shock_thickness(rho, wedge, fit, plateau=plateau)
                for rho, fit, plateau in zip(fields, fits, plateaus)
            ]
            print(
                f"shock angle     : {show([f.angle_deg for f in fits])} "
                f"deg (theory {beta:.2f})"
            )
            print(f"density ratio   : {show(plateaus)}     "
                  f"(theory {ratio:.2f})")
            print(f"shock thickness : {show(thick)} cells")
        except ReproError as exc:
            print(
                f"shock metrology unavailable ({exc}); increase --density, "
                "--transient or --average"
            )
        try:
            ridges = [
                wake_floor_ridge(rho, wedge, config.domain) for rho in fields
            ]
            print(f"wake floor ridge: {show(ridges)}     "
                  "(> 1: wake shock present)")
        except ReproError:
            pass
    elif wedge is not None:
        print(f"peak compression: "
              f"{show([float(rho.max()) for rho in fields])} "
              "(freestream = 1)")
        floors = [
            float(rho[rho > 0].min()) for rho in fields if (rho > 0).any()
        ]
        if floors:
            print(f"open-cell floor : {show(floors)}")
        print(f"inlet band mean : "
              f"{show([float(rho[2:8, :].mean()) for rho in fields])} "
              "(expected ~1)")
    print(f"state digest    : {runs[0].state_digest}")
    rho = _block_mean(fields)
    if args.contours:
        print(render_ascii(rho))
    if args.save:
        save_field_npz(args.save, density_ratio=rho)
        print(f"field written to {args.save}")
    if args.vtk:
        from repro.analysis import thermo
        from repro.io.vtk import write_vtk_fields

        fs = config.freestream
        write_vtk_fields(
            args.vtk,
            density_ratio=rho,
            temperature_ratio=_block_mean([
                thermo.temperature_ratio_field(run.sampler, fs)
                for run in runs
            ]),
            mach=_block_mean(
                [thermo.mach_field(run.sampler, fs) for run in runs]
            ),
        )
        print(f"VTK fields written to {args.vtk}")
    return 0


def _make_telemetry(args: argparse.Namespace, default_dir: str):
    """Build the telemetry hub from the run flags (None if disabled)."""
    enabled = (
        args.telemetry or args.live or args.telemetry_port is not None
    )
    if not enabled:
        return None
    from repro.telemetry import Telemetry

    return Telemetry(
        run_dir=args.telemetry_dir or default_dir,
        sample_every=args.telemetry_every,
        live=args.live,
        port=args.telemetry_port,
    )


def _telemetry_outro(tel) -> None:
    """Close the hub and tell the user where the artifacts landed."""
    if tel is None:
        return
    tel.close()
    if tel.run_dir is not None:
        print(
            f"telemetry: {tel.run_dir / 'events.jsonl'} "
            f"(trace.json, metrics.prom alongside; "
            f"summarize with python -m repro.telemetry.report)"
        )


def _execute_schedule(args: argparse.Namespace, spec, overrides) -> int:
    """Run ``spec``'s transient + average schedule and report it.

    One path for one block or R (``--replicas``), fresh or resumed
    (``spec=None`` continues the supervised run in ``--resume DIR``):
    sharding, supervision, telemetry and the final report all hang off
    the same flags, and the run itself is
    :func:`repro.scenarios.golden.execute`.  The default run
    directories are ``runs/<scenario>-<seed>`` (and ``...-telemetry``).
    """
    from repro.resilience.supervisor import RunJournal
    from repro.scenarios.golden import execute

    backend = on_chunk = None
    if spec is None:
        run_dir = tel_dir = args.resume
        supervise = {"run_dir": run_dir}
        steps: List[int] = []

        def on_chunk(run) -> None:
            if not steps:
                print(
                    f"resumed {run_dir} at step {run.sim.step_count}, "
                    f"{run.sim.backend.n_workers} worker(s)"
                )
            steps.append(run.sim.step_count)
    else:
        transient, average = spec.resolve_schedule(overrides)
        overrides = dict(overrides, transient=transient, average=average)
        run_tag = f"{spec.name}-{overrides.get('seed', spec.seed)}"
        if args.workers > 1:
            from repro.parallel.backend import ShardedBackend

            backend = ShardedBackend(args.workers)
        run_dir = args.run_dir or f"runs/{run_tag}"
        tel_dir = run_dir if args.supervised else f"runs/{run_tag}-telemetry"
        supervise = None
        if args.supervised:
            supervise = {
                "run_dir": run_dir,
                "checkpoint_every": args.checkpoint_every,
                "audit_every": args.audit_every,
                "max_retries": args.max_retries,
            }
    tel = _make_telemetry(args, default_dir=tel_dir)
    t0 = time.time()
    runs = execute(
        spec,
        overrides,
        replicas=args.replicas,
        backend=backend,
        telemetry=tel,
        supervise=supervise,
        on_chunk=on_chunk,
    )
    if spec is not None:
        replicas = "" if args.replicas is None else f", {len(runs)} replicas"
        print(
            f"{sum(run.n_seeded for run in runs)} particles, grid "
            f"{'x'.join(map(str, runs[0].config.domain.shape))}, "
            f"{args.workers} worker(s){replicas}"
        )
    if supervise is not None:
        n_rec = sum(
            1 for e in RunJournal.load(run_dir) if e.get("kind") == "recovery"
        )
        extra = f", {n_rec} recoveries" if n_rec else ""
        print(f"supervised run dir: {run_dir}{extra}")
    _telemetry_outro(tel)
    if spec is None:
        print(f"finished at step {steps[-1]} in {time.time()-t0:.0f} s")
    else:
        print(f"ran {transient}+{average} steps in {time.time()-t0:.0f} s")
    return _run_report(runs, args)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios import all_specs, get, validate_scenario

    if args.list_scenarios:
        for spec in all_specs():
            tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"{spec.name:<16s} {spec.title}{tags}")
        return 0
    if args.scenario is None:
        print(
            "usage: repro run <scenario> [flags] | repro run --list",
            file=sys.stderr,
        )
        return 2
    spec = get(args.scenario)  # unknown name -> ConfigurationError + list
    if args.replicas is not None and args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    if args.validate:
        report = validate_scenario(
            spec, replicas=args.replicas, confidence=args.confidence
        )
        print(report.to_text())
        return 0 if report.ok else 1
    if args.resume:
        return _execute_schedule(args, None, {})

    overrides = {
        k: v
        for k, v in (
            ("nx", args.nx),
            ("ny", args.ny),
            ("mach", args.mach),
            ("angle", args.angle),
            ("density", args.density),
            ("lambda_mfp", args.lambda_mfp),
            ("seed", args.seed),
            ("transient", args.transient),
            ("average", args.average),
        )
        if v is not None
    }
    if args.steps is not None:
        # Smoke mode: sample from step zero so the report has a field
        # even for very short runs.
        overrides["transient"] = 0
        overrides["average"] = args.steps
    return _execute_schedule(args, spec, overrides)


def _cmd_heatbath(args: argparse.Namespace) -> int:
    from repro.baselines import (
        BaganoffSelection,
        BirdTimeCounter,
        HeatBath,
        NanbuPloss,
    )
    from repro.physics.freestream import Freestream

    fs = Freestream(
        mach=4.0, c_mp=0.14, lambda_mfp=2.0,
        density=args.particles / args.cells,
    )
    bath = HeatBath(
        n_particles=args.particles, n_cells=args.cells, freestream=fs
    )
    print(
        f"{'scheme':>20s} {'collisions':>11s} {'E drift':>10s} "
        f"{'p drift':>10s} {'kurtosis':>9s} {'seconds':>8s}"
    )
    for scheme in (BaganoffSelection(fs), BirdTimeCounter(fs), NanbuPloss(fs)):
        r = bath.run(scheme, steps=args.steps, seed=args.seed)
        print(
            f"{r.name:>20s} {r.total_collisions:11d} "
            f"{r.energy_drift:10.2e} {r.momentum_drift:10.2e} "
            f"{r.final_kurtosis:9.3f} {r.seconds:8.2f}"
        )
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.cm.machine import CM2
    from repro.cm.timing import CM2TimingModel

    machine = CM2(n_processors=args.processors)
    tm = CM2TimingModel(machine=machine)
    counts = [args.processors * v for v in (1, 2, 4, 8, 16)]
    curve = tm.predict_curve(counts)
    print(f"machine: {args.processors} processors (model prediction)")
    print(f"{'particles':>10s} {'VPR':>4s} {'us/particle':>12s}")
    for n in counts:
        pb = curve[n]
        print(f"{n:10d} {n // args.processors:4d} {pb.total:12.2f}")
    if args.measure:
        from repro.core.engine_cm import CMSimulation
        from repro.core.simulation import SimulationConfig
        from repro.geometry.domain import Domain
        from repro.physics.freestream import Freestream

        small = CM2(n_processors=min(args.processors, 512))
        tm2 = CM2TimingModel(machine=small)
        print(f"\nmeasured on emulated {small.n_processors}-processor machine:")
        for vpr in (1, 2, 4, 8, 16):
            n_target = small.n_processors * vpr
            ny = max(int(np.sqrt(n_target / 16.0)), 6)
            cfg = SimulationConfig(
                domain=Domain(2 * ny, ny),
                freestream=Freestream(
                    mach=4.0, c_mp=0.14, lambda_mfp=0.5,
                    density=n_target / (2 * ny * ny),
                ),
                wedge=None,
                seed=7,
            )
            sim = CMSimulation(cfg, machine=small)
            sim.run(5)
            print(f"  VPR {vpr:2d}: {sim.phase_breakdown(tm2).total:6.2f} us")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro import constants

    print(f"repro {repro.__version__}")
    print(
        "paper: Dagum (1989), 'Implementation of a Hypersonic Rarefied "
        "Flow\nParticle Simulation on the Connection Machine' "
        "(RIACS TR 88.46)"
    )
    print(f"paper grid          : {constants.PAPER_GRID_SHAPE}")
    print(f"paper particles     : {constants.PAPER_TOTAL_PARTICLES}")
    print(f"paper CM-2 time     : {constants.PAPER_CM2_US_PER_PARTICLE}"
          " us/particle/step")
    print(f"paper Cray-2 time   : {constants.PAPER_CRAY2_US_PER_PARTICLE}"
          " us/particle/step")
    print(f"paper phase split   : {constants.PAPER_PHASE_FRACTIONS}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the orchestration service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.service import Orchestrator, OrchestratorConfig, ServiceAPI

    config = OrchestratorConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        heartbeat_every=args.heartbeat_every,
        heartbeat_timeout=args.heartbeat_timeout,
        default_deadline=args.deadline,
        max_job_retries=args.max_job_retries,
    )
    orch = Orchestrator(args.data_dir, config)
    api = ServiceAPI(orch, port=args.port)
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    print(
        f"service listening on http://127.0.0.1:{api.port} "
        f"(data dir {args.data_dir}, {args.workers} workers)",
        flush=True,
    )
    stop.wait()
    print("draining...", flush=True)
    api.close()
    summary = orch.shutdown(drain=True)
    print(
        f"stopped: {summary.get('completed', 0)} completed, "
        f"{summary.get('drained', 0)} drained, "
        f"{summary.get('killed', 0)} killed",
        flush=True,
    )
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url)


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    overrides = {
        k: v
        for k, v in (
            ("nx", args.nx),
            ("ny", args.ny),
            ("mach", args.mach),
            ("angle", args.angle),
            ("density", args.density),
            ("lambda_mfp", args.lambda_mfp),
            ("transient", args.transient),
            ("average", args.average),
        )
        if v is not None
    }
    if args.steps is not None:
        overrides["transient"] = 0
        overrides["average"] = args.steps
    out = client.submit(
        scenario=args.scenario,
        seed=args.seed,
        overrides=overrides,
        deadline=args.deadline,
    )
    cached = " (cached)" if out.get("cached") else ""
    print(f"{out['job_id']} {out['state']}{cached}")
    if not args.wait or out.get("cached"):
        return 0
    final = client.wait(out["job_id"], timeout=args.timeout)
    print(f"{final['job_id']} {final['state']} attempt {final['attempt']}")
    return 0 if final["state"] == "DONE" else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    client = _service_client(args)
    overrides = {
        k: v
        for k, v in (
            ("nx", args.nx),
            ("ny", args.ny),
            ("angle", args.angle),
            ("density", args.density),
            ("transient", args.transient),
            ("average", args.average),
        )
        if v is not None
    }
    if args.steps is not None:
        overrides["transient"] = 0
        overrides["average"] = args.steps
    out = client.sweep(
        scenario=args.scenario,
        mach=args.mach,
        kn=args.kn,
        seeds=args.seeds,
        overrides=overrides,
        deadline=args.deadline,
    )
    for job in out["jobs"]:
        point = " ".join(
            f"{axis}={job[axis]}"
            for axis in ("mach", "kn", "seed")
            if job.get(axis) is not None
        )
        cached = " (cached)" if job.get("cached") else ""
        print(f"{job['job_id']} {job['state']}{cached}  {point}")
    print(f"{out['count']} job(s) submitted")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.job_id is None:
        jobs = client.list_jobs()
        if not jobs:
            print("no jobs")
            return 0
        for j in sorted(jobs, key=lambda j: j["submitted_time"]):
            print(
                f"{j['job_id']:<36s} {j['state']:<9s} "
                f"attempt {j['attempt']} {j['scenario']} seed {j['seed']}"
            )
        return 0
    status = client.status(args.job_id)
    for key in (
        "job_id", "scenario", "seed", "state", "attempt",
        "submitted_time", "started_time", "finished_time", "error",
    ):
        if status.get(key) is not None:
            print(f"{key:<15s}: {status[key]}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    status = _service_client(args).cancel(args.job_id)
    extra = " (draining)" if status.get("cancelling") else ""
    print(f"{status['job_id']} {status['state']}{extra}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json as _json

    result = _service_client(args).result(args.job_id)
    blob = _json.dumps(result, indent=2)
    if args.out:
        import pathlib as _pathlib

        _pathlib.Path(args.out).write_text(blob + "\n", encoding="utf-8")
        print(f"result written to {args.out}")
    else:
        print(blob)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.watch import watch_fleet, watch_job

    client = _service_client(args)
    try:
        if args.fleet:
            return watch_fleet(
                client, interval=args.interval, max_rounds=args.rounds
            )
        if args.job_id is None:
            print(
                "usage: repro watch <job_id> | repro watch --fleet",
                file=sys.stderr,
            )
            return 2
        return watch_job(client, args.job_id, max_rounds=args.rounds)
    except KeyboardInterrupt:
        print()  # leave the panel intact
        return 130


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A library failure (invalid configuration, bad snapshot, ...) is
    reported as ``error: <message>`` on stderr with exit code 2, like an
    argparse usage error, instead of a traceback.
    """
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "wedge": _cmd_run,
        "heatbath": _cmd_heatbath,
        "timing": _cmd_timing,
        "info": _cmd_info,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "sweep": _cmd_sweep,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "fetch": _cmd_fetch,
        "watch": _cmd_watch,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
