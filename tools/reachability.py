#!/usr/bin/env python3
"""Function-level reachability census of ``src/repro``.

Runs the program's real traffic under the stdlib :mod:`trace` module at
function level (call events only, no line events) and writes
``docs/reachability.md``: one row per function or method defined in
``src/repro`` that no traffic item calls, with the class that decides
whether it stays (``KEEP``).  The census asks "reached or not", not
"how fast", so every item runs at its smallest size:

* the six harness workloads (``benchmarks/e2e/child.py --profile
  smoke``), untraced and traced;
* every registered scenario through ``repro run <name>``, with and
  without ``--validate``, on a short schedule;
* the ``benchmarks/bench_*.py`` set in quick mode (``REPRO_FULL=0``);
* ``examples/*.py``;
* the CLI's commands and the service commands CI's smoke steps run:
  serve / submit / status / fetch / watch / sweep / cancel, the run
  report and the trace stitcher, ``--workers``, ``--replicas``,
  ``--supervised`` and ``--resume``.

Trace counts do not survive a fork, so code that runs only in forked
children is driven in-process as well: shard workers through
``ShardedBackend(processes=False)`` and the job worker through
``execute_job`` called directly.  What only the process plumbing runs
(a worker's command loop, the job process's entry) is counted in the
children themselves, which leave their counts in a spool directory as
they exit.

Usage::

    PYTHONPATH=src python tools/reachability.py [--out docs/reachability.md]

The report's ``## Deleted`` section is a ledger of what earlier
censuses retired; regenerating the report carries it over unchanged.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import os
import pathlib
import runpy
import signal
import sys
import tempfile
import threading
import trace
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
REPORT = ROOT / "docs" / "reachability.md"
LEDGER = "## Deleted"

Item = Tuple[str, Callable[[], object]]

#: The classes that keep an unreached definition (the simplicity-review
#: guide's safety code and reference implementations, plus the user
#: API and the paper's evidence), each with its one-line reason.
SAFETY = "safety"
ORACLE = "oracle"
ENTRY = "documented entry point"
EVIDENCE = "paper evidence"
KEEP_CLASSES = (SAFETY, ORACLE, ENTRY, EVIDENCE)

_FAULT = "fault injection: the hook the recovery tests drive"
_RECOVERY = "fault recovery"
KEEP: Dict[str, Tuple[str, str]] = {
    # Safety: typed errors, outside input, fault injection and recovery.
    "core/boundary.py:WindTunnelBoundaries._clamp_subset": (
        SAFETY, "last-resort rescue when the bounded reflection does not "
        "converge"),
    "geometry/wedge.py:Wedge.project_out": (
        SAFETY, "the clamp's positional rescue onto the wedge"),
    "geometry/bodies.py:Cylinder.project_out": (
        SAFETY, "the clamp's positional rescue onto the cylinder"),
    "geometry/bodies.py:Step.project_out": (
        SAFETY, "the clamp's positional rescue onto the step"),
    "core/sampling.py:_erfinv": (
        SAFETY, "the confidence interval's quantile where SciPy is absent"),
    "physics/theory.py:minimum_attachment_mach": (
        SAFETY, "words the warning for a configuration whose shock "
        "detaches"),
    "errors.py:ResilienceError.__init__": (SAFETY, "typed error"),
    "parallel/backend.py:ShardWorker._crossed_two_slabs": (
        SAFETY, "typed error for a migrant past a neighbour's slab"),
    "parallel/backend.py:ShardWorker._inject_faults": (SAFETY, _FAULT),
    "parallel/backend.py:_note": (
        SAFETY, "notes a shard's traceback or a second failed shard"),
    "parallel/backend.py:_portable": (
        SAFETY, "sends a forked shard's own exception down its pipe"),
    "parallel/backend.py:ShardedBackend._pool_failed": (
        SAFETY, "names a dead or silent worker pool as a typed error"),
    "parallel/backend.py:ShardedBackend._emergency_stop": (
        SAFETY, "tears the pool down after a worker failure"),
    "resilience/faults.py:FaultSpec.__post_init__": (SAFETY, _FAULT),
    "resilience/faults.py:FaultSpec.to_dict": (SAFETY, _FAULT),
    "resilience/faults.py:FaultSpec.from_dict": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.__init__": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.armed": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.take": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.disarm_through": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.corruption_pattern": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.describe": (SAFETY, _FAULT),
    "resilience/faults.py:FaultPlan.__repr__": (SAFETY, _FAULT),
    "resilience/supervisor.py:backoff_seconds": (SAFETY, _RECOVERY),
    "resilience/supervisor.py:RecoveryEvent.to_dict": (SAFETY, _RECOVERY),
    "resilience/supervisor.py:SupervisedRun._recover": (SAFETY, _RECOVERY),
    "resilience/supervisor.py:SupervisedRun._backend_factory": (
        SAFETY, _RECOVERY),
    "resilience/supervisor.py:SupervisedRun._restore": (SAFETY, _RECOVERY),
    "service/api.py:_status_for": (
        SAFETY, "maps a typed error to its HTTP status"),
    "service/orchestrator.py:_deadline_seconds": (
        SAFETY, "validates a submitted deadline"),
    "service/orchestrator.py:_retry_budget": (
        SAFETY, "validates a submitted retry budget"),
    "service/orchestrator.py:Orchestrator._read_error": (
        SAFETY, "reports a failed job's error"),
    "service/orchestrator.py:Orchestrator._mark_kill": (
        SAFETY, "the watchdog's kill of a stalled or late job"),
    "service/orchestrator.py:Orchestrator._hard_kill": (SAFETY, _FAULT),
    "service/orchestrator.py:Orchestrator.kill": (SAFETY, _FAULT),
    "service/store.py:JobStore.tear_tail": (SAFETY, _FAULT),
    "service/worker.py:_load_fired": (SAFETY, _FAULT),
    "service/worker.py:_mark_fired": (SAFETY, _FAULT),
    "service/worker.py:_fail": (SAFETY, "reports a failed job's error"),
    "geometry/reflect.py:reflect_specular_axis": (
        SAFETY, "the clamp's fold back off a wall"),
    "fixedpoint/qformat.py:QFormat.min_value": (
        SAFETY, "names the range in the overflow error"),
    # Oracles: tests compare live code against them.
    "geometry/wedge.py:Wedge.penetration_depth": (
        ORACLE, "how deep a point sits in the wedge, which the "
        "reflection property tests hold the live reflection to"),
    "io/vtk.py:read_vtk_scalars": (
        ORACLE, "reads back what the VTK writer wrote"),
    "core/pairing.py:reflection_slots": (
        ORACLE, "scalar reference for `reflection_pairs`"),
    "physics/theory.py:expansion_density_ratio": (
        ORACLE, "Prandtl-Meyer theory the expansion-fan test holds the "
        "live flow to"),
    "physics/distributions.py:component_variance": (
        ORACLE, "measures the live samplers' spread"),
    "physics/distributions.py:temperature_from_velocities": (
        ORACLE, "measures the live run's temperature (equilibrium tests)"),
    "physics/distributions.py:energy_shares": (
        ORACLE, "measures the live run's equipartition"),
    # Documented entry points: README or docs/ names them as user API.
    "scenarios/__main__.py:main": (
        ENTRY, "`python -m repro.scenarios` (docs/scenarios.md)"),
    "scenarios/golden.py:regenerate_golden": (
        ENTRY, "`python -m repro.scenarios` (docs/scenarios.md)"),
    "scenarios/spec.py:ScenarioSpec.from_toml": (
        ENTRY, "TOML scenario files (docs/scenarios.md)"),
    "scenarios/spec.py:ScenarioSpec.to_toml": (
        ENTRY, "writes the committed TOML files (docs/scenarios.md)"),
    "scenarios/spec.py:_toml_value": (ENTRY, "`ScenarioSpec.to_toml`"),
    "service/client.py:ServiceClient.metrics": (
        ENTRY, "`GET /metrics` (docs/service.md)"),
    "telemetry/exporters.py:MetricsServer.__init__": (
        ENTRY, "`--telemetry-port` (README)"),
    "telemetry/exporters.py:MetricsServer.close": (
        ENTRY, "`--telemetry-port` (README)"),
    "telemetry/hub.py:Telemetry._print_live": (ENTRY, "`--live` (README)"),
    "telemetry/report.py:render_diff": (
        ENTRY, "`python -m repro.telemetry.report A --diff B` "
        "(docs/observability.md)"),
    "cm/timing.py:CostLedger.summary": (
        ENTRY, "`ledger.summary()` (docs/cm2.md)"),
    "cm/timing.py:CostLedger.as_dict": (
        ENTRY, "the cost table of `ledger.summary()` (docs/cm2.md)"),
    "cm/timing.py:CostLedger.export": (
        ENTRY, "`ledger.export(...)` (docs/cm2.md, docs/observability.md)"),
    "perf.py:PerfLedger.steps": (ENTRY, "the ledger's read API "
                                 "(docs/observability.md)"),
    "perf.py:PerfLedger.particle_steps": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "perf.py:PerfLedger.total_seconds": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "perf.py:PerfLedger.phase_seconds": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "perf.py:PerfLedger.per_step_seconds": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "perf.py:PerfLedger.us_per_particle": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "perf.py:PerfLedger.summary": (
        ENTRY, "the ledger's read API (docs/observability.md)"),
    "baselines/common.py:CollisionScheme.collide_step": (
        ENTRY, "the method of the protocol every baseline implements"),
    "physics/molecules.py:hard_sphere": (
        ENTRY, "exported as `repro.hard_sphere`"),
    "fixedpoint/qformat.py:_module_rng": (
        ENTRY, "`QFormat.halve`'s draw when the caller passes no bits"),
    # Paper evidence: only this code shows a docs/paper_mapping.md claim.
    "core/collision.py:_draw_frozen": (
        EVIDENCE, "Future Work: relaxation into internal energy "
        "(`internal_exchange_probability < 1`)"),
    "core/collision.py:_frozen_outcome": (
        EVIDENCE, "Future Work: relaxation into internal energy "
        "(`internal_exchange_probability < 1`)"),
    "core/selection.py:pair_relative_speed": (
        EVIDENCE, "eqs. (3)-(8): the selection rule beyond Maxwell "
        "molecules"),
    "core/pairing.py:ReflectionPairs.n_pairs": (
        EVIDENCE, "eqs. (3)-(8): the selection rule beyond Maxwell "
        "molecules reads it"),
    "physics/molecules.py:MolecularModel.speed_factor": (
        EVIDENCE, "eqs. (3)-(8): the selection rule beyond Maxwell "
        "molecules"),
    "physics/molecules.py:vhs_like": (
        EVIDENCE, "Future Work: power-law interactions"),
}


@dataclass(frozen=True)
class Definition:
    """One top-level function or method of a top-level class."""

    path: str  # relative to the package directory
    qualname: str
    first_line: int  # the first decorator's line, as ``co_firstlineno``
    lines: int

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def definitions(package: pathlib.Path) -> List[Definition]:
    """Every top-level function and method of a top-level class in
    ``package``, in file order."""
    out = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            scope = [(node, node.name)] if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
            if isinstance(node, ast.ClassDef):
                scope = [
                    (sub, f"{node.name}.{sub.name}") for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for fn, qualname in scope:
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out.append(Definition(
                    rel, qualname, first, fn.end_lineno - first + 1))
    return out


def _digest(path: str) -> Optional[str]:
    """SHA-256 of a file's bytes (``None`` once it is gone)."""
    try:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


class _CallCensus(trace.Trace):
    """``trace.Trace`` with function counting keyed by (file, first line).

    The stock key names a method's class by searching the heap for the
    code object's referrers, once per code object; the census matches
    definitions by position instead, which needs no search.

    Positions are only as good as the source they were read from, so the
    census also hashes every file under ``package`` as the run first
    executes it (its module body runs on import) -- or at once, for a
    module imported before the census started -- in :attr:`hashes`.
    """

    def __init__(self, package: pathlib.Path) -> None:
        super().__init__(count=0, trace=0, countfuncs=1)
        self._root = os.path.join(os.path.realpath(package), "")
        self._seen: set = set()
        #: ``{real path: sha256}`` of the package files the run executed.
        self.hashes: Dict[str, Optional[str]] = {}
        for module in list(sys.modules.values()):
            self._first_sight(getattr(module, "__file__", None))

    def _first_sight(self, filename: Optional[str]) -> None:
        if not filename or filename in self._seen:
            return
        self._seen.add(filename)
        path = os.path.realpath(filename)
        if path.startswith(self._root) and path not in self.hashes:
            self.hashes[path] = _digest(path)

    def file_module_function_of(self, frame):
        code = frame.f_code
        if code.co_filename not in self._seen:
            self._first_sight(code.co_filename)
        return code.co_filename, code.co_firstlineno, code.co_name


def _follow_forks(tracer: _CallCensus, spool: pathlib.Path) -> None:
    """Count what forked children call too.

    A child forked by ``multiprocessing`` keeps the forking thread's
    trace function, but its counts die with it: each child registers a
    finalizer that leaves them in ``spool`` when its process exits
    normally (a shard worker closed, a job worker done).
    """
    from multiprocessing import util

    def dump():
        sys.settrace(None)
        rows = "".join(
            f"{f}\t{line}\n" for f, line, _ in list(tracer._calledfuncs))
        (spool / f"{os.getpid()}.tsv").write_text(rows, encoding="utf-8")
        hashes = "".join(f"{f}\t{h}\n" for f, h in tracer.hashes.items())
        (spool / f"{os.getpid()}.sha").write_text(hashes, encoding="utf-8")

    util.register_after_fork(
        tracer, lambda _: util.Finalize(None, dump, exitpriority=0)
    )


def census(
    package: pathlib.Path,
    traffic: Callable[[], Sequence[Item]],
    spool: Optional[pathlib.Path] = None,
) -> Tuple[List[Definition], List[Definition], List[str], List[str]]:
    """Build the traffic and run every item of it under one tracer.

    ``traffic()`` itself runs traced, so what importing the program
    calls (a registry filling up) counts.  Returns ``(all definitions,
    unreached definitions, item names, failures, changed files)``; a
    failed item is reported by name, its exit code or its traceback's
    last line, and the notes its exception carries (a quiet item's
    failing test ids, :func:`_quiet`), and the census goes on (what it
    reached before failing still counts).
    With a ``spool`` directory, calls made in forked ``multiprocessing``
    children count as well.

    A file whose bytes differ from those the run executed (an edit while
    the census ran) is a changed file, relative to ``package``: its
    counted lines no longer locate its definitions, so none of them is
    returned.
    """
    tracer = _CallCensus(package)
    if spool is not None:
        _follow_forks(tracer, spool)
    items = tracer.runfunc(traffic)
    failures = []
    for name, item in items:
        print(f"census: {name}", file=sys.stderr, flush=True)
        threading.settrace(tracer.globaltrace)
        try:
            tracer.runfunc(item)
        except SystemExit as exc:
            if exc.code not in (None, 0):
                failures.append(f"{name}: exit {exc.code}{_noted(exc)}")
        except Exception as exc:  # noqa: BLE001 - recorded, census continues
            last = traceback.format_exception_only(type(exc), exc)[0]
            last = last.strip().splitlines()[-1]
            failures.append(f"{name}: {last}{_noted(exc)}")
        finally:
            threading.settrace(None)
    called = {
        (os.path.realpath(f), line)
        for f, line, _ in tracer.results().calledfuncs
    }
    hashes = dict(tracer.hashes)
    for dump in sorted(spool.glob("*.tsv")) if spool is not None else ():
        for row in dump.read_text(encoding="utf-8").splitlines():
            f, line = row.rsplit("\t", 1)
            called.add((os.path.realpath(f), int(line)))
    for dump in sorted(spool.glob("*.sha")) if spool is not None else ():
        for row in dump.read_text(encoding="utf-8").splitlines():
            f, digest = row.rsplit("\t", 1)
            hashes.setdefault(f, digest)
    root = os.path.realpath(package)
    changed = sorted(
        os.path.relpath(f, root).replace(os.sep, "/")
        for f, digest in hashes.items() if _digest(f) != digest
    )
    defs = [d for d in definitions(package) if d.path not in changed]
    unreached = [
        d for d in defs
        if (os.path.join(root, d.path), d.first_line) not in called
    ]
    return defs, unreached, [name for name, _ in items], failures, changed


# -- the traffic -------------------------------------------------------------


def _noted(exc: BaseException) -> str:
    """The notes ``exc`` carries, as the tail of a failure row."""
    return "".join(f" -- {note}" for note in getattr(exc, "__notes__", ()))


def _failing_lines(output: str) -> str:
    """What names a failure in an item's output: its pytest short-summary
    ``FAILED ...`` / ``ERROR ...`` ids (from the repository root, not
    the census's work directory), or else its last 5 lines."""
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    here = os.path.relpath(ROOT) + os.sep
    ids = [line.replace(here, "") for line in lines
           if line.startswith(("FAILED ", "ERROR "))]
    return " / ".join(ids or lines[-5:])


def _quiet(fn: Callable[[], object]) -> Callable[[], object]:
    """``fn`` with its standard output captured (reports, JSON lines).

    A failed item's output goes to the census log (standard error) and
    names the failure in a note on its exception.
    """

    def run():
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                return _checked(fn())
        except BaseException as exc:
            sys.stderr.write(out.getvalue())
            # ``add_note`` (Python 3.11), spelled for older ones too.
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             _failing_lines(out.getvalue())]
            raise

    return run


def _checked(code):
    """A CLI ``main``'s return value as the census sees it: non-zero is
    a failed item."""
    if isinstance(code, int) and not isinstance(code, bool) and code != 0:
        raise SystemExit(code)
    return code


def _cli(*argv: str) -> Callable[[], object]:
    from repro.cli import main

    return _quiet(lambda: main(list(argv)))


def harness_items() -> List[Item]:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import child
    import workloads

    return [
        (f"harness {name} --trace {t}", _quiet(
            lambda name=name, t=t: child.main([
                "--workload", name, "--profile", "smoke", "--trace", str(t),
                "--setup-cycles", "1",
            ])))
        for name in workloads.WORKLOADS for t in (0, 1)
    ]


def scenario_items() -> List[Item]:
    """CI's scenario matrix at a short schedule: a telemetry smoke run,
    the validation report (pass or fail: the census needs its path, not
    a passing gate) and the replica-block validation."""
    from repro.scenarios import names

    short = ("--transient", "20", "--average", "20")
    items = []
    for name in names():
        items += [
            (f"repro run {name} --steps 50 --telemetry", _cli(
                "run", name, "--steps", "50", "--telemetry",
                "--telemetry-dir", f"runs/scenario-{name}")),
            (f"repro run {name} --validate",
             _tolerant(_cli("run", name, "--validate", *short))),
            (f"repro run {name} --validate --replicas 2", _tolerant(_cli(
                "run", name, "--validate", "--replicas", "2", *short))),
        ]
    return items


def _tolerant(fn: Callable[[], object]) -> Callable[[], object]:
    """``fn`` whose exit code 1 (a failed check) is not a failed item."""

    def run():
        try:
            return fn()
        except SystemExit as exc:
            if exc.code != 1:
                raise

    return run


def bench_items() -> List[Item]:
    os.environ["REPRO_FULL"] = "0"
    scripts = sorted(ROOT.glob("benchmarks/bench_*.py"))
    legacy = [p for p in scripts if "def main(" in p.read_text()]
    suites = [p for p in scripts if p not in legacy]

    def pytest_run():
        import pytest

        return pytest.main([
            *map(str, suites), "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", "--rootdir", str(ROOT),
        ])

    items = [("benchmarks/bench_*.py (pytest)", _quiet(pytest_run))]
    sys.path.insert(0, str(ROOT / "benchmarks"))
    for path in legacy:
        items.append((f"python {path.relative_to(ROOT)}",
                      _legacy_bench(path)))
    return items


def _legacy_bench(path: pathlib.Path) -> Callable[[], object]:
    """A ``BENCH_*.json`` script at 30 steps (the stream bench needs
    three heartbeats), writing into the work directory instead of over
    the committed file."""

    def run():
        ns = runpy.run_path(str(path), run_name="census")
        ns["main"].__globals__["REPO_ROOT"] = pathlib.Path.cwd()
        return ns["main"](["--steps", "30"])

    return _quiet(run)


def example_items() -> List[Item]:
    items = []
    for path in sorted(ROOT.glob("examples/*.py")):
        def run(path=path):
            argv, sys.argv = sys.argv, [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv

        items.append((f"python {path.relative_to(ROOT)}", _quiet(run)))
    return items


def cli_items() -> List[Item]:
    small = ("--nx", "48", "--ny", "24", "--density", "6", "--seed", "3")
    return [
        ("repro info", _cli("info")),
        ("repro timing --measure", _cli(
            "timing", "--processors", "256", "--measure")),
        ("repro heatbath", _cli(
            "heatbath", "--particles", "2000", "--cells", "20",
            "--steps", "3")),
        ("repro wedge", _cli(
            "wedge", *small, "--transient", "20", "--average", "20",
            "--contours", "--save", "wedge.npz", "--vtk", "wedge.vtk")),
        ("repro run --list", _cli("run", "--list")),
        ("repro wedge --workers 2 --telemetry", _cli(
            "wedge", *small, "--workers", "2", "--transient", "30",
            "--average", "20", "--telemetry", "--telemetry-dir",
            "runs/telemetry", "--telemetry-every", "10")),
        ("python -m repro.telemetry.report",
         _quiet(lambda: _report_main("runs/telemetry"))),
        ("repro run wedge --replicas 3 --telemetry", _cli(
            "run", "wedge", *small, "--steps", "20", "--replicas", "3",
            "--telemetry", "--telemetry-dir", "runs/ensemble-telemetry")),
        ("repro run wedge --replicas 2 --supervised", _cli(
            "run", "wedge", *small, "--transient", "20", "--average", "20",
            "--replicas", "2", "--supervised", "--run-dir", "runs/ens",
            "--checkpoint-every", "10", "--audit-every", "10")),
        ("repro run wedge --resume (ensemble)",
         _cli("run", "wedge", "--resume", "runs/ens")),
        ("repro run wedge --supervised --workers 2", _cli(
            "run", "wedge", *small, "--transient", "20", "--average", "20",
            "--workers", "2", "--supervised", "--run-dir", "runs/sup",
            "--checkpoint-every", "10", "--audit-every", "10")),
        ("repro run wedge --resume (sharded)", _resume_dropped("runs/sup")),
        ("repro run wedge3d --supervised", _cli(
            "run", "wedge3d", "--steps", "20", "--supervised",
            "--run-dir", "runs/slab", "--audit-every", "10")),
        ("sharded wedge in-process", _inline_sharded),
        ("service: serve / submit / watch / fetch / sweep / cancel",
         _served),
        ("service: the job worker in-process", _job_worker),
    ]


def _report_main(run_dir: str):
    from repro.telemetry.report import main

    return main([run_dir])


def _resume_dropped(run_dir: str) -> Callable[[], object]:
    """Resume a finished supervised run after dropping its newest
    checkpoint, so the tail replays from the one before."""

    def run():
        newest = sorted(pathlib.Path(run_dir).glob("ckpt_*.npz"))[-1]
        newest.unlink()
        return _cli("run", "wedge", "--resume", run_dir)()

    return run


def _inline_sharded():
    """What a forked shard worker runs, in this process: supervised
    steps with telemetry attached, sampling, a forced rebalance, a
    checkpoint restored at the same worker count, and the gather."""
    from repro.io.snapshots import load_simulation, save_simulation
    from repro.parallel.backend import ShardedBackend
    from repro.resilience import SupervisedRun
    from repro.scenarios import get
    from repro.telemetry import Telemetry

    spec = get("wedge")
    build = {"nx": 48, "ny": 24, "density": 6.0, "seed": 3}
    sim = spec.build_simulation(
        build, backend=ShardedBackend(2, processes=False),
        telemetry=Telemetry(run_dir="runs/inline-telemetry",
                            sample_every=5))
    with SupervisedRun(sim, "runs/inline", checkpoint_every=10,
                       audit_every=5) as run:
        run.run_schedule([{"steps": 20, "sample": False},
                          {"steps": 20, "sample": True}])
        run.sim.backend.maybe_rebalance(run.sim.step_count, force=True)
        save_simulation(run.sim, "inline.npz")
    with load_simulation("inline.npz", processes=False) as restored:
        restored.run(12, sample=True)
        restored.gather()
    spec3 = get("wedge3d")
    with spec3.build_simulation(
            {"seed": 3}, backend=ShardedBackend(2, processes=False)) as slab:
        slab.run(12, sample=True)
        slab.gather()


def _served():
    """``repro serve`` in this thread, the client commands in another;
    the client thread ends the service as CI does, with SIGTERM."""
    from repro.cli import main

    out = io.StringIO()
    errors: List[str] = []
    handlers = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}

    def client():
        try:
            _client_session(out)
        except BaseException:  # noqa: BLE001 - reported by the item
            errors.append(traceback.format_exc())
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=client, daemon=True)
    try:
        with contextlib.redirect_stdout(out):
            thread.start()
            code = main(["serve", "--data-dir", "runs/service", "--port", "0",
                         "--workers", "2"])
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    thread.join(timeout=60)
    if errors:
        raise RuntimeError(errors[0])
    from repro.telemetry.report import main as report
    from repro.telemetry.stitch import main as stitch

    with contextlib.redirect_stdout(io.StringIO()):
        _checked(report(["runs/service"]))
        _checked(stitch(["runs/service"]))
    return _checked(code)


def _client_session(out: io.StringIO) -> None:
    import re
    import time

    from repro.cli import main
    from repro.service import ServiceClient

    deadline = time.time() + 60
    while "service listening" not in out.getvalue():
        if time.time() > deadline:
            raise RuntimeError("the service never came up")
        time.sleep(0.05)
    url = re.search(r"http://\S+", out.getvalue()).group(0)
    common = ("--url", url)
    _checked(main(["submit", "wedge", *common, "--seed", "7", "--nx", "48",
                   "--ny", "24", "--density", "6", "--steps", "20",
                   "--wait", "--timeout", "300"]))
    client = ServiceClient(url)
    job = client.list_jobs()[0]["job_id"]
    for argv in (["status"], ["status", job], ["fetch", job, "--out",
                 "result.json"], ["watch", job, "--rounds", "1"],
                 ["watch", "--fleet", "--rounds", "1", "--interval", "0.1"]):
        _checked(main([*argv, *common]))
    overrides = {"nx": 48, "ny": 24, "density": 6.0, "transient": 0,
                 "average": 20}
    streamed = client.submit(scenario="wedge", seed=11, overrides=overrides)
    list(client.stream(streamed["job_id"]))
    list(client.iter_events(streamed["job_id"]))
    client.fleet()
    client.health()
    _checked(main(["sweep", "wedge", *common, "--mach", "3", "4",
                   "--nx", "32", "--ny", "16", "--density", "4",
                   "--steps", "10"]))
    swept = [j["job_id"] for j in client.list_jobs()
             if j["job_id"] not in (job, streamed["job_id"])]
    _checked(main(["cancel", swept[-1], *common]))
    for job_id in swept[:-1]:
        client.wait(job_id, timeout=300)


def _job_worker():
    """The forked job worker's body, run here: a fresh job, then the
    same job directory again (the retry path resumes its run)."""
    from repro.scenarios import get
    from repro.service.worker import execute_job

    payload = {
        "spec": get("wedge").to_dict(),
        "seed": 5,
        "overrides": {"nx": 32, "ny": 16, "density": 4.0},
        "schedule": [0, 20],
        "attempt": 1,
        "heartbeat_every": 10,
        "audit_every": 10,
    }
    handler = signal.getsignal(signal.SIGTERM)
    try:
        for attempt in (1, 2):
            code = execute_job("runs/job", dict(payload, attempt=attempt))
            if code != 0:
                raise RuntimeError(f"execute_job exited {code}")
    finally:
        signal.signal(signal.SIGTERM, handler)


def traffic() -> List[Item]:
    """Every item of the census, in the order it runs."""
    return (harness_items() + scenario_items() + cli_items()
            + example_items() + bench_items())


# -- the report --------------------------------------------------------------


def classify(d: Definition) -> Tuple[str, str]:
    """``(class, reason)`` of an unreached definition: a keep class
    from ``KEEP``, or ``delete``."""
    return KEEP.get(d.key, ("delete", "no traffic item reaches it"))


def render(
    defs: Sequence[Definition],
    unreached: Sequence[Definition],
    failures: Sequence[str],
    items: Sequence[str],
    ledger: str,
    changed: Sequence[str] = (),
) -> str:
    lines_total = sum(d.lines for d in defs)
    by_class: Dict[str, List[Definition]] = {}
    for d in unreached:
        by_class.setdefault(classify(d)[0], []).append(d)
    out = [
        "# Reachability census",
        "",
        "Generated by `PYTHONPATH=src python tools/reachability.py`; do "
        "not edit the tables by hand (the `## Deleted` ledger is carried "
        "over from the previous report).",
        "",
        "One row per function or method of `src/repro` (top-level "
        "functions and methods of top-level classes) that no traffic "
        "item calls, under the stdlib `trace` module at function level. "
        "A kept row names its class:",
        "",
        "- *safety*: typed-error raises, validation of outside input, "
        "fault recovery;",
        "- *oracle*: a test compares a live function against it;",
        "- *documented entry point*: README or `docs/` names it as user "
        "API;",
        "- *paper evidence*: only this code shows a `docs/paper_mapping.md`"
        " claim.",
        "",
        "Any other row is *delete*; `tests/unit/test_api_quality.py::"
        "TestEveryFunctionHasACaller` allows a definition whose only "
        "callers are tests only when a kept row here names it.",
        "",
        "## Totals",
        "",
        f"- definitions: {len(defs)} ({lines_total} lines)",
        f"- reached: {len(defs) - len(unreached)}",
        f"- unreached: {len(unreached)} "
        f"({sum(d.lines for d in unreached)} lines)",
    ]
    for cls in (*KEEP_CLASSES, "delete"):
        rows = by_class.get(cls, [])
        out.append(f"  - {cls}: {len(rows)} ({sum(d.lines for d in rows)} "
                   "lines)")
    out += ["", "## Traffic", ""]
    out += [f"- {name}" for name in items]
    if failures:
        out += ["", "Items that failed (what they reached still counts):",
                ""]
        out += [f"- {f}" for f in failures]
    if changed:
        out += ["", "Files that changed while the census ran (none of their "
                "definitions is listed; rerun the census):", ""]
        out += [f"- `{f}`" for f in changed]
    out += [
        "",
        "## Unreached definitions",
        "",
        "| # | definition | lines | class | why |",
        "|---|---|---|---|---|",
    ]
    for n, d in enumerate(unreached, 1):
        cls, why = classify(d)
        out.append(f"| {n} | `{d.key}` | {d.lines} | {cls} | {why} |")
    out += ["", ledger.rstrip() if ledger else LEDGER, ""]
    return "\n".join(out)


def kept_names(report: pathlib.Path = REPORT) -> Dict[str, str]:
    """``{definition: class}`` of the report's kept rows."""
    kept = {}
    for line in report.read_text(encoding="utf-8").splitlines():
        if line.startswith(LEDGER):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[3] in KEEP_CLASSES:
            kept[cells[1].strip("`")] = cells[3]
    return kept


def _previous_ledger(path: pathlib.Path) -> str:
    if not path.exists():
        return ""
    text = "\n" + path.read_text(encoding="utf-8")
    at = text.find("\n" + LEDGER)
    return text[at + 1:] if at >= 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=pathlib.Path, default=REPORT)
    args = parser.parse_args(argv)
    out = args.out.resolve()
    ledger = _previous_ledger(out)
    # Items run in a temporary directory; the interpreters some of them
    # start must still import this checkout's package.
    search = [str(PACKAGE.parent)] + [
        os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(search)
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            spool = pathlib.Path(work) / "forked"
            spool.mkdir()
            defs, unreached, items, failures, changed = census(
                PACKAGE, traffic, spool)
        finally:
            os.chdir(cwd)
    out.write_text(render(defs, unreached, failures, items, ledger, changed),
                   encoding="utf-8")
    print(f"{len(unreached)} of {len(defs)} definitions unreached; "
          f"{len(failures)} failed item(s); {len(changed)} changed "
          f"file(s); wrote {out}")
    return 1 if failures or changed else 0


if __name__ == "__main__":
    sys.exit(main())
