"""API quality meta-tests: docstrings, importability, example hygiene.

These enforce the documentation deliverable mechanically: every public
module, class and function in the library carries a docstring, every
module imports cleanly, and every example script is importable and
exposes a ``main``.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys

import pytest

import repro
import repro.core.motion

SRC_ROOT = pathlib.Path(repro.__file__).parent
EXAMPLES = pathlib.Path(repro.__file__).parents[2] / "examples"
BENCHMARKS = pathlib.Path(repro.__file__).parents[2] / "benchmarks"


def _walk_modules():
    for info in pkgutil.walk_packages(
        [str(SRC_ROOT)], prefix="repro."
    ):
        if info.name.endswith("__main__"):
            continue
        yield info.name


ALL_MODULES = sorted(_walk_modules())


class TestModules:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_imports_and_documented(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__ and mod.__doc__.strip(), (
            f"{module_name} lacks a module docstring"
        )

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_callables_documented(self, module_name):
        mod = importlib.import_module(module_name)
        undocumented = []
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-exports documented at their home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if inspect.isfunction(meth) and not (
                        meth.__doc__ and meth.__doc__.strip()
                    ):
                        undocumented.append(f"{name}.{mname}")
        assert not undocumented, (
            f"{module_name}: undocumented public API: {undocumented}"
        )


#: The pieces of the collision stage (pairing, selection rule, density
#: table, collision kernels).  ``collision_stage`` /
#: ``fused_select_collide`` spell index -> sort -> pair -> select ->
#: collide once; an engine that names one of these is re-spelling it.
STAGE_INTERNALS = {
    "reflection_pairs", "even_odd_pairs", "select_collisions",
    "density_lookup_table", "collide_pairs",
    "collide_rows_with_velocities", "collide_adjacent_pairs",
}


def _names_in(module_name):
    """Every imported, bare or attribute name a module's code spells."""
    source = pathlib.Path(
        importlib.import_module(module_name).__file__
    ).read_text()
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


class TestCollisionStageSpelledOnce:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.ensemble.engine", "repro.parallel.backend"],
    )
    def test_engine_names_no_stage_internal(self, module_name):
        named = _names_in(module_name)
        assert not named & STAGE_INTERNALS, (
            f"{module_name} re-spells the collision stage: "
            f"{sorted(named & STAGE_INTERNALS)}"
        )


#: The pieces of the boundary pass after the reflections (removal,
#: refill, the per-block split of surface hits).
#: ``WindTunnelBoundaries.apply_rebuilding`` spells them once for one
#: block or R; ``deposit`` is absent because the ensemble's constructor
#: seeds each reservoir with it.
BOUNDARY_INTERNALS = {
    "plunger_inflow", "reflect", "withdraw", "remove_inplace",
    "append_inplace", "searchsorted",
}


class TestBoundaryPassSpelledOnce:
    def test_ensemble_names_no_boundary_internal(self):
        named = _names_in("repro.ensemble.engine")
        assert not named & BOUNDARY_INTERNALS, (
            "repro.ensemble.engine re-spells the boundary pass: "
            f"{sorted(named & BOUNDARY_INTERNALS)}"
        )

    @pytest.mark.parametrize("call", ["plunger_inflow", "deposit"])
    def test_removal_and_refill_have_one_call_site(self, call):
        import repro.core.boundary as boundary

        tree = ast.parse(pathlib.Path(boundary.__file__).read_text())
        sites = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == call
        ]
        assert len(sites) == 1, f"{call}( is called at lines {sites}"

    def test_the_twins_are_gone(self):
        from repro.core.boundary import WindTunnelBoundaries
        from repro.core.particles import ParticleArrays
        from repro.ensemble.engine import EnsembleEngine

        for owner, name in (
            (ParticleArrays, "remove_blocked_inplace"),
            (ParticleArrays, "append_blocked_inplace"),
            (WindTunnelBoundaries, "_apply_rebuilding_fast"),
            (WindTunnelBoundaries, "_reflect_full_array"),
            (WindTunnelBoundaries, "_wall_pass"),
            (WindTunnelBoundaries, "_maxwell_wall"),
            (ParticleArrays, "rehome"),
            (EnsembleEngine, "_apply_boundaries"),
            (EnsembleEngine, "_record_surface"),
        ):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"

    def test_only_the_population_has_starts(self):
        # The ensemble reads no blocks of its own: the reservoir's and a
        # replica's rows go through the population.
        import repro.ensemble.engine as engine

        tree = ast.parse(pathlib.Path(engine.__file__).read_text())
        owners = {
            ast.unparse(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "starts"
        }
        assert owners <= {"parts"}


class TestOneReflectionPass:
    """One reflection pass for every wall model and any number of
    blocks: it rewrites a scratch-enabled population in place, and the
    wall kernels of :mod:`repro.geometry.reflect` have one caller."""

    @staticmethod
    def _tree():
        import repro.core.boundary as boundary

        return ast.parse(pathlib.Path(boundary.__file__).read_text())

    def test_no_plain_population_branch(self):
        tree = self._tree()
        calls = {
            ast.unparse(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        attrs = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        assert "ParticleArrays.concatenate" not in calls
        assert not attrs & {"select", "rehome"}

    def test_wall_kernels_have_one_caller(self):
        callers = {
            fn.name
            for fn in ast.walk(self._tree())
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id.startswith("reflect_")
            and node.func.id.endswith("_axis")
        }
        assert len(callers) == 1, callers


class TestOneReservoir:
    """One reservoir for one block or R: its population declares them."""

    def test_the_staging_path_is_gone(self):
        import repro.core.reservoir as reservoir

        assert "peers" not in inspect.signature(
            reservoir.Reservoir.mix
        ).parameters
        for name in ("_staged", "_copy_pairs"):
            assert not hasattr(reservoir.Reservoir, name), name
            assert not hasattr(reservoir, name), name

    def test_ensemble_names_no_reservoir_list(self):
        import repro.ensemble.engine as engine

        assert "reservoirs" not in pathlib.Path(engine.__file__).read_text()


#: What a forked shard worker executes.  One BLAS call in there wakes an
#: OpenBLAS thread pool per worker, and an unpinned ``--workers 2`` run
#: then steps ~3x slower than a pinned one; the population's reductions
#: (``sum_of_squares``) and the moment kernel are spelled without it.
WORKER_PACKAGES = ("core", "parallel", "ensemble", "resilience")
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _short_axis_sums(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sum"
        ):
            for kw in node.keywords:
                if kw.arg == "axis" and ast.unparse(kw.value) in ("1", "-1"):
                    yield node.lineno


class TestMeasurementSpelledWithoutBlas:
    @pytest.mark.parametrize(
        "path",
        sorted(
            p for pkg in WORKER_PACKAGES for p in (SRC_ROOT / pkg).rglob("*.py")
        ),
        ids=lambda p: str(p.relative_to(SRC_ROOT)),
    )
    def test_worker_module_makes_no_blas_call(self, path):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append((node.lineno, node.attr))
        assert not found, f"{path.name} reaches for BLAS: {found}"

    def test_sampling_has_no_short_axis_reduction(self):
        import repro.core.sampling as sampling

        tree = ast.parse(pathlib.Path(sampling.__file__).read_text())
        assert not list(_short_axis_sums(tree))
        # The detector does see the spelling it guards against.
        old = ast.parse("rsq = (particles.rot**2).sum(axis=1)")
        assert list(_short_axis_sums(old)) == [1]


def _files_containing(text: str) -> set:
    return {
        str(path.relative_to(SRC_ROOT))
        for path in SRC_ROOT.rglob("*.py")
        if text in path.read_text()
    }


class TestOneDriver:
    """One step driver: the serial step's two stages, over one block or
    R or a shard's slab; the 3-D slab is a domain and the ensemble a
    stream source."""

    def test_slab_driver_is_gone(self):
        assert importlib.util.find_spec("repro.core.simulation3d") is None
        assert not hasattr(repro.core, "Simulation3D")
        assert not hasattr(repro.core.motion, "advance_with_z")

    def test_motion_advance_has_one_call_site(self):
        assert _files_containing("motion.advance(") == {"core/simulation.py"}

    def test_collision_stage_has_one_call_site(self):
        assert _files_containing("collision_stage(") == {"core/simulation.py"}

    @pytest.mark.parametrize("call", [".apply_rebuilding(", ".mix("])
    def test_boundary_pass_and_mix_have_two_engines(self, call):
        # The CM-2 emulation engine runs its own fixed-point loop.
        assert _files_containing(call) == {
            "core/simulation.py", "core/engine_cm.py",
        }

    def test_backend_defines_no_diagnostics_row(self):
        import repro.parallel.backend as backend

        tree = ast.parse(pathlib.Path(backend.__file__).read_text())
        names = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert not {n for n in names if n.startswith("D_")}
        assert not names & {"NDIAG", "PHASE_COLUMNS"}

    def test_ensemble_defines_no_step_loop(self):
        import repro.ensemble.engine as engine

        tree = ast.parse(pathlib.Path(engine.__file__).read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"step", "run", "run_schedule"}
        assert issubclass(engine.EnsembleEngine, repro.Simulation)

    @pytest.mark.parametrize(
        "module_name, name",
        [
            ("repro.core.sampling", "EnsembleSampler"),
            ("repro.ensemble", "EnsembleSampler"),
            ("repro.ensemble", "EnsembleStepDiagnostics"),
            ("repro.ensemble.engine", "EnsembleStepDiagnostics"),
        ],
    )
    def test_ensemble_twins_are_gone(self, module_name, name):
        assert not hasattr(importlib.import_module(module_name), name)

    def test_digest_reads_one_kind_of_engine(self):
        import repro.verify as verify

        source = pathlib.Path(verify.__file__).read_text()
        assert "hasattr(" not in source


class TestOneSorter:
    """One sorter class for one block or R; each driver builds one."""

    def test_blocked_sorter_is_gone(self):
        import repro.core.sortstep as sortstep

        assert not hasattr(sortstep, "BlockedSorter")

    def test_incremental_sorter_has_two_construction_sites(self):
        assert _files_containing("IncrementalSorter(") == {
            "core/simulation.py", "parallel/backend.py",
        }


class TestOneSnapshot:
    """One writer and one loader for one block or R."""

    @pytest.mark.parametrize(
        "name", ["save_ensemble", "load_ensemble", "ENSEMBLE_FORMAT_VERSION"]
    )
    def test_ensemble_twins_are_gone(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro.io.snapshots import {name}", {})

    def test_archives_are_written_in_one_function(self):
        import repro.io.snapshots as snapshots

        tree = ast.parse(pathlib.Path(snapshots.__file__).read_text())

        def writers(node):
            return [
                n.lineno
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and n.attr in ("savez", "savez_compressed")
            ]

        (save,) = [
            n
            for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name == "save_simulation"
        ]
        assert writers(save) and writers(save) == writers(tree)


def _callee(call: ast.Call):
    """The called name: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(
        func, "attr", None
    )


def _call_sites(callee: str) -> set:
    """``(file, enclosing def)`` of every call to ``callee`` in the
    package, the def spelled ``Class.method`` / ``outer.inner``."""
    sites = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,), path)
                continue
            if isinstance(child, ast.Call) and _callee(child) == callee:
                sites.add((path, ".".join(scope)))
            visit(child, scope, path)

    for path in SRC_ROOT.rglob("*.py"):
        visit(
            ast.parse(path.read_text()), (), str(path.relative_to(SRC_ROOT))
        )
    return sites


class TestOneRunPath:
    """One builder, one harvest, one check rule for one block or R."""

    def test_a_spec_becomes_a_run_in_one_place(self):
        # The loader dry-builds the config it accepts, and builds no run.
        assert _call_sites("build_config") == {
            ("scenarios/spec.py", "ScenarioSpec.build_simulation"),
            ("scenarios/spec.py", "ScenarioSpec.from_dict"),
        }

    def test_every_wedge_bench_runs_the_spec(self):
        # A bench builds its wedge tunnel from the registered spec
        # (execute, build_simulation, build_config); these still build
        # an engine or a config by hand, each waiting on a ROADMAP item.
        waiting = {
            "bench_fig7_scaling.py": (
                {"SimulationConfig", "Domain"},
                "item 10: the CM engine on an empty tunnel",
            ),
            "bench_ext_weak_scaling.py": (
                {"SimulationConfig", "Domain"},
                "item 10: the CM engine on an empty tunnel",
            ),
            "bench_abl_dynamic_vp.py": (
                {"SimulationConfig", "Domain", "Wedge"},
                "item 10: the CM engine on a non-paper placement",
            ),
            "bench_table_phase_breakdown.py": (
                {"Simulation"},
                "item 7: sort_kernel is a config field, not a spec setting",
            ),
        }
        builders = {
            "SimulationConfig", "Simulation", "EnsembleEngine", "Domain",
            "Wedge",
        }
        found = {}
        for path in sorted(BENCHMARKS.glob("*.py")):
            names = {
                _callee(node)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
            } & builders
            if names:
                found[path.name] = names
        assert found == {k: names for k, (names, _) in waiting.items()}

    def test_the_bench_suite_has_no_run_builder_of_its_own(self):
        # common.py holds the suite's scale, not a second run path.
        tree = ast.parse((BENCHMARKS / "common.py").read_text())
        assert not [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]

    def test_the_ensemble_is_built_by_the_builder_and_the_loader(self):
        assert _call_sites("EnsembleEngine") == {
            ("scenarios/spec.py", "ScenarioSpec.build_simulation"),
            ("io/snapshots.py", "load_simulation"),
            ("ensemble/engine.py", "verify_replica_equality"),
        }

    @pytest.mark.parametrize(
        "module_name, name",
        [
            ("repro.cli", "_run_ensemble"),
            ("repro.cli", "_cmd_wedge"),
            ("repro.ensemble", "replica_scenario_runs"),
            ("repro.ensemble.engine", "replica_scenario_runs"),
            ("repro.ensemble.engine", "ReplicaGauges"),
            ("repro.scenarios.golden", "measure_check_ensemble"),
        ],
    )
    def test_the_second_spellings_are_gone(self, module_name, name):
        with pytest.raises(ImportError):
            exec(f"from {module_name} import {name}", {})

    def test_the_ensemble_has_no_results_of_its_own(self):
        from repro.ensemble import EnsembleEngine

        for name in ("density_ratio_fields", "ramp_pressure_ratios",
                     "statistic"):
            assert not hasattr(EnsembleEngine, name), name
        assert "metrics" not in inspect.signature(EnsembleEngine).parameters

    def test_no_seed_sweep_and_no_ci_gate(self):
        import repro.scenarios.golden as golden

        for path in SRC_ROOT.rglob("*.py"):
            assert "101 *" not in path.read_text(), path
        assert '"ci"' not in pathlib.Path(golden.__file__).read_text()


class TestEveryOptionHasACaller:
    """A parameter that no caller sets is the constant it always is:
    these signatures keep only the options something passes."""

    @pytest.mark.parametrize(
        "target, kept",
        [
            (
                "repro.resilience.supervisor:SupervisedRun",
                ("sim", "run_dir", "checkpoint_every", "audit_every",
                 "max_retries", "backoff_base", "fault_plan", "_meta"),
            ),
            ("repro.resilience.audit:InvariantAuditor", ()),
            (
                "repro.telemetry.hub:Telemetry",
                ("run_dir", "sample_every", "observables_every", "live",
                 "port", "max_spans"),
            ),
            ("repro.telemetry.stream:JobEventTail", ("job_dir", "cursor")),
            ("repro.service.watch:JobView", ("job_id",)),
            (
                "repro.telemetry.metrics:MetricsRegistry.histogram",
                ("self", "name", "labels", "help"),
            ),
            ("repro.telemetry.metrics:Histogram", ("name", "help")),
            ("repro.core.particles:ParticleArrays.enable_scratch", ("self",)),
            ("repro.core.particles:ScratchBuffers", ()),
        ],
    )
    def test_signature_keeps_only_set_options(self, target, kept):
        module_name, qualname = target.split(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert tuple(inspect.signature(obj).parameters) == kept

    def test_orchestrator_config_fields(self):
        import dataclasses

        from repro.service import OrchestratorConfig

        assert tuple(
            f.name for f in dataclasses.fields(OrchestratorConfig)
        ) == (
            "workers", "queue_limit", "heartbeat_every",
            "heartbeat_timeout", "default_deadline", "max_job_retries",
            "backoff_base", "poll_interval", "audit_every", "prom_every",
            "fleet_every",
        )

    def test_the_audit_config_is_gone(self):
        import repro.resilience

        assert not hasattr(repro.resilience, "AuditConfig")
        assert "AuditConfig" not in repro.resilience.__all__

    def test_the_backoff_is_written_once(self):
        assert _call_sites("backoff_seconds") == {
            ("resilience/supervisor.py", "SupervisedRun._recover"),
            ("service/orchestrator.py", "Orchestrator._finish"),
        }

    def test_one_worker_is_the_serial_backend(self):
        from repro.errors import ConfigurationError
        from repro.parallel.backend import ShardedBackend

        with pytest.raises(ConfigurationError, match="serial"):
            ShardedBackend(1)


def _load_tool(name: str):
    path = SRC_ROOT.parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


def _callers_outside_tests() -> "Counter":
    """How often each name is spelled outside ``tests/``: NAME tokens
    (a ``def`` or ``class`` name excluded) and identifiers inside string
    literals, in ``src/``, ``benchmarks/``, ``examples/`` and ``tools/``,
    plus every identifier in the CI workflows.  A package
    ``__init__``'s imports and ``__all__`` re-export a name; they do not
    call it."""
    import io
    import re
    import tokenize
    from collections import Counter

    root = SRC_ROOT.parents[1]
    words = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    # Python 3.12 splits f-strings into tokens of their own.
    strings = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", None)}
    seen: Counter = Counter()
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in (root / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            skip = set()
            if path.name == "__init__.py":
                for node in ast.walk(ast.parse(text)):
                    is_all = isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in node.targets
                    )
                    if isinstance(node, ast.ImportFrom) or is_all:
                        skip.update(range(node.lineno, node.end_lineno + 1))
            previous = None
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.start[0] in skip:
                    continue
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    seen[tok.string] += 1
                elif tok.type in strings:
                    seen.update(words.findall(tok.string))
                if tok.type == tokenize.NAME:
                    previous = tok.string
    for path in (root / ".github").rglob("*.yml"):
        seen.update(words.findall(path.read_text(encoding="utf-8")))
    return seen


class TestEveryFunctionHasACaller:
    """The static half of the reachability census: a function or method
    of ``src/repro`` whose only callers are tests is dead, unless a kept
    row of ``docs/reachability.md`` (safety, oracle, documented entry
    point, paper evidence) names it.  ``tools/reachability.py`` is the
    dynamic half; it regenerates the report."""

    def test_only_kept_definitions_lack_a_caller(self):
        tool = _load_tool("reachability")
        kept = tool.kept_names()
        seen = _callers_outside_tests()
        orphans = []
        for d in tool.definitions(SRC_ROOT):
            name = d.qualname.rsplit(".", 1)[-1]
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and seen[name] == 0 and d.key not in kept:
                orphans.append(d.key)
        assert orphans == []

    def test_kept_rows_name_live_definitions(self):
        tool = _load_tool("reachability")
        live = {d.key for d in tool.definitions(SRC_ROOT)}
        assert sorted(set(tool.kept_names()) - live) == []


class TestExamples:
    def _example_files(self):
        return sorted(EXAMPLES.glob("*.py"))

    def test_examples_exist(self):
        assert len(self._example_files()) >= 3

    @pytest.mark.parametrize(
        "path",
        sorted((pathlib.Path(repro.__file__).parents[2] / "examples").glob("*.py")),
        ids=lambda p: p.stem,
    )
    def test_example_compiles_and_has_main(self, path):
        source = path.read_text()
        compiled = compile(source, str(path), "exec")
        assert "def main(" in source, f"{path.name} lacks a main()"
        assert '"""' in source[:400], f"{path.name} lacks a docstring"
        assert "__main__" in source, f"{path.name} lacks a __main__ guard"
