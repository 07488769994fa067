"""Declarative scenario registry (spec -> simulation -> validation).

Public surface::

    from repro.scenarios import get, names, ScenarioSpec
    spec = get("cylinder")
    sim = spec.build_simulation()      # replicas=R: R replica blocks
    runs = execute(spec, replicas=4)   # one ScenarioRun per block
    report = validate_scenario(spec)   # golden / closed-form checks

Importing this package registers the built-in library
(:mod:`repro.scenarios.library`).  Regenerate golden files with
``python -m repro.scenarios <name>``.
"""

from repro.scenarios.spec import OVERRIDE_KEYS, ScenarioSpec
from repro.scenarios.registry import all_specs, get, names, register
from repro.scenarios.golden import (
    ScenarioRun,
    ValidationReport,
    execute,
    regenerate_golden,
    run_scenario,
    validate_contract,
    validate_scenario,
)
from repro.scenarios import library  # noqa: F401  (registers the library)

__all__ = [
    "ScenarioSpec",
    "ScenarioRun",
    "ValidationReport",
    "OVERRIDE_KEYS",
    "register",
    "get",
    "names",
    "all_specs",
    "execute",
    "run_scenario",
    "validate_scenario",
    "validate_contract",
    "regenerate_golden",
]
