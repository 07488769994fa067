"""The validation matrix, runnable locally: every registered scenario
passes its golden / closed-form acceptance contract.

These are the tests the CI ``scenarios`` job runs per matrix entry via
``repro run <name> --validate``; here they are grouped for one-command
local runs (``pytest tests/scenarios -m scenarios``).  Marked slow so
the fast CI job stays fast.
"""

import pytest

from repro.scenarios import all_specs, validate_scenario
from repro.scenarios.golden import load_golden, regenerate_golden

pytestmark = [pytest.mark.scenarios, pytest.mark.slow]


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_scenario_passes_its_contract(spec):
    report = validate_scenario(spec)
    assert report.ok, "\n" + report.to_text()


@pytest.mark.parametrize(
    "spec",
    [s for s in all_specs() if s.validation.get("golden")],
    ids=lambda s: s.name,
)
def test_golden_holds_on_replica_keys(spec):
    """The committed goldens (written by a seed sweep) stand under the
    regenerator's replica keys: every observable lands inside its
    committed tolerance."""
    committed = load_golden(spec)["observables"]
    fresh = regenerate_golden(spec, n_seeds=3, write=False)
    assert fresh["replica_ids"] == [0, 1, 2]
    for name, entry in committed.items():
        delta = abs(fresh["observables"][name]["value"] - entry["value"])
        assert delta <= entry["tol"], (name, delta, entry)
