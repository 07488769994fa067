"""Session fixtures for the figure/table benchmarks.

The expensive part of every figure bench is the converged wind-tunnel
solution: the ``wedge`` scenario run through
:func:`repro.scenarios.execute`, once per session, its
:class:`~repro.scenarios.ScenarioRun` shared.  Each bench prints an
:class:`repro.analysis.report.ExperimentRecord` (paper vs measured) and
appends it to ``benchmarks/out/records.md``.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import MARKDOWN_HEADER, ExperimentRecord
from repro.scenarios import execute
from repro.scenarios.library import WEDGE

from benchmarks.common import AVERAGE_STEPS, DENSITY, OUT_DIR, TRANSIENT_STEPS


def _overrides(lambda_mfp: float) -> dict:
    return {
        "lambda_mfp": lambda_mfp,
        "density": DENSITY,
        "transient": TRANSIENT_STEPS,
        "average": AVERAGE_STEPS,
    }


@pytest.fixture(scope="session")
def continuum_solution():
    """Figures 1-3: near-continuum (lambda = 0) Mach 4 wedge solution."""
    return execute(WEDGE, _overrides(0.0))[0]


@pytest.fixture(scope="session")
def rarefied_solution():
    """Figures 4-6: rarefied (lambda = 0.5, Kn = 0.02) solution."""
    return execute(WEDGE, _overrides(0.5))[0]


@pytest.fixture(scope="session")
def record_sink():
    """Collects experiment records and writes them at session end."""
    records: list = []
    yield records
    if records:
        OUT_DIR.mkdir(exist_ok=True)
        lines = [MARKDOWN_HEADER]
        lines += [r.to_markdown_rows() for r in records]
        (OUT_DIR / "records.md").write_text("\n".join(lines) + "\n")


@pytest.fixture
def emit(record_sink):
    """Print a record and queue it for the session markdown dump."""

    def _emit(record: ExperimentRecord) -> ExperimentRecord:
        print("\n" + record.to_text())
        record_sink.append(record)
        return record

    return _emit
