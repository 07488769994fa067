"""Shared fixtures for the service suite: tiny jobs, fast schedulers."""

from __future__ import annotations

import pytest

from repro.service import Orchestrator, OrchestratorConfig

#: A wedge small enough that a full job finishes in a couple of
#: seconds while still crossing several checkpoint/heartbeat chunks.
TINY = {"nx": 32, "ny": 16, "density": 6.0, "transient": 0, "average": 24}


#: The z-periodic slab (``wedge3d``) at the same few-seconds scale.
TINY_SLAB = {"nx": 32, "ny": 16, "density": 2.0, "transient": 0, "average": 24}


def fast_config(**overrides) -> OrchestratorConfig:
    base = dict(
        workers=2,
        queue_limit=8,
        heartbeat_every=8,
        heartbeat_timeout=30.0,
        poll_interval=0.02,
        backoff_base=0.05,
        prom_every=0.5,
    )
    base.update(overrides)
    return OrchestratorConfig(**base)


@pytest.fixture
def tiny_overrides():
    return dict(TINY)


@pytest.fixture
def orchestrator(tmp_path):
    """A running orchestrator on a temp data dir, shut down afterwards."""
    orch = Orchestrator(tmp_path / "svc", fast_config())
    yield orch
    if not orch._dead:
        orch.shutdown()


def wait_terminal(orch, job_id, timeout=120.0, poll=0.05):
    import time

    deadline = time.time() + timeout
    while time.time() < deadline:
        status = orch.status(job_id)
        if status["terminal"]:
            return status
        time.sleep(poll)
    raise AssertionError(
        f"job {job_id} not terminal after {timeout}s: "
        f"{orch.status(job_id)}"
    )
