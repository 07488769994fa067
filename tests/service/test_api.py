"""HTTP API round-trips: routes, status codes, typed error mapping."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    JobNotFoundError,
    JobStateError,
    ServiceError,
)
from repro.service import Orchestrator, ServiceAPI, ServiceClient
from repro.service import store as st
from tests.service.conftest import fast_config

pytestmark = pytest.mark.service


@pytest.fixture
def service(tmp_path):
    """(orchestrator, api, client) on an ephemeral localhost port."""
    orch = Orchestrator(tmp_path / "svc", fast_config())
    api = ServiceAPI(orch, port=0)
    client = ServiceClient(f"http://127.0.0.1:{api.port}")
    yield orch, api, client
    api.close()
    if not orch._dead:
        orch.shutdown()


class TestRoutes:
    def test_healthz(self, service):
        _, _, client = service
        health = client.health()
        assert health["ok"] is True
        assert health["queue_depth"] == 0

    def test_submit_wait_result_round_trip(
        self, service, tiny_overrides
    ):
        _, _, client = service
        out = client.submit(
            scenario="wedge", seed=21, overrides=tiny_overrides
        )
        assert out["cached"] is False
        final = client.wait(out["job_id"], timeout=120)
        assert final["state"] == st.DONE
        result = client.result(out["job_id"])
        assert result["steps"] == tiny_overrides["average"]
        # Cached resubmission comes back HTTP 200 with cached=True.
        again = client.submit(
            scenario="wedge", seed=21, overrides=tiny_overrides
        )
        assert again["cached"] is True
        assert again["job_id"] == out["job_id"]
        jobs = client.list_jobs()
        assert [j["job_id"] for j in jobs] == [out["job_id"]]

    def test_metrics_exposition(self, service):
        _, _, client = service
        text = client.metrics()
        assert "# TYPE repro_service_submissions_total counter" in text

    def test_unknown_route_is_404(self, service):
        _, api, _ = service
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://127.0.0.1:{api.port}/teapot"
            )
        assert err.value.code == 404


class TestErrorMapping:
    def test_unknown_job_is_404_typed(self, service):
        _, _, client = service
        with pytest.raises(JobNotFoundError):
            client.status("nope")
        with pytest.raises(JobNotFoundError):
            client.result("nope")

    def test_bad_overrides_are_400_typed(self, service):
        _, _, client = service
        with pytest.raises(ConfigurationError, match="bogus"):
            client.submit(scenario="wedge", overrides={"bogus": 1})

    def test_malformed_deadline_is_400_typed(self, service):
        _, _, client = service
        with pytest.raises(ConfigurationError, match="deadline"):
            client.submit(scenario="wedge", deadline="soon")

    def test_unknown_wall_model_is_400_at_submit(self, service):
        # Rejected by the config the loader dry-builds, before a job is
        # journaled -- not later, in the worker.
        from repro.scenarios import get

        _, _, client = service
        spec = {**get("wedge").to_dict(), "boundaries": {"wall_model": "x"}}
        with pytest.raises(ConfigurationError, match="wall_model"):
            client.submit(spec=spec)
        assert client.list_jobs() == []

    def test_malformed_json_body_is_400(self, service):
        _, api, _ = service
        req = urllib.request.Request(
            f"http://127.0.0.1:{api.port}/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"] == "ConfigurationError"

    def test_backpressure_is_429_typed(self, tmp_path, tiny_overrides):
        orch = Orchestrator(
            tmp_path, fast_config(queue_limit=1), start=False
        )
        api = ServiceAPI(orch, port=0)
        client = ServiceClient(f"http://127.0.0.1:{api.port}")
        try:
            client.submit(
                scenario="wedge", seed=1, overrides=tiny_overrides
            )
            with pytest.raises(BackpressureError) as err:
                client.submit(
                    scenario="wedge", seed=2, overrides=tiny_overrides
                )
            assert err.value.context["limit"] == 1
        finally:
            api.close()
            orch.shutdown()

    def test_cancel_terminal_job_is_409_typed(
        self, tmp_path, tiny_overrides
    ):
        orch = Orchestrator(tmp_path, fast_config(), start=False)
        api = ServiceAPI(orch, port=0)
        client = ServiceClient(f"http://127.0.0.1:{api.port}")
        try:
            out = client.submit(
                scenario="wedge", seed=1, overrides=tiny_overrides
            )
            client.cancel(out["job_id"])
            with pytest.raises(JobStateError):
                client.cancel(out["job_id"])
        finally:
            api.close()
            orch.shutdown()

    def test_shut_down_service_is_503_typed(
        self, service, tiny_overrides
    ):
        orch, _, client = service
        orch.shutdown()
        with pytest.raises(ServiceError):
            client.submit(
                scenario="wedge", seed=1, overrides=tiny_overrides
            )


class TestSweep:
    """POST /sweep: grid expansion through the normal submit path."""

    def test_grid_expansion_and_order(self, service, tiny_overrides):
        _, _, client = service
        out = client.sweep(
            scenario="wedge",
            mach=[3.0, 5.0],
            seeds=[1, 2],
            overrides=tiny_overrides,
        )
        assert out["count"] == 4
        jobs = out["jobs"]
        # mach outermost, seed innermost.
        assert [(j["mach"], j["seed"]) for j in jobs] == [
            (3.0, 1), (3.0, 2), (5.0, 1), (5.0, 2)
        ]
        assert len({j["job_id"] for j in jobs}) == 4
        for j in jobs:
            assert j["cached"] is False
            assert j["kn"] is None

    def test_omitted_axes_submit_single_job(self, service, tiny_overrides):
        _, _, client = service
        out = client.sweep(
            scenario="wedge", seeds=[9], overrides=tiny_overrides
        )
        assert out["count"] == 1
        assert out["jobs"][0]["mach"] is None

    def test_kn_axis_overrides_lambda_mfp(self, service, tiny_overrides):
        orch, _, client = service
        out = client.sweep(
            scenario="wedge",
            kn=[0.25],
            seeds=[4],
            overrides=tiny_overrides,
        )
        job = orch.status(out["jobs"][0]["job_id"])
        assert job["overrides"]["lambda_mfp"] == 0.25

    def test_resweep_hits_dedup_cache(self, service, tiny_overrides):
        _, _, client = service
        first = client.sweep(
            scenario="wedge", seeds=[7], overrides=tiny_overrides
        )
        for j in first["jobs"]:
            client.wait(j["job_id"], timeout=120)
        again = client.sweep(
            scenario="wedge", seeds=[7], overrides=tiny_overrides
        )
        assert again["jobs"][0]["cached"] is True
        assert again["jobs"][0]["job_id"] == first["jobs"][0]["job_id"]

    def test_missing_scenario_is_400(self, service):
        _, _, client = service
        with pytest.raises(ConfigurationError):
            client.sweep(seeds=[1])

    def test_empty_axis_is_400(self, service):
        _, _, client = service
        with pytest.raises(ConfigurationError):
            client.sweep(scenario="wedge", mach=[])

    def test_grid_over_limit_is_400(self, service):
        _, _, client = service
        with pytest.raises(ConfigurationError) as err:
            client.sweep(scenario="wedge", seeds=list(range(65)))
        assert "limit" in str(err.value)

    def test_backpressure_reports_partial_submission(
        self, tmp_path, tiny_overrides
    ):
        orch = Orchestrator(
            tmp_path, fast_config(queue_limit=2), start=False
        )
        api = ServiceAPI(orch, port=0)
        client = ServiceClient(f"http://127.0.0.1:{api.port}")
        try:
            with pytest.raises(BackpressureError) as err:
                client.sweep(
                    scenario="wedge",
                    seeds=[1, 2, 3, 4],
                    overrides=tiny_overrides,
                )
            assert err.value.context["submitted"] == 2
            assert err.value.context["total"] == 4
        finally:
            api.close()
            orch.shutdown()


class TestSweepCLI:
    def test_sweep_command_prints_grid(
        self, service, tiny_overrides, capsys
    ):
        from repro.cli import main

        _, api, _ = service
        code = main([
            "sweep", "wedge",
            "--mach", "3.0", "4.0",
            "--seeds", "1",
            "--nx", str(tiny_overrides["nx"]),
            "--ny", str(tiny_overrides["ny"]),
            "--density", str(tiny_overrides["density"]),
            "--steps", str(tiny_overrides["average"]),
            "--url", f"http://127.0.0.1:{api.port}",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 job(s) submitted" in out
        assert "mach=3.0 seed=1" in out
        assert "mach=4.0 seed=1" in out
