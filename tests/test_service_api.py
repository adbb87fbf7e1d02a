"""The service HTTP API: routing, payloads, live progress, metrics."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import JobState, JobStore, ServiceWorker
from repro.service.api import ServiceAPI, serve


@pytest.fixture
def store(tmp_path) -> JobStore:
    return JobStore(tmp_path / "store")


@pytest.fixture
def api(store) -> ServiceAPI:
    return ServiceAPI(store)


SPEC = {"dataset": "2k", "scale": 0.05, "config": {"rng_seed": 7}}


class TestDispatch:
    """Transport-free routing through ServiceAPI.dispatch."""

    def test_submit_and_status_round_trip(self, api):
        status, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        assert status == 201
        job_id = payload["job_id"]
        status, payload = api.dispatch("GET", f"/jobs/{job_id}", {}, None)
        assert status == 200
        assert payload["state"] == JobState.QUEUED
        assert payload["spec"]["dataset"] == "2k"

    def test_submit_rejects_bad_specs(self, api):
        status, payload = api.dispatch(
            "POST", "/jobs", {}, {"dataset": "2k", "scale": -1}
        )
        assert status == 400 and "scale" in payload["error"]
        status, payload = api.dispatch(
            "POST", "/jobs", {}, {"config": {"bogus_knob": 1}}
        )
        assert status == 400 and "invalid job config" in payload["error"]
        status, payload = api.dispatch(
            "POST", "/jobs", {}, {"retry": {"max_attemps": 2}}
        )
        assert status == 400 and "max_attemps" in payload["error"]

    def test_submit_rejects_removed_backend_option(self, api, store):
        # FaCTConfig lost its backend field: an old client pinning it
        # must fail loudly at submit, not run on an ignored setting.
        status, payload = api.dispatch(
            "POST", "/jobs", {}, dict(SPEC, config={"backend": "numpy"})
        )
        assert status == 400
        assert payload["code"] == "job-error"
        assert "invalid job config" in payload["error"]
        assert "'backend'" in payload["error"]
        assert store.jobs() == []

    def test_list_filters_by_state(self, api):
        api.dispatch("POST", "/jobs", {}, dict(SPEC))
        status, payload = api.dispatch(
            "GET", "/jobs", {"state": "queued"}, None
        )
        assert status == 200 and len(payload["jobs"]) == 1
        status, payload = api.dispatch(
            "GET", "/jobs", {"state": "completed"}, None
        )
        assert status == 200 and payload["jobs"] == []
        status, payload = api.dispatch(
            "GET", "/jobs", {"state": "no-such"}, None
        )
        assert status == 400

    def test_cancel_via_api(self, api, store):
        _, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        status, payload = api.dispatch(
            "POST", f"/jobs/{payload['job_id']}/cancel", {}, None
        )
        assert status == 200
        assert payload["state"] == JobState.CANCELLED

    def test_result_is_404_until_solved(self, api, store):
        _, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        job_id = payload["job_id"]
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/result", {}, None
        )
        assert status == 404 and payload["state"] == JobState.QUEUED
        ServiceWorker(store, worker_id="w-api").run_once()
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/result", {}, None
        )
        assert status == 200 and payload["labels"]
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/certificate", {}, None
        )
        assert status == 200 and payload["valid"] is True

    def test_events_support_incremental_polling(self, api, store):
        _, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        job_id = payload["job_id"]
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/events", {}, None
        )
        assert status == 200 and payload["events"] == []
        ServiceWorker(store, worker_id="w-ev").run_once()
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/events", {}, None
        )
        assert payload["events"] and payload["next_offset"] > 0
        offset = payload["next_offset"]
        status, payload = api.dispatch(
            "GET", f"/jobs/{job_id}/events", {"offset": str(offset)}, None
        )
        assert payload["events"] == []  # nothing new after completion
        status, _ = api.dispatch(
            "GET", f"/jobs/{job_id}/events", {"offset": "nope"}, None
        )
        assert status == 400

    def test_unknown_routes_and_methods(self, api):
        assert api.dispatch("GET", "/jobs/j-missing", {}, None)[0] == 404
        assert api.dispatch("GET", "/nope", {}, None)[0] == 404
        assert api.dispatch("DELETE", "/jobs", {}, None)[0] == 405
        assert api.dispatch("GET", "/jobs/j-x/cancel", {}, None)[0] == 405

    def test_healthz_and_metrics(self, api):
        api.dispatch("POST", "/jobs", {}, dict(SPEC))
        status, payload = api.dispatch("GET", "/healthz", {}, None)
        assert status == 200 and payload["ok"]
        assert payload["counts"][JobState.QUEUED] == 1
        status, text, content_type = api.dispatch(
            "GET", "/metrics", {}, None
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert 'repro_service_jobs{state="queued"} 1.0' in text


class TestHTTPServer:
    """The stdlib server, over a real socket."""

    @pytest.fixture
    def http(self, store):
        server, reaper = serve(store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]

        def call(method, path, body=None):
            data = json.dumps(body).encode() if body is not None else None
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                method=method,
                data=data,
                headers={"Content-Type": "application/json"} if data else {},
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, response.read().decode()
            except urllib.error.HTTPError as error:
                return error.code, error.read().decode()

        yield call
        server.shutdown()
        reaper.stop()
        server.server_close()

    def test_full_job_lifecycle_over_http(self, http, store):
        status, text = http("POST", "/jobs", SPEC)
        assert status == 201
        job_id = json.loads(text)["job_id"]

        status, _ = http("GET", f"/jobs/{job_id}")
        assert status == 200
        assert http("GET", f"/jobs/{job_id}/result")[0] == 404

        ServiceWorker(store, worker_id="w-http").run_once()

        status, text = http("GET", f"/jobs/{job_id}/result")
        assert status == 200 and json.loads(text)["labels"]
        status, text = http("GET", f"/jobs/{job_id}/events?offset=0")
        assert status == 200 and json.loads(text)["next_offset"] > 0
        status, text = http("GET", "/metrics")
        assert 'state="completed"' in text

    def test_empty_body_submits_a_default_job(self, http):
        status, text = http("POST", "/jobs", None)
        assert status == 201
        assert json.loads(text)["state"] == JobState.QUEUED

    def test_bad_json_body_is_400(self, store):
        server, reaper = serve(store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/jobs",
            method="POST",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            reaper.stop()
            server.server_close()


class TestErrorCodesAndPreflightGate:
    """Machine-readable error codes + the submit-time preflight gate."""

    def test_validation_errors_carry_codes(self, api):
        status, payload = api.dispatch(
            "POST", "/jobs", {}, {"dataset": "2k", "scale": -1}
        )
        assert status == 400 and payload["code"] == "job-error"
        status, payload = api.dispatch("GET", "/jobs/j-missing", {}, None)
        assert status == 404 and payload["code"] == "job-error"
        status, payload = api.dispatch(
            "POST", "/jobs/j-missing/cancel", {}, None
        )
        assert status == 404 and payload["code"] == "job-error"

    def test_unknown_dataset_carries_dataset_error_code(self, api):
        status, payload = api.dispatch(
            "POST", "/jobs", {}, {"dataset": "no-such-dataset"}
        )
        assert status == 400 and payload["code"] == "dataset-error"

    def test_gate_rejects_provably_infeasible_submit(self, api, store):
        spec = dict(SPEC, constraints=["SUM:TOTALPOP:1e12:-"])
        status, payload = api.dispatch("POST", "/jobs", {}, spec)
        assert status == 422
        assert payload["code"] == "infeasible-problem"
        report = payload["preflight"]
        assert report["ok"] is False
        finding = next(
            f
            for f in report["findings"]
            if f["code"] == "infeasible-sum-lower"
        )
        assert finding["data"]["deficit"] > 0
        assert finding["data"]["bound"] == 1e12
        # Nothing was journaled: the doomed job never existed.
        assert store.jobs() == []

    def test_gate_honors_preflight_opt_out(self, api, store):
        spec = dict(
            SPEC,
            constraints=["SUM:TOTALPOP:1e12:-"],
            config={"rng_seed": 7, "preflight": False},
        )
        status, payload = api.dispatch("POST", "/jobs", {}, spec)
        assert status == 201  # admitted; the worker will FAIL it
        from repro.service import ServiceWorker as _Worker

        _Worker(store, worker_id="w-optout").run_once()
        status, job = api.dispatch(
            "GET", f"/jobs/{payload['job_id']}", {}, None
        )
        assert job["state"] == JobState.FAILED
        assert job["fault_signature"] is None  # non-retryable, no retry

    def test_gate_admits_feasible_jobs_untouched(self, api):
        status, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        assert status == 201
        assert payload["state"] == JobState.QUEUED


class TestMetricsEndpoints:
    """Per-job and fleet Prometheus exposition (transport-free)."""

    def _submit(self, api):
        _, payload = api.dispatch("POST", "/jobs", {}, dict(SPEC))
        return payload["job_id"]

    def test_job_metrics_before_any_solve(self, api):
        job_id = self._submit(api)
        status, text, content_type = api.dispatch(
            "GET", f"/jobs/{job_id}/metrics", {}, None
        )
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        assert "repro_job_progress_fraction 0.0" in text
        assert 'repro_job_state{state="queued"} 1.0' in text
        assert "# HELP repro_job_progress_fraction" in text

    def test_job_metrics_after_completion(self, api, store):
        job_id = self._submit(api)
        ServiceWorker(store, worker_id="w-jm").run_once()
        status, text, _ = api.dispatch(
            "GET", f"/jobs/{job_id}/metrics", {}, None
        )
        assert status == 200
        assert "repro_job_progress_fraction 1.0" in text
        assert "repro_job_progress_eta_seconds 0.0" in text
        assert 'repro_job_state{state="completed"} 1.0' in text
        assert "repro_job_events_total" in text
        # The solve's own snapshot rides along (phase counters etc).
        assert "repro_phase_seconds" in text
        fraction = next(
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_job_progress_fraction ")
        )
        assert 0.0 <= fraction <= 1.0

    def test_job_metrics_unknown_job_is_404(self, api):
        outcome = api.dispatch("GET", "/jobs/j-missing/metrics", {}, None)
        assert outcome[0] == 404

    def test_fleet_metrics_counters_and_histograms(self, api, store):
        self._submit(api)
        ServiceWorker(store, worker_id="w-fm").run_once()
        _, text, _ = api.dispatch("GET", "/metrics", {}, None)
        assert "repro_service_completions_total 1.0" in text
        assert "repro_service_leases_total 1.0" in text
        assert "repro_service_solve_seconds_count 1.0" in text
        assert "repro_service_queue_wait_seconds_count" in text
        assert 'repro_service_phase_seconds_count{phase="tabu"} 1.0' in text
        assert "# HELP repro_service_jobs" in text

    def test_status_payload_carries_health(self, api, store):
        from repro.service.api import health_sweep
        from repro.obs.health import StallDetector

        job_id = self._submit(api)
        job = store.claim("w-health")
        assert job.job_id == job_id
        health_sweep(store, StallDetector(stall_after_seconds=3600.0))
        status, payload = api.dispatch("GET", f"/jobs/{job_id}", {}, None)
        assert status == 200
        assert payload["health"] == "healthy"
        assert "health_detail" in payload
        _, text, _ = api.dispatch("GET", "/metrics", {}, None)
        assert "repro_service_stalled_jobs 0.0" in text


class TestFastAPIAdapter:
    """The optional FastAPI adapter serves the same routes (skipped
    when fastapi/httpx are not installed — CI runs stdlib-only)."""

    @pytest.fixture
    def client(self, store):
        pytest.importorskip("fastapi")
        pytest.importorskip("httpx")
        from fastapi.testclient import TestClient

        from repro.service.api import create_fastapi_app

        return TestClient(create_fastapi_app(store))

    def test_submit_status_events_round_trip(self, client, store):
        response = client.post("/jobs", json=dict(SPEC))
        assert response.status_code == 201
        job_id = response.json()["job_id"]
        assert client.get(f"/jobs/{job_id}").json()["state"] == "queued"
        ServiceWorker(store, worker_id="w-fapi").run_once()
        page = client.get(f"/jobs/{job_id}/events?offset=0").json()
        assert page["events"] and page["next_offset"] > 0
        assert page["state"] == "completed"

    def test_metrics_routes_serve_prometheus_text(self, client, store):
        response = client.post("/jobs", json=dict(SPEC))
        job_id = response.json()["job_id"]
        fleet = client.get("/metrics")
        assert fleet.status_code == 200
        assert fleet.headers["content-type"].startswith("text/plain")
        assert 'repro_service_jobs{state="queued"} 1.0' in fleet.text
        per_job = client.get(f"/jobs/{job_id}/metrics")
        assert per_job.status_code == 200
        assert per_job.headers["content-type"].startswith("text/plain")
        assert "repro_job_progress_fraction 0.0" in per_job.text
        assert client.get("/jobs/j-missing/metrics").status_code == 404
