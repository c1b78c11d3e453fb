"""HTTP layer: routes, status codes, streaming, byte-identity."""

import json
import threading
import urllib.request

import pytest

from repro.serve import client, http
from repro.serve.http import BackgroundServer
from repro.serve.service import CampaignService
from repro.serve.shards import ShardedResultStore

from tests.serve.test_service import CountingRunner, make_spec


@pytest.fixture()
def server(tmp_path):
    """A live server over a stub runner; yields (url, harness)."""
    store = ShardedResultStore(tmp_path / "store", shards=4, cache_size=64,
                               fingerprint="ff")
    runner = CountingRunner()
    harness = BackgroundServer(
        lambda: CampaignService(store, jobs=1, retries=0, runner=runner))
    harness.runner = runner
    with harness as url:
        yield url, harness


class TestRoutes:
    def test_healthz(self, server):
        url, _ = server
        status, health = client.server_health(url)
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue"]["depth"] == 0

    def test_submit_and_poll_roundtrip(self, server):
        url, _ = server
        status, accepted = client.submit_job(url, make_spec([1, 2]),
                                             client="alice")
        assert status == 202
        assert accepted["cells"]["total"] == 2
        final = client.wait_for_job(url, accepted["job"], timeout=30)
        assert final["cells"]["completed"] == 2
        assert final["eta_seconds"] == 0.0

    def test_bare_spec_and_client_header(self, server):
        url, harness = server
        raw = json.dumps(make_spec([1])).encode()
        req = urllib.request.Request(
            f"{url}/jobs", data=raw, method="POST",
            headers={"X-Repro-Client": "header-client"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            accepted = json.load(resp)
            assert resp.status == 202
        assert accepted["client"] == "header-client"

    def test_jobs_listing(self, server):
        url, _ = server
        _, a = client.submit_job(url, make_spec([1]), client="alice")
        client.wait_for_job(url, a["job"], timeout=30)
        status, listing = client._json(f"{url}/jobs")
        assert status == 200
        assert [j["job"] for j in listing["jobs"]] == [a["job"]]


class TestErrors:
    def test_invalid_json_is_400(self, server):
        url, _ = server
        status, raw = client.request(f"{url}/jobs", method="POST",
                                     body=None, headers={})
        assert status == 400   # no body at all

    def test_invalid_spec_is_400(self, server):
        url, _ = server
        status, doc = client.submit_job(
            url, {"name": "x", "experiment": "nope", "graphs": ["auto"],
                  "variants": ["v"], "threads": [1]})
        assert status == 400
        assert "unknown experiment" in doc["error"]

    def test_bad_priority_is_400(self, server):
        url, _ = server
        status, doc = client._json(
            f"{url}/jobs", method="POST",
            body={"spec": make_spec([1]), "priority": "high"})
        assert status == 400
        assert "priority" in doc["error"]

    def test_unknown_job_is_404(self, server):
        url, _ = server
        assert client.job_status(url, "cafecafe-9")[0] == 404
        assert client.job_results(url, "cafecafe-9")[0] == 404

    def test_unknown_route_is_404(self, server):
        url, _ = server
        assert client._json(f"{url}/nope")[0] == 404
        assert client._json(f"{url}/jobs/x/y/z")[0] == 404

    def test_wrong_method_is_405(self, server):
        url, _ = server
        status, _doc = client._json(f"{url}/jobs", method="DELETE")
        assert status == 405

    def test_over_quota_is_429(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=2,
                                   cache_size=0, fingerprint="ff")
        gate = threading.Event()

        def stalled(cell):
            gate.wait(timeout=30)
            return 1.0

        harness = BackgroundServer(
            lambda: CampaignService(store, jobs=1, retries=0,
                                    runner=stalled, quota=2))
        try:
            with harness as url:
                status, _ = client.submit_job(url, make_spec([1, 2]),
                                              client="alice")
                assert status == 202
                status, doc = client.submit_job(
                    url, make_spec([3], name="b"), client="alice")
                assert status == 429
                assert "quota" in doc["error"]
                gate.set()  # release before exit: the drain then finishes
        finally:
            gate.set()

    def test_leaked_server_thread_fails_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http, "DRAIN_TIMEOUT", 0.5)
        store = ShardedResultStore(tmp_path / "store", shards=2,
                                   cache_size=0, fingerprint="ff")
        gate, started = threading.Event(), threading.Event()

        def stalled(cell):
            started.set()
            gate.wait(timeout=30)
            return 1.0

        harness = BackgroundServer(
            lambda: CampaignService(store, jobs=1, retries=0,
                                    runner=stalled))
        try:
            with pytest.raises(RuntimeError,
                               match=r"'repro-serve' leaked.*1 cell\(s\) "
                                     r"in flight"):
                with harness as url:
                    client.submit_job(url, make_spec([1]))
                    assert started.wait(timeout=30)
        finally:
            gate.set()
        harness._thread.join(timeout=30)
        assert not harness._thread.is_alive()

    def test_results_before_done_is_409(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=2,
                                   cache_size=0, fingerprint="ff")
        gate = threading.Event()

        def stalled(cell):
            gate.wait(timeout=30)
            return 1.0

        harness = BackgroundServer(
            lambda: CampaignService(store, jobs=1, retries=0,
                                    runner=stalled))
        try:
            with harness as url:
                _, accepted = client.submit_job(url, make_spec([1]))
                status, doc = client.job_results(url, accepted["job"])
                assert status == 409
                assert b"pending" in doc
                gate.set()
                client.wait_for_job(url, accepted["job"], timeout=30)
                assert client.job_results(url, accepted["job"])[0] == 200
        finally:
            gate.set()

    def test_draining_is_503(self, tmp_path):
        # Drain with a cell still in flight: submissions in that window
        # get 503; once the cell finishes, the server exits on its own.
        store = ShardedResultStore(tmp_path / "store", shards=2,
                                   cache_size=0, fingerprint="ff")
        gate = threading.Event()

        def stalled(cell):
            gate.wait(timeout=30)
            return 1.0

        harness = BackgroundServer(
            lambda: CampaignService(store, jobs=1, retries=0,
                                    runner=stalled))
        try:
            with harness as url:
                _, accepted = client.submit_job(url, make_spec([1]))
                status, doc = client.drain_server(url)
                assert status == 202
                assert doc["active_jobs"] == 1
                status, doc = client.submit_job(url,
                                                make_spec([2], name="b"))
                assert status == 503
                assert "draining" in doc["error"]
                gate.set()
        finally:
            gate.set()


class TestStream:
    def test_ndjson_stream_ends_with_done(self, server):
        url, _ = server
        _, accepted = client.submit_job(url, make_spec([1, 2]))
        with urllib.request.urlopen(
                f"{url}/jobs/{accepted['job']}/stream", timeout=30) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in resp]
        assert lines[0]["job"] == accepted["job"]       # status snapshot
        cell_events = [e for e in lines if e.get("event") == "cell"]
        assert len(cell_events) <= 2                    # may race settle
        assert lines[-1]["event"] == "done"
        assert lines[-1]["total"] == 2

    def test_stream_unknown_job_is_404(self, server):
        url, _ = server
        status, _raw = client.request(f"{url}/jobs/cafecafe-9/stream")
        assert status == 404


class TestByteIdentity:
    def test_http_results_match_serial_cli_run(self, tmp_path, monkeypatch):
        # The acceptance contract: a sweep submitted over HTTP yields a
        # results document byte-identical to `repro campaign run
        # --output` of the same spec — real runner, real store.
        monkeypatch.setenv("REPRO_FAST", "1")
        from repro.campaign.cli import main as campaign_main

        spec = {"name": "ci-byte", "experiment": "coloring",
                "graphs": ["auto"], "variants": ["OpenMP-dynamic"],
                "threads": [1, 11], "machine": "KNF", "seeds": [0],
                "params": {"ordering": "natural"}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        serial_out = tmp_path / "serial.json"
        rc = campaign_main(["run", str(spec_file), "--output",
                            str(serial_out), "--store",
                            str(tmp_path / "serial-store"), "--quiet"])
        assert rc == 0

        store = ShardedResultStore(tmp_path / "serve-store", shards=4,
                                   cache_size=64)
        with BackgroundServer(
                lambda: CampaignService(store, jobs=1)) as url:
            _, accepted = client.submit_job(url, spec, client="ci")
            client.wait_for_job(url, accepted["job"], timeout=120)
            status, raw = client.job_results(url, accepted["job"])
            assert status == 200
            # Warm resubmission: every cell must come from the store.
            _, again = client.submit_job(url, spec, client="warm")
            assert again["cells"]["hits"] == again["cells"]["total"]
            _, raw2 = client.job_results(url, again["job"])
        assert raw == serial_out.read_bytes()
        assert raw2 == raw
