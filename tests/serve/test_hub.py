"""TelemetryHub over real HTTP: endpoints, SSE, and the wire contract.

The wire contract is ``test_schemas.KEYS``: the exact key set of every
payload schema (and of the records nested in them), asserted here
against real payloads scraped from a live chaos hub and a live fig2
hub.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import ServeHook, probe_hub, run_target
from repro.serve.runner import ENDPOINT_SCHEMAS, _read_sse_frames
from tests.serve.test_schemas import key_errors


def serve(target, **sizes):
    hook = ServeHook(sample_every=5)
    outcome = run_target(target, 0, on_sources=hook, **sizes)
    hook.finish()
    return hook, outcome


@pytest.fixture(scope="module")
def chaos_hub():
    hook, _ = serve("chaos")
    yield hook
    hook.hub.stop()


@pytest.fixture(scope="module")
def fig2_hub():
    hook, _ = serve("fig2", tops=2, children=2, days=3.0)
    yield hook
    hook.hub.stop()


def fetch(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def assert_keys(payload, name):
    assert key_errors(payload, name) == []


def assert_span_keys(span):
    assert_keys(span, "span+")


def assert_contract(url):
    """Scrape every endpoint and check each payload's exact keys."""
    health = fetch(f"{url}/healthz")
    paths = ["/healthz", "/metrics", "/spans", "/claims", "/violations",
             "/profile"] + [f"/tree/{g}" for g in health["groups"]]
    for path in paths:
        payload = fetch(f"{url}{path}")
        endpoint = "/tree/<group>" if path.startswith("/tree/") else path
        assert payload["schema"] == ENDPOINT_SCHEMAS[endpoint]
        assert_keys(payload, payload["schema"])
        for span in payload.get("spans", []):
            assert_span_keys(span)
        for entry in payload.get("entries", []):
            assert_keys(entry, "tree entry")
        for node in payload.get("nodes", []):
            assert_keys(node, "claims node")
    frames = _read_sse_frames(f"{url}/stream?from=0", count=1000)
    assert frames
    for frame in frames:
        assert frame["schema"] == "repro.frame/v1"
        assert_keys(frame, "repro.frame/v1")
        for span in frame["spans_started"]:
            assert_span_keys(span)


class TestWireContract:
    def test_chaos_payload_keys(self, chaos_hub):
        assert_contract(chaos_hub.hub.url)

    def test_fig2_payload_keys(self, fig2_hub):
        assert_contract(fig2_hub.hub.url)

    def test_chaos_covers_nested_records(self, chaos_hub):
        # The contract above is only as good as what it saw: the chaos
        # hub must actually serve spans, tree entries and claim nodes.
        url = chaos_hub.hub.url
        group = fetch(f"{url}/healthz")["groups"][0]
        assert fetch(f"{url}/tree/{group}")["entries"]
        assert fetch(f"{url}/claims")["nodes"]
        assert fetch(f"{url}/spans")["spans"]

    def test_probe_fails_on_a_wrong_schema(self, chaos_hub, monkeypatch):
        real = chaos_hub.hub.payload

        def renamed(route, query):
            payload = real(route, query)
            if route == "/claims":
                payload = dict(payload, schema="repro.claims/v0")
            return payload

        monkeypatch.setattr(chaos_hub.hub, "payload", renamed)
        errors, _ = probe_hub(chaos_hub.hub.url)
        assert errors == ["/claims: not a repro.claims/v1 object"]


class TestEndpoints:
    def test_probe_validates_every_endpoint(self, chaos_hub):
        errors, visited = probe_hub(chaos_hub.hub.url)
        assert errors == []
        for endpoint in ("/healthz", "/metrics", "/spans", "/claims",
                        "/violations", "/profile", "/stream", "/"):
            assert endpoint in visited
        assert any(route.startswith("/tree/") for route in visited)

    def test_health_reports_finished_run(self, chaos_hub):
        health = fetch(f"{chaos_hub.hub.url}/healthz")
        assert health["state"] == "finished"
        assert health["target"] == "chaos"
        assert health["events"] > 0
        assert health["groups"]  # figure-3 group has live state

    def test_tree_endpoint_matches_fingerprint_group(self, chaos_hub):
        health = fetch(f"{chaos_hub.hub.url}/healthz")
        group = health["groups"][0]
        tree = fetch(f"{chaos_hub.hub.url}/tree/{group}")
        assert tree["group"] == group
        assert tree["entries"], "on-tree routers expected"
        routers = {entry["router"] for entry in tree["entries"]}
        for child, upstream in tree["edges"]:
            assert child in routers

    def test_metrics_counters_nonzero(self, chaos_hub):
        metrics = fetch(f"{chaos_hub.hub.url}/metrics")
        assert metrics["counters"].get("faults.applied", 0) > 0

    def test_profile_reports_the_run(self, chaos_hub):
        profile = fetch(f"{chaos_hub.hub.url}/profile")
        assert profile["events"] > 0
        assert profile["callbacks"]

    def test_spans_limit(self, chaos_hub):
        spans = fetch(f"{chaos_hub.hub.url}/spans?limit=2")
        assert len(spans["spans"]) <= 2
        total = spans["open"] + spans["finished"]
        assert total >= 2  # traced chaos produces spans

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_spans_limit_below_one_is_400(self, chaos_hub, limit):
        # A negative limit used to slice spans[1:], silently dropping
        # the oldest span instead of rejecting the request.
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(f"{chaos_hub.hub.url}/spans?limit={limit}")
        assert info.value.code == 400
        assert "limit must be >= 1" in json.loads(info.value.read())[
            "error"
        ]

    def test_stream_replays_all_frames(self, chaos_hub):
        sink = chaos_hub.sink
        frames = _read_sse_frames(
            f"{chaos_hub.hub.url}/stream?from=0",
            count=sink.frames_published + 10,
        )
        # Finished run: replay ends with the server's `end` event
        # after delivering everything the ring still holds.
        assert len(frames) == len(sink.frames_since(0))

    def test_stream_resume_from_seq(self, chaos_hub):
        last = chaos_hub.sink.latest_frame()["seq"]
        frames = _read_sse_frames(
            f"{chaos_hub.hub.url}/stream?from={last}", count=50
        )
        assert [f["seq"] for f in frames] == [last]

    def test_unknown_route_404(self, chaos_hub):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(f"{chaos_hub.hub.url}/nope")
        assert info.value.code == 404

    def test_bad_group_400(self, chaos_hub):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(f"{chaos_hub.hub.url}/tree/banana")
        assert info.value.code == 400

    def test_status_page_is_selfcontained_html(self, chaos_hub):
        with urllib.request.urlopen(
            f"{chaos_hub.hub.url}/", timeout=10.0
        ) as response:
            page = response.read().decode("utf-8")
        assert page.startswith("<!DOCTYPE html>")
        # No external assets: the page must work with nothing else
        # installed or reachable.
        assert "http://" not in page and "https://" not in page
        assert "src=" not in page
