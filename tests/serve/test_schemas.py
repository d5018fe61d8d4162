"""The serve-mode wire contract: the exact key set of every payload.

:data:`KEYS` names the keys of every payload schema (and of the
records nested in them); :func:`key_errors` checks one payload
against the key set its ``"schema"`` field claims. ``test_hub``
applies both to real payloads scraped from a live chaos hub and a
live fig2 hub; the cases here pin the checker itself on payloads the
snapshot builders produce.
"""

import pytest

from repro.serve.runner import ENDPOINT_SCHEMAS
from repro.serve.snapshots import (
    ServeSources,
    metrics_snapshot,
    spans_snapshot,
    tree_snapshot,
)
from repro.sim.engine import Simulator
from repro.trace import Tracer

SPAN = {"span_id", "parent_id", "name", "layer", "start", "end", "status"}

#: Exact key set per schema name. Additive changes are breaking: a new
#: key means a new schema version and a new entry here.
KEYS = {
    "repro.health/v1": {
        "schema", "state", "target", "seed", "time", "events",
        "queue_depth", "frames", "sample_every", "groups", "violations",
    },
    "repro.frame/v1": {
        "schema", "seq", "time", "events", "queue_depth",
        "counters_delta", "gauges", "spans_started", "spans_finished",
        "violations",
    },
    "repro.metrics/v1": {
        "schema", "seq", "time", "events", "counters", "gauges",
    },
    "repro.spans/v1": {"schema", "time", "open", "finished", "spans"},
    "repro.tree/v1": {
        "schema", "group", "time", "root_domain", "entries", "edges",
    },
    "repro.claims/v1": {"schema", "time", "nodes"},
    "repro.violations/v1": {
        "schema", "time", "count", "violations", "dumps",
    },
    "repro.profile/v1": {
        "schema", "events", "wall_seconds", "events_per_second",
        "max_queue_depth", "callbacks",
    },
    # Nested records. A span carries attrs/events only when it has any.
    "span": SPAN,
    "span+": SPAN | {"attrs", "events"},
    "tree entry": {
        "router", "domain", "source", "parent", "oil", "upstream",
    },
    "claims node": {"name", "prefixes"},
}


def key_errors(payload, name=None):
    """Every way ``payload``'s keys differ from the key set of
    ``name`` (default: the schema its ``"schema"`` field claims)."""
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, not an object"]
    if name is None:
        if "schema" not in payload:
            return ["payload carries no 'schema' field"]
        name = payload["schema"]
    if name not in KEYS:
        return [f"unknown schema {name!r}"]
    keys = set(payload)
    required = KEYS["span"] if name == "span+" else KEYS[name]
    return ([f"{name}: missing required key {k!r}"
             for k in sorted(required - keys)]
            + [f"{name}: unexpected key {k!r}"
               for k in sorted(keys - KEYS[name])])


def sources():
    sim = Simulator()
    return ServeSources(sim=sim, tracer=Tracer().bind_clock(sim))


class TestValidate:
    def test_valid_payload_passes(self):
        assert key_errors(metrics_snapshot(sources(), seq=3)) == []

    def test_missing_required_key(self):
        payload = metrics_snapshot(sources(), seq=3)
        del payload["events"]
        assert key_errors(payload) == [
            "repro.metrics/v1: missing required key 'events'"
        ]

    def test_extra_key_is_an_error(self):
        # Additive changes are breaking by design: the key set IS the
        # contract, so a key it does not name must fail.
        payload = metrics_snapshot(sources(), seq=3)
        payload["surprise"] = 1
        assert key_errors(payload) == [
            "repro.metrics/v1: unexpected key 'surprise'"
        ]

    def test_unknown_schema(self):
        assert key_errors({"schema": "repro.nope/v9"}) == [
            "unknown schema 'repro.nope/v9'"
        ]

    def test_payload_without_schema_field(self):
        assert key_errors({"x": 1}) == ["payload carries no 'schema' field"]

    def test_non_dict_payload(self):
        assert key_errors([1, 2]) == ["payload is list, not an object"]

    def test_optional_key_may_be_absent(self):
        src = sources()
        src.tracer.start_span("bare", layer="test")
        src.tracer.start_span("rich", layer="test", peer="M1").event("x")
        payload = spans_snapshot(src)
        assert key_errors(payload) == []
        bare, rich = payload["spans"]
        assert "attrs" not in bare and "events" not in bare
        assert key_errors(bare, "span+") == []
        assert {"attrs", "events"} <= set(rich)
        assert key_errors(rich, "span+") == []
        assert key_errors(rich, "span") == [
            "span: unexpected key 'attrs'", "span: unexpected key 'events'"
        ]

    def test_null_admitted_where_spec_allows(self):
        # A world with no BGMP layer has no root domain for any group;
        # the key is still present, carrying null.
        payload = tree_snapshot(sources(), 0xE0008001)
        assert payload["root_domain"] is None
        assert payload["entries"] == [] and payload["edges"] == []
        assert key_errors(payload) == []


@pytest.mark.parametrize(
    "name", sorted(k for k in KEYS if k.startswith("repro."))
)
def test_every_schema_requires_its_own_name_field(name):
    # Each payload self-describes via its "schema" field, and every
    # name the probe expects has a key set here.
    assert "schema" in KEYS[name]
    assert set(ENDPOINT_SCHEMAS.values()) <= set(KEYS)
