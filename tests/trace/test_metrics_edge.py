"""The metrics store and collect_metrics: keys, counter and gauge
semantics, empty stores, cross-layer label collisions, delta
semantics, and the pinned metrics-JSON schema."""

import json
import pathlib

import pytest

from repro.trace.metrics import (
    MASC_MANAGER_COUNTERS,
    MASC_NODE_COUNTERS,
    Metrics,
    collect_metrics,
    metric_key,
    metrics_delta,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics_schema.json"


class StubNode:
    """Just enough MascNode surface for collect_metrics."""

    def __init__(self, name, **counts):
        self.name = name
        for attr in MASC_NODE_COUNTERS:
            setattr(self, attr, counts.get(attr, 0))
        self.claimed = counts.get("claimed", ())


class StubManager:
    """Just enough DomainSpaceManager surface for collect_metrics."""

    def __init__(self, name, **counts):
        self.name = name
        for attr in MASC_MANAGER_COUNTERS:
            setattr(self, attr, counts.get(attr, 0))


class StubInjector:
    faults_applied = 3
    recoveries = ()


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("x", {}) == "x"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": 2, "a": 1})
        assert key == "x{a=1,b=2}"


class TestMetrics:
    def test_add_accumulates(self):
        registry = Metrics()
        registry.add("claims", 1)
        registry.add("claims", 4)
        assert registry.counter("claims").count == 5
        assert registry.counters == {"claims": 5}

    def test_add_rejects_negative(self):
        with pytest.raises(ValueError):
            Metrics().add("claims", -1)

    def test_counter_never_added_reads_zero(self):
        registry = Metrics()
        assert registry.counter("missing", node="M1").count == 0
        assert registry.counters == {}

    def test_labelled_counter_distinct_from_bare(self):
        registry = Metrics()
        registry.add("claims", 1, node="M1")
        registry.add("claims", 5)
        assert registry.counter("claims", node="M1").count == 1
        assert registry.counter("claims").count == 5

    def test_set_last_write_wins_and_keeps_its_type(self):
        registry = Metrics()
        registry.set("depth", 4.0)
        registry.set("depth", 2)
        assert registry.gauges == {"depth": 2}
        assert '"depth": 2}' in registry.to_json()

    def test_snapshot_shape(self):
        registry = Metrics()
        registry.add("c", 2, node="a")
        registry.set("g", 1.5)
        snapshot = json.loads(registry.to_json())
        assert snapshot == {
            "counters": {"c{node=a}": 2},
            "gauges": {"g": 1.5},
            "histograms": {},
            "series": {},
        }

    def test_to_json_deterministic(self):
        def build(names):
            registry = Metrics()
            for name in names:
                registry.add(name, 1, node="n")
            registry.set("g", 2.0)
            return registry.to_json(indent=2)

        assert build(["z", "a", "m"]) == build(["a", "m", "z"])


class TestEmptyRegistries:
    def test_collect_nothing(self):
        registry = collect_metrics()
        assert registry.counters == {}
        assert registry.gauges == {}

    def test_empty_registry_json_shape(self):
        payload = json.loads(collect_metrics().to_json())
        assert payload == {"counters": {}, "gauges": {},
                           "histograms": {}, "series": {}}

    def test_empty_iterables_contribute_nothing(self):
        registry = collect_metrics(masc_nodes=[], masc_managers=[])
        assert (registry.counters, registry.gauges) == ({}, {})


class TestLabelCollisions:
    def test_same_counter_name_across_layers_keeps_both(self):
        # masc.claims_failed exists in BOTH the node and the manager
        # counter sets. A node and a manager sharing an entity name
        # must still land under distinct keys (node= vs domain=
        # labels), while the unlabelled total aggregates both.
        node = StubNode("X", claims_failed=2)
        manager = StubManager("X", claims_failed=5)
        registry = collect_metrics(
            masc_nodes=[node], masc_managers=[manager]
        )
        counters, gauges = registry.counters, registry.gauges
        assert counters["masc.claims_failed{node=X}"] == 2
        assert counters["masc.claims_failed{domain=X}"] == 5
        assert counters["masc.claims_failed"] == 7
        assert gauges["masc.claimed_prefixes{node=X}"] == 0

    def test_iteration_order_independent(self):
        nodes = [StubNode("B", crashes=1), StubNode("A", crashes=2)]
        forward = collect_metrics(masc_nodes=nodes)
        reverse = collect_metrics(masc_nodes=list(reversed(nodes)))
        assert forward.counters == reverse.counters
        assert forward.gauges == reverse.gauges
        assert forward.to_json() == reverse.to_json()

    def test_collect_into_existing_registry_accumulates(self):
        registry = Metrics()
        collect_metrics(registry=registry, masc_nodes=[StubNode("A")])
        collect_metrics(registry=registry, injector=StubInjector())
        collect_metrics(registry=registry, injector=StubInjector())
        assert "masc.claims_confirmed{node=A}" in registry.counters
        assert registry.counters["faults.applied"] == 6


class TestMetricsDelta:
    def test_unchanged_keys_omitted(self):
        assert metrics_delta({"a": 1, "b": 2}, {"a": 1, "b": 5}) == {
            "b": 3
        }

    def test_new_keys_delta_from_zero(self):
        assert metrics_delta({}, {"a": 4}) == {"a": 4}

    def test_empty_both_ways(self):
        assert metrics_delta({}, {}) == {}
        assert metrics_delta({"a": 1}, {}) == {}

    def test_regression_shows_as_negative(self):
        # Counters are monotonic; a negative delta is the signal that
        # the maps came from different worlds (documented contract —
        # the serve sink treats `current` as a fresh baseline then).
        assert metrics_delta({"a": 9}, {"a": 4}) == {"a": -5}

    def test_key_order_is_sorted(self):
        delta = metrics_delta({}, {"z": 1, "a": 1, "m": 1})
        assert list(delta) == ["a", "m", "z"]


class TestGoldenSchema:
    """Pin the exported metrics-JSON shape.

    The golden file is the wire contract for every metrics consumer
    (trace exports, the serve hub, external tooling). If this test
    fails, either revert the breaking change or — for a deliberate
    schema change — regenerate the golden file and say so loudly in
    the commit message.
    """

    def build_registry(self):
        return collect_metrics(
            masc_nodes=[
                StubNode(
                    "M1", claims_confirmed=4, collisions_sent=1,
                    claimed=("224.0.0.0/16",),
                )
            ],
            masc_managers=[StubManager("T0C0", claims_made=2)],
            injector=StubInjector(),
        )

    def test_metrics_json_matches_golden(self):
        rendered = self.build_registry().to_json(indent=2) + "\n"
        assert rendered == GOLDEN.read_text(), (
            f"metrics JSON diverged from {GOLDEN} — breaking change "
            "to the metrics wire format?"
        )

    def test_golden_is_valid_sorted_json(self):
        payload = json.loads(GOLDEN.read_text())
        assert set(payload) == {
            "counters", "gauges", "histograms", "series"
        }
        keys = list(payload["counters"])
        assert keys == sorted(keys)
