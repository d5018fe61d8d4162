"""Tests for trace exporters: JSONL, Chrome trace_event, metrics JSON.

The determinism contract extends to telemetry: same-seed runs must
export byte-identical artifacts.
"""

import json

from repro.sim.engine import Simulator
from repro.trace.metrics import Metrics
from repro.trace.profiler import EventLoopProfiler
from repro.trace.tracer import Tracer
from repro.trace.export import (
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)


def _sample_tracer():
    sim = Simulator()
    tracer = Tracer().bind_clock(sim)

    def work():
        with tracer.span("bgp.converge", layer="bgp", speakers=4) as span:
            span.event("round", index=1)
        claim = tracer.start_span("masc.claim", layer="masc", node="M1")
        sim.schedule(2.0, claim.finish, "confirmed")

    sim.schedule(1.0, work)
    sim.run()
    tracer.event("orphan.note", detail="x")
    return tracer


class TestJsonl:
    def test_one_record_per_line(self):
        tracer = _sample_tracer()
        lines = trace_to_jsonl(tracer).splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["span", "span", "event"]

    def test_span_record_contents(self):
        records = [
            json.loads(line)
            for line in trace_to_jsonl(_sample_tracer()).splitlines()
        ]
        converge = records[0]
        assert converge["name"] == "bgp.converge"
        assert converge["layer"] == "bgp"
        assert converge["start"] == 1.0
        assert converge["events"][0]["name"] == "round"
        claim = records[1]
        assert claim["status"] == "confirmed"
        assert claim["end"] == 3.0

    def test_keys_sorted(self):
        for line in trace_to_jsonl(_sample_tracer()).splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_byte_identical_across_same_runs(self):
        assert trace_to_jsonl(_sample_tracer()) == trace_to_jsonl(
            _sample_tracer()
        )

    def test_write(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_tracer(), path)
        assert path.read_text().endswith("\n")


class TestChromeTrace:
    def test_structure(self):
        doc = trace_to_chrome(_sample_tracer())
        phases = [e["ph"] for e in doc["traceEvents"]]
        # Thread-name metadata, complete spans, instants.
        assert "M" in phases
        assert phases.count("X") == 2
        assert "i" in phases
        assert doc["displayTimeUnit"] == "ms"

    def test_timestamps_in_microseconds(self):
        doc = trace_to_chrome(_sample_tracer())
        converge = next(
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "bgp.converge"
        )
        assert converge["ts"] == 1_000_000
        assert converge["dur"] == 0
        assert converge["pid"] == 1

    def test_layers_get_distinct_tids(self):
        doc = trace_to_chrome(_sample_tracer())
        tids = {
            e["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert tids["bgp.converge"] != tids["masc.claim"]

    def test_queue_depth_counters_from_profiler(self):
        sim = Simulator()
        tracer = Tracer().bind_clock(sim)
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, lambda: None, name="a")
        sim.schedule(2.0, lambda: None, name="b")
        sim.run()
        profiler.detach()
        doc = trace_to_chrome(tracer, profiler=profiler)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["args"]["depth"] == 1.0

    def test_byte_identical_file_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_chrome_trace(_sample_tracer(), first)
        write_chrome_trace(_sample_tracer(), second)
        assert first.read_bytes() == second.read_bytes()


class TestMetricsJson:
    def test_written_snapshot_parses(self, tmp_path):
        registry = Metrics()
        registry.add("bgp.updates_sent", 7)
        registry.set("depth", 2.0)
        path = tmp_path / "metrics.json"
        write_metrics_json(registry, path)
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"] == {"bgp.updates_sent": 7}
        assert snapshot["gauges"] == {"depth": 2.0}
