"""Tests of the benchmark itself. Run with ``python -m pytest bench -q``
from the repository root; tier-1 (``testpaths = ["tests"]``) does not
collect this file.

Every workload runs here in-process at a size small enough for the
whole file to finish in well under 20 s.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_WORLD = dict(domains=60, group_domains=4, groups_per_domain=3, members=2)
TINY = {
    "cold_start": TINY_WORLD,
    "root_flap": dict(TINY_WORLD, cycles=2),
    "router_fault": dict(TINY_WORLD, cycles=2),
    "member_churn": dict(TINY_WORLD, events=200, sweep_every=25),
    "masc_claims": dict(tops=2, children=3, days=12),
    "scenario_suite": dict(passes=1),
    "fig4_sweep": dict(
        nodes=40, sweeps=2, seeds_per_sweep=2, group_sizes=(1, 2, 5)
    ),
}
SPEC = run.load_spec()


def one_round(name, seed=0, traced=False):
    spawned = time.monotonic()
    payload = run.run_one_round(name, seed, traced, size=TINY[name])
    return run.seen_from_outside(payload, spawned, time.monotonic())


def test_benchmark_json_names_what_the_code_emits():
    # BENCHMARK.json lists the workloads the driver gates on: some of
    # the seven, in the code's order.
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [name for name in workloads.WORKLOADS if name in gated]
    assert len(gated) >= 2
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == run.BETTER
    assert set(workloads.SIZES) == set(workloads.TAIL) == set(
        workloads.IMPORTS
    ) == set(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == [(name, unit, better) for name, unit, better, *_ in spans.LAYER_METRICS]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


def test_tail_percentile_leaves_ten_pooled_samples_beyond_it():
    sizes = workloads.SIZES
    world = sizes["cold_start"]
    ops = {
        "cold_start": world["group_domains"]
        * world["groups_per_domain"]
        * world["members"],
        "root_flap": sizes["root_flap"]["cycles"],
        "router_fault": 2 * sizes["router_fault"]["cycles"],
        "member_churn": sizes["member_churn"]["events"],
        "masc_claims": sizes["masc_claims"]["days"],
        "scenario_suite": 37 * sizes["scenario_suite"]["passes"],
        "fig4_sweep": sizes["fig4_sweep"]["sweeps"],
    }
    # A run of BENCHMARK.json's run_seconds is five rounds or more on
    # the reference box.
    for name, per_round in ops.items():
        pooled = per_round * 5
        allowed = [
            p for p in (50, 75, 90, 95, 99) if pooled * (100 - p) / 100 >= 10
        ]
        assert workloads.TAIL[name] in allowed, name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name):
    result = run.summarise([one_round(name)], workloads.TAIL[name])
    assert result["failed"] == 0, result["notes"]
    assert result["attempted"] > result["samples"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric, stats in result["metrics"].items():
        assert math.isfinite(stats["value"]) and stats["value"] > 0, metric
    line = json.loads(run.driver_line(result, SPEC, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_schedule_and_fingerprint(name):
    first = workloads.run_round(name, 7, size=TINY[name])
    again = workloads.run_round(name, 7, size=TINY[name])
    other = workloads.run_round(name, 8, size=TINY[name])
    assert first.schedule and first.schedule == again.schedule
    assert first.fingerprint == again.fingerprint
    assert first.counts == again.counts
    assert other.schedule != first.schedule


def test_traced_round_reports_every_layer_metric_and_isolates_layers():
    layers = one_round("root_flap", traced=True)["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert all(value is not None for value in layers.values())
    assert layers["bgp.converge_calls"] == 4
    assert layers["bgmp.repair_calls"] == 4
    assert layers["bgmp.send_calls"] == 4
    assert layers["bgp.lookup_calls"] > 0
    assert layers["masc.request_calls"] == 0
    trace = json.loads((run.OUT / "trace-root_flap.json").read_text())
    names = {span[1] for span in trace["spans"]}
    assert {"bgp.converge", "bgmp.repair", "bgmp.send"} <= names
    # Exact counts are a function of the seed alone.
    again = one_round("root_flap", traced=True)["layers"]
    for name, _unit, _better, exact, _how in spans.LAYER_METRICS:
        if exact:
            assert layers[name] == again[name], name

    masc = one_round("masc_claims", traced=True)["layers"]
    assert masc["masc.request_calls"] > 0
    assert masc["addressing.free_search_calls"] > 0
    assert masc["bgp.converge_calls"] == masc["bgmp.join_calls"] == 0

    churn = one_round("member_churn", traced=True)["layers"]
    assert churn["bgp.converge_calls"] == 0
    assert churn["bgp.initial_converge_s"] > 0
    assert churn["checkpoint.bytes"] > 0
    # The wrappers are gone again.
    from repro.bgp.network import BgpNetwork

    assert not hasattr(BgpNetwork.converge, "__wrapped__")


def test_missing_entry_point_reads_null_not_error():
    table = dict(spans.ENTRY_POINTS)
    table["bgp.lookup"] = ("repro.bgp.speaker", "BgpSpeaker.renamed_away", True)
    table["analysis.compare_trees"] = ("repro.no_such_module", "f", False)
    recorder = spans.Recorder(table)
    meter = workloads.run_round(
        "root_flap", 0, size=TINY["root_flap"], recorder=recorder
    )
    assert meter.failed == 0
    assert sorted(recorder.missing) == ["analysis.compare_trees", "bgp.lookup"]
    layers = spans.layer_metrics(recorder, meter.counts)
    assert layers["bgp.lookup_calls"] is None
    assert layers["bgp.lookup_s"] is None
    assert layers["analysis.compare_trees_s"] is None
    assert layers["bgp.converge_calls"] == 4
    result = {"layers": layers, "failed": 0, "attempted": 1}
    line = json.loads(run.driver_line(result, SPEC, traced=True))
    assert line["metrics"]["bgp.lookup_calls"]["value"] == 0


def test_wrong_shadow_count_is_a_failure(monkeypatch):
    honest = workloads.Membership.send

    def off_by_one(self, group, avoid=-1):
        kind, domain, group, expected = honest(self, group, avoid)
        return (kind, domain, group, expected + 1)

    monkeypatch.setattr(workloads.Membership, "send", off_by_one)
    result = run.summarise([one_round("member_churn")], 99)
    assert 0 < result["failed"] < result["attempted"]
    assert "model says" in result["notes"][0]
    line = json.loads(run.driver_line(result, SPEC, traced=False))
    assert line["correct"] is False and line["failed"] == result["failed"]


def test_an_exception_inside_an_operation_is_a_failed_operation():
    meter = workloads.Meter()
    assert meter.timed(lambda: 1 / 0) is workloads.FAILED
    assert (meter.attempted, meter.failed, len(meter.latencies)) == (1, 1, 1)
    assert "ZeroDivisionError" in meter.notes[0]


def test_rounds_that_disagree_fail_the_whole_workload():
    rounds = [one_round("masc_claims", seed) for seed in (1, 2)]
    result = run.summarise(rounds, 90)
    assert result["failed"] == result["attempted"]


def result_set(path, scale=1.0, failed=0):
    rounds = [
        {"wall_s": 4.0 * scale * wobble, "setup_s": 1.0 * wobble,
         "run_s": 2.0, "latencies": [0.01 * wobble] * 40,
         "peak_rss_mb": 50.0, "attempted": 50, "failed": failed,
         "notes": [], "fingerprint": "f", "counts": {"n": 1}}
        for wobble in (1.0, 1.01, 1.02)
    ]
    path.write_text(
        json.dumps({"workloads": {"root_flap": run.summarise(rounds, 75)}})
    )
    return str(path)


def test_compare_unchanged_against_itself_and_regressed_on_slower_wall(
    tmp_path, capsys
):
    base = result_set(tmp_path / "a.json")
    assert run.main(["--compare", base, base]) == 0
    table = capsys.readouterr().out
    assert "unchanged" in table and "regressed" not in table

    # A synthetic wall_s regression just past the bound (+20 % in
    # ISSUE 11, when the bound was 0.10).
    (bound,) = [m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s"]
    slower = result_set(tmp_path / "b.json", scale=1.1 + bound)
    assert run.main(["--compare", base, slower]) == 1
    rows = capsys.readouterr().out.splitlines()
    (wall,) = [row for row in rows if " wall_s " in row]
    assert wall.endswith("regressed") and f"{1.1 + bound:.3f}" in wall
    assert all(
        row.endswith("unchanged")
        for row in rows
        if row.startswith("root_flap") and " wall_s " not in row
    )
    assert run.main(["--compare", slower, base]) == 0
    assert "improved" in capsys.readouterr().out

    broken = result_set(tmp_path / "c.json", failed=1)
    assert run.main(["--compare", base, broken]) == 1


def test_verdict_is_unresolved_when_spread_exceeds_the_bound():
    steady = run.spread([1.0, 1.0, 1.0])
    noisy = run.spread([0.8, 1.04, 1.3])
    assert run.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # Noisy but entirely on one side: a regression is ruled out or in,
    # an improvement is not claimed.
    faster = run.spread([0.5, 0.6, 0.7])
    assert run.verdict(steady, faster, "lower", 0.10) == "unchanged"
    assert run.verdict(steady, faster, "higher", 0.10) == "regressed"
    assert run.verdict(steady, run.spread([0.6] * 3), "lower", 0.10) == "improved"
