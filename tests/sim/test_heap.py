"""The collector scope: a finished run's world is freed on return, and
the collector's settings come back as they were."""

import gc
from pathlib import Path

import pytest

from repro.scenarios.engine import run_scenario
from repro.scenarios.loader import load_scenario
from repro.sim.heap import GEN0_THRESHOLD, collector_scope

ROOT = Path(__file__).resolve().parents[2]
SCENARIO = ROOT / "scenarios" / "crash_both_layers.toml"


def test_a_finished_world_is_freed_on_return():
    # With the collector off, only the scope's exit collection can free
    # a world's cycles; without it each run leaves ~900 objects behind.
    spec = load_scenario(SCENARIO)
    gc.disable()
    try:
        counts = []
        for _ in range(40):
            run_scenario(spec)
            counts.append(len(gc.get_objects()))
    finally:
        gc.enable()
    assert len(set(counts)) == 1, counts


def _settings():
    return gc.get_threshold(), gc.get_freeze_count()


def test_settings_return_after_a_normal_exit():
    before = _settings()
    assert before[1] == 0
    with collector_scope():
        assert gc.get_threshold()[0] == GEN0_THRESHOLD
        assert gc.get_freeze_count() > 0
    assert _settings() == before


def test_settings_return_after_an_exception():
    before = _settings()
    with pytest.raises(KeyError):
        with collector_scope():
            raise KeyError("inside")
    assert _settings() == before


def test_a_nested_scope_changes_nothing():
    with collector_scope():
        outer = _settings()
        with collector_scope():
            assert _settings() == outer
        assert _settings() == outer
