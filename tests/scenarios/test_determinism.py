"""Determinism: every shipped scenario fingerprints identically
across repeat serial runs and under a 4-process pool.

The pooled arm goes through ``parallel_map`` with the module-level
``run_scenario_path`` worker — the exact fan-out the CLI's
``--processes`` flag uses — so any hidden dependence on process
state, hash seeds, or scheduling order shows up as a digest diff.
"""

from pathlib import Path

from repro.experiments.runner import parallel_map
from repro.scenarios.loader import discover_scenarios
from repro.scenarios.engine import run_scenario_path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO_PATHS = [
    str(path) for path in discover_scenarios(REPO_ROOT / "scenarios")
]


def _serial_fingerprints():
    return [run_scenario_path(path) for path in SCENARIO_PATHS]


def test_serial_runs_are_byte_identical():
    first = _serial_fingerprints()
    second = _serial_fingerprints()
    assert [o.fingerprint for o in first] == [
        o.fingerprint for o in second
    ]
    assert [o.snapshot for o in first] == [o.snapshot for o in second]


def test_pooled_runs_match_serial():
    serial = {
        o.name: o.fingerprint for o in _serial_fingerprints()
    }
    pooled = parallel_map(
        run_scenario_path, SCENARIO_PATHS, processes=4
    )
    assert {o.name: o.fingerprint for o in pooled} == serial
