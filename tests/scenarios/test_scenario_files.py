"""Every shipped scenario file is one test case.

The collector parametrizes over ``scenarios/*.toml`` at the repo
root: each file must load, run with zero assertion failures and zero
sanitizer violations, and produce the canonical snapshot checked in
under ``tests/scenarios/golden/``. Regenerate goldens after an
intentional behavior change with ``pytest --regen-golden``.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.loader import discover_scenarios, load_scenario
from repro.scenarios.engine import run_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SCENARIO_PATHS = discover_scenarios(SCENARIO_DIR)


def test_suite_ships_at_least_thirty_scenarios():
    assert len(SCENARIO_PATHS) >= 30


def test_scenario_names_match_file_stems():
    # The golden mapping (<name>.json) and the CLI's status lines both
    # key on the scenario name, so it must equal the file stem.
    for path in SCENARIO_PATHS:
        assert load_scenario(path).name == path.stem


def test_no_stale_goldens():
    stems = {path.stem for path in SCENARIO_PATHS}
    stale = {g.stem for g in GOLDEN_DIR.glob("*.json")} - stems
    assert not stale, f"goldens without a scenario file: {sorted(stale)}"


@pytest.mark.parametrize(
    "path", SCENARIO_PATHS, ids=[p.stem for p in SCENARIO_PATHS]
)
def test_scenario_file(path, regen_golden):
    outcome = run_scenario(load_scenario(path))
    assert outcome.failures == []
    assert outcome.violations == []
    assert outcome.ok
    golden_path = GOLDEN_DIR / f"{outcome.name}.json"
    if regen_golden:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(
            json.dumps(outcome.snapshot, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return
    assert golden_path.is_file(), (
        f"missing golden snapshot {golden_path} — generate with "
        "pytest --regen-golden"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert golden == outcome.snapshot, (
        f"{path.name}: snapshot drifted from its golden; inspect the "
        "diff, then refresh with pytest --regen-golden"
    )
