"""The ``python -m repro scenarios`` CLI and its exit-code contract:
0 clean, 1 findings (assertion failures, violations, DSL errors,
golden drift), 2 operational/usage errors.
"""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ONE_SCENARIO = str(SCENARIO_DIR / "masc_basic_tree.toml")

BROKEN = """\
[scenario]
name = "broken"

[topology]
builder = "figure3"

[[step]]
at = 1.0
do = "jion"
"""

FAILING = """\
[scenario]
name = "failing"

[topology]
builder = "figure3"

[[group]]
address = "224.0.128.1"
range = "224.0.0.0/16"
root = "A"

[[step]]
at = 1.0
assert = "root-domain"
group = "224.0.128.1"
domain = "B"
"""


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["scenarios", "run"])
        assert args.dir == "scenarios"
        assert args.shard == ""
        assert args.golden_dir == ""
        assert not args.regen
        assert args.processes == 0

    def test_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestRun:
    def test_single_file_clean_run(self, capsys):
        assert main(["scenarios", "run", ONE_SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "ok    masc_basic_tree" in out
        assert "1 scenarios: 1 ok, 0 failed" in out

    def test_fingerprint_printed_per_scenario(self, capsys):
        main(["scenarios", "run", ONE_SCENARIO])
        status_line = capsys.readouterr().out.splitlines()[0]
        digest = status_line.split()[-1]
        assert len(digest) == 12
        int(digest, 16)

    def test_assertion_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "failing.toml"
        path.write_text(FAILING, encoding="utf-8")
        assert main(["scenarios", "run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL  failing" in captured.out
        assert f"{path}:12:" in captured.err

    def test_invalid_file_exits_one_with_location(
        self, tmp_path, capsys
    ):
        path = tmp_path / "broken.toml"
        path.write_text(BROKEN, encoding="utf-8")
        assert main(["scenarios", "run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:7:" in err
        assert "unknown step verb 'jion'" in err

    def test_missing_file_exits_two(self):
        assert main(["scenarios", "run", "no-such.toml"]) == 2

    def test_missing_dir_exits_two(self):
        assert main(["scenarios", "run", "--dir", "no-such-dir"]) == 2

    def test_bad_shard_exits_two(self):
        assert main(
            ["scenarios", "run", ONE_SCENARIO, "--shard", "5/3"]
        ) == 2
        assert main(
            ["scenarios", "run", ONE_SCENARIO, "--shard", "bogus"]
        ) == 2

    def test_regen_requires_golden_dir(self):
        assert main(["scenarios", "run", ONE_SCENARIO, "--regen"]) == 2


class TestGoldens:
    def test_regen_then_compare_round_trips(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        assert main([
            "scenarios", "run", ONE_SCENARIO,
            "--golden-dir", str(golden_dir), "--regen",
        ]) == 0
        assert (golden_dir / "masc_basic_tree.json").is_file()
        capsys.readouterr()
        assert main([
            "scenarios", "run", ONE_SCENARIO,
            "--golden-dir", str(golden_dir),
        ]) == 0

    def test_drift_exits_one(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        main([
            "scenarios", "run", ONE_SCENARIO,
            "--golden-dir", str(golden_dir), "--regen",
        ])
        golden = golden_dir / "masc_basic_tree.json"
        snapshot = json.loads(golden.read_text(encoding="utf-8"))
        snapshot["events"] = -1
        golden.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main([
            "scenarios", "run", ONE_SCENARIO,
            "--golden-dir", str(golden_dir),
        ]) == 1
        assert "drifted from golden" in capsys.readouterr().err

    def test_missing_golden_exits_one(self, tmp_path, capsys):
        assert main([
            "scenarios", "run", ONE_SCENARIO,
            "--golden-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "no golden snapshot" in capsys.readouterr().err

    def test_shipped_goldens_match(self, capsys):
        # The checked-in suite must agree with its checked-in goldens
        # through the CLI path too (CI runs exactly this).
        assert main([
            "scenarios", "run",
            "--dir", str(SCENARIO_DIR),
            "--golden-dir", str(GOLDEN_DIR),
        ]) == 0


class TestValidateAndList:
    def test_validate_shipped_suite(self, capsys):
        assert main(
            ["scenarios", "validate", "--dir", str(SCENARIO_DIR)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 invalid" in out

    def test_validate_broken_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text(BROKEN, encoding="utf-8")
        assert main(["scenarios", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "1 invalid" in captured.out
        assert f"{path}:7:" in captured.err

    def test_validate_undecodable_file_counts_as_invalid(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.toml"
        path.write_bytes(b'[scenario]\nname = "x\xff"\n')
        assert main(["scenarios", "validate", ONE_SCENARIO, str(path)]) == 1
        captured = capsys.readouterr()
        assert "2 scenario file(s): 1 valid, 1 invalid" in captured.out
        assert f"ERROR {path}: cannot read scenario:" in captured.err
        assert "Traceback" not in captured.err

    def test_list_names_every_scenario(self, capsys):
        assert main(
            ["scenarios", "list", "--dir", str(SCENARIO_DIR)]
        ) == 0
        out = capsys.readouterr().out
        assert "masc_basic_tree" in out
        assert "uplink_f_shut_noshut" in out


class TestSharding:
    def test_shards_partition_the_suite(self, capsys):
        total = len(list(SCENARIO_DIR.glob("*.toml")))
        seen = 0
        for shard in range(3):
            assert main([
                "scenarios", "validate",
                "--dir", str(SCENARIO_DIR),
                "--shard", f"{shard}/3",
            ]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            seen += int(first.split()[0])
        assert seen == total
