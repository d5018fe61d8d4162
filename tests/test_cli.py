"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import build_parser, main
from repro.serve.schemas import validate

#: ``repro bench`` at test scale: 30 domains, 6 groups, 2 seeds.
FAST_BENCH = [
    "bench", "--internet-domains", "30", "--internet-group-domains", "3",
    "--internet-groups-per-domain", "2", "--internet-churn", "10",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.tops == 10
        assert not args.paper

    def test_fig4_overrides(self):
        args = build_parser().parse_args(
            ["fig4", "--nodes", "200", "--trials", "2"]
        )
        assert args.nodes == 200
        assert args.trials == 2

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "chaos"])
        assert args.target == "chaos"
        assert args.out == "trace-out"
        assert args.seed == 0
        assert args.faults == 2

    def test_trace_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig9"])

    def test_verbosity_flags(self):
        args = build_parser().parse_args(["-v", "fig2"])
        assert args.verbose == 1
        args = build_parser().parse_args(["--quiet", "fig2"])
        assert args.quiet

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.internet_domains == 3326
        assert args.internet_seeds == 2
        assert not args.profile
        assert args.json == ""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--suite", "internet"])


class TestCommands:
    def test_fig2_runs(self, capsys):
        code = main(
            ["fig2", "--tops", "2", "--children", "3",
             "--days", "40", "--every", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "steady G-RIB mean" in out

    def test_fig4_runs(self, capsys):
        code = main(["fig4", "--nodes", "120", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        assert "unidirectional" in out

    def test_demo_runs(self, capsys):
        code = main(["demo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rooted at F" in out
        assert "DeliveryReport" in out

    def test_bench_runs_and_writes_report(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        code = main(FAST_BENCH + ["--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "fingerprints identical: True" in out
        payload = json.loads(report.read_text())
        assert validate(payload) == []
        assert payload["identical_fingerprints"] is True
        assert payload["serial_seconds"] > 0
        assert set(payload["per_seed"]) == {"0", "1"}

    def test_default_logging_keeps_stdout_clean(self, capsys):
        code = main(["fig4", "--nodes", "120", "--trials", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "INFO" not in captured.out
        assert captured.err == ""

    def test_verbose_logs_to_stderr_only(self, capsys):
        code = main(["-v", "fig4", "--nodes", "120", "--trials", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "INFO" in captured.err
        assert "INFO" not in captured.out
        logging.getLogger("repro").setLevel(logging.WARNING)


class TestTraceCommand:
    def test_chaos_trace_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        code = main(
            ["trace", "chaos", "--faults", "1", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "== spans ==" in captured.out
        assert "== event loop ==" in captured.out
        jsonl = out / "chaos.trace.jsonl"
        chrome = out / "chaos.chrome.json"
        metrics = out / "chaos.metrics.json"
        for path in (jsonl, chrome, metrics):
            assert path.exists(), path
        records = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
        ]
        assert any(r["kind"] == "span" for r in records)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        snapshot = json.loads(metrics.read_text())
        assert "counters" in snapshot

    def test_fig4_trace_runs_small(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(
            ["trace", "fig4", "--nodes", "120", "--trials", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "fig4.trace.jsonl").exists()
        assert "fig4.sweep" in capsys.readouterr().out


class TestBenchExitCodes:
    def test_passing_bench_exits_zero(self, capsys):
        assert main(FAST_BENCH) == 0
        out = capsys.readouterr().out
        assert "pooled speedup" in out

    def test_perf_gate_failure_exits_one_with_verdict(self, capsys):
        code = main(FAST_BENCH + ["--min-speedup", "999"])
        assert code == 1
        # The verdict is a single readable stderr line, not a traceback.
        err = capsys.readouterr().err
        verdicts = [
            line for line in err.splitlines() if "bench FAILED" in line
        ]
        assert len(verdicts) == 1
        assert "below --min-speedup gate 999.00x" in verdicts[0]
        assert "Traceback" not in err

    def test_unwritable_report_exits_two_before_running(
        self, capsys, tmp_path
    ):
        # Checked up front: at internet scale the run is minutes of
        # work that a late FileNotFoundError would throw away.
        code = main(
            FAST_BENCH + ["--json", str(tmp_path / "missing" / "x.json")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "bench: cannot write report" in captured.err
        assert "Traceback" not in captured.err

    def test_report_write_failure_exits_two(
        self, capsys, tmp_path, monkeypatch
    ):
        def full_disk(result, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            "repro.experiments.internet.write_internet_report", full_disk
        )
        code = main(FAST_BENCH + ["--json", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bench: cannot write report" in err
        assert "Traceback" not in err

    def test_min_speedup_parsed(self):
        args = build_parser().parse_args(
            ["bench", "--min-speedup", "1.5"]
        )
        assert args.min_speedup == 1.5
        assert build_parser().parse_args(["bench"]).min_speedup == 0.0


class TestSoakParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["soak", "run"])
        assert args.action == "run"
        assert args.seed == 0
        assert args.segments == 3
        assert args.segment_length == 30.0
        assert args.faults == 2
        assert args.dir == "soak-out"
        assert args.kill_at is None

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["soak", "run", "--seed", "7", "--segments", "5",
             "--segment-length", "12.5", "--kill-at", "40"]
        )
        assert args.seed == 7
        assert args.segments == 5
        assert args.segment_length == 12.5
        assert args.kill_at == 40.0

    def test_resume_has_no_kill_at_flag(self):
        args = build_parser().parse_args(["soak", "resume"])
        assert args.action == "resume"
        assert args.kill_at is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["soak", "resume", "--kill-at", "5"]
            )

    def test_replay_takes_dump_path(self):
        args = build_parser().parse_args(
            ["soak", "replay", "out/violation.dump"]
        )
        assert args.action == "replay"
        assert args.dump == "out/violation.dump"

    def test_soak_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak"])


class TestSoakCommand:
    def test_run_prints_fingerprint_json(self, tmp_path, capsys):
        code = main(
            ["soak", "run", "--seed", "2", "--segments", "1",
             "--segment-length", "10", "--dir", str(tmp_path)]
        )
        assert code == 0
        fingerprint = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]
        )
        assert "forwarding_digest" in fingerprint
        assert "rib_digest" in fingerprint
        assert (tmp_path / "soak-seed2-seg0.ckpt").exists()

    def test_resume_without_checkpoints_exits_two(self, tmp_path):
        code = main(
            ["soak", "resume", "--dir", str(tmp_path / "nothing")]
        )
        assert code == 2
