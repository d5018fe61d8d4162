"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import build_parser, main

#: (argv, the flag its usage error names): numeric flags out of range.
OUT_OF_RANGE = [
    (["fig2", "--days", "-1"], "--days"),
    (["fig2", "--every", "0"], "--every"),
    (["fig4", "--trials", "0"], "--trials"),
    (["fig4", "--nodes", "1"], "--nodes"),
    (["trace", "chaos", "--faults", "-1"], "--faults"),
    (["serve", "run", "chaos", "--sample-every", "0"], "--sample-every"),
    (["serve", "run", "chaos", "--port", "99999"], "--port"),
    (["soak", "run", "--segment-length", "-5"], "--segment-length"),
    (["soak", "run", "--faults", "-2"], "--faults"),
    (["serve", "attach", "--segments", "-1"], "--segments"),
    (["serve", "run", "chaos", "--linger", "-1"], "--linger"),
    (["scenarios", "run", "--processes", "-2"], "--processes"),
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

    def test_trace_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig9"])

    def test_verbosity_flags(self):
        args = build_parser().parse_args(["-v", "fig2"])
        assert args.verbose == 1
        args = build_parser().parse_args(["--quiet", "fig2"])
        assert args.quiet

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["bench"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert "Traceback" not in err

    def test_lint_is_not_a_command(self, capsys):
        # The gate has one entry point: python -m repro.lint.
        with pytest.raises(SystemExit) as exc_info:
            main(["lint", "does-not-exist"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag", OUT_OF_RANGE,
        ids=[" ".join(argv) for argv, _flag in OUT_OF_RANGE],
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, flag, capsys):
        # Rejected at parse time: none of these reaches the run, where
        # each used to raise or silently do nothing.
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err


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
