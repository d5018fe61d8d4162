"""Tests for the command-line interface."""

import argparse
import json
import logging
import math

import pytest

from repro.cli import build_parser, main
from repro.faults.soak import MAX_FAULTS

#: One more fault than a segment can draw (one per candidate group).
TOO_MANY_FAULTS = str(MAX_FAULTS + 1)

#: (argv, the flag its usage error names): numeric flags out of range.
OUT_OF_RANGE = [
    (["fig2", "--days", "-1"], "--days"),
    (["fig2", "--every", "0"], "--every"),
    (["fig2", "--tops", "0"], "--tops"),
    (["fig2", "--children", "-1"], "--children"),
    (["trace", "fig2", "--tops", "0"], "--tops"),
    (["trace", "fig2", "--days", "-5"], "--days"),
    (["fig4", "--trials", "0"], "--trials"),
    (["fig4", "--nodes", "1"], "--nodes"),
    (["trace", "chaos", "--faults", "-1"], "--faults"),
    (["serve", "run", "chaos", "--sample-every", "0"], "--sample-every"),
    (["serve", "run", "chaos", "--port", "99999"], "--port"),
    (["soak", "run", "--segment-length", "-5"], "--segment-length"),
    (["soak", "run", "--faults", "-2"], "--faults"),
    (["trace", "chaos", "--faults", TOO_MANY_FAULTS], "--faults"),
    (["serve", "run", "chaos", "--faults", TOO_MANY_FAULTS], "--faults"),
    (["soak", "run", "--faults", TOO_MANY_FAULTS], "--faults"),
    (["soak", "run", "--kill-at", "nan"], "--kill-at"),
    (["serve", "attach", "--segments", "-1"], "--segments"),
    (["serve", "run", "chaos", "--linger", "-1"], "--linger"),
    (["scenarios", "run", "--processes", "-2"], "--processes"),
    (["fig2", "--days", "inf"], "--days"),
    (["trace", "fig2", "--days", "inf"], "--days"),
    (["soak", "run", "--segment-length", "inf"], "--segment-length"),
    (["soak", "run", "--segment-length", "10.9"], "--segment-length"),
    (["soak", "resume", "--faults", "1", "--segment-length", "5"],
     "--segment-length"),
]

#: What the parser walk feeds every typed option, through
#: ``parse_args`` alone: no case runs a workload or starts a process.
HOSTILE = ["0", "-1", "nan", "inf", "1e400", ""]

#: Float options whose ``inf`` is documented (serve until Ctrl-C).
INFINITE_OK = {"--linger"}

#: (scenario path, the usage error it gets), ``{tmp}`` a fresh empty
#: directory: paths that name no scenario file.
NOT_A_SCENARIO_FILE = [
    ("{tmp}/missing.toml", "no such file: {tmp}/missing.toml"),
    ("{tmp}", "{tmp} is a directory; run its scenarios with --dir {tmp}"),
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

    def test_missing_scenario_directory_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["scenarios", "run", "--dir", str(missing)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert str(missing) in lines[0]
        assert "<scenario>" not in lines[0]

    @pytest.mark.parametrize(
        "path, message", NOT_A_SCENARIO_FILE,
        ids=[path for path, _message in NOT_A_SCENARIO_FILE],
    )
    def test_scenario_path_that_is_no_file_is_a_usage_error(
        self, path, message, tmp_path, capsys
    ):
        path, message = (text.format(tmp=tmp_path) for text in (path, message))
        assert main(["scenarios", "run", path]) == 2
        err = capsys.readouterr().err
        assert f"scenarios: {message}" in err
        assert "Traceback" not in err


def leaf_commands(parser, prefix=()):
    """Every runnable subcommand under ``parser``: (argv prefix, the
    subcommand's parser), read from the parser itself."""
    subparsers = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subparsers:
        yield list(prefix), parser
        return
    for name, sub in subparsers[0].choices.items():
        yield from leaf_commands(sub, (*prefix, name))


def required_positionals(parser):
    """A value for each required positional: its first choice, else a
    placeholder path (parse only, so it is never opened)."""
    return [
        action.choices[0] if action.choices else "placeholder"
        for action in parser._actions
        if not action.option_strings and action.nargs is None
    ]


class TestParserWalk:
    def test_every_typed_option_parses_or_exits_2(self, capsys):
        parser = build_parser()
        seen, problems = set(), []
        for prefix, command in leaf_commands(parser):
            positionals = required_positionals(command)
            for action in command._actions:
                if not action.option_strings or action.type is None:
                    continue
                flag = action.option_strings[-1]
                seen.add(flag)
                for value in HOSTILE:
                    argv = [*prefix, *positionals, f"{flag}={value}"]
                    case = " ".join(argv)
                    try:
                        args = parser.parse_args(argv)
                    except SystemExit as exit_info:
                        errors = [
                            line for line in
                            capsys.readouterr().err.splitlines()
                            if "error:" in line
                        ]
                        named = f"argument {'/'.join(action.option_strings)}:"
                        if exit_info.code != 2 or len(errors) != 1 or (
                            named not in errors[0]
                        ):
                            problems.append(f"{case}: {errors}")
                        continue
                    got = getattr(args, action.dest)
                    if isinstance(got, float) and not math.isfinite(got) \
                            and flag not in INFINITE_OK:
                        problems.append(f"{case}: parsed to {got}")
        assert problems == []
        # The walk reached every flag the hand-written table names.
        assert {flag for _argv, flag in OUT_OF_RANGE} <= seen


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
             "--segment-length", "11", "--dir", str(tmp_path)]
        )
        assert code == 0
        fingerprint = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]
        )
        assert "forwarding_digest" in fingerprint
        assert "rib_digest" in fingerprint
        assert (tmp_path / "soak-seed2-seg0.ckpt").exists()

    def test_short_segment_without_faults_runs(self, tmp_path, capsys):
        # No fault has to fit in the segment, so any length will do.
        code = main(
            ["soak", "run", "--faults", "0", "--segments", "1",
             "--segment-length", "0.5", "--dir", str(tmp_path)]
        )
        assert code == 0
        assert '"faults": 0' in capsys.readouterr().out

    def test_resume_without_checkpoints_exits_two(self, tmp_path):
        code = main(
            ["soak", "resume", "--dir", str(tmp_path / "nothing")]
        )
        assert code == 2
