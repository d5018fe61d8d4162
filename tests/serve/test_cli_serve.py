"""The serve CLI surface, its shared path with trace, and the trace
exit-code contract."""

import json
import urllib.request

import pytest

from repro.cli import build_parser, main
from repro.serve import TARGETS, ServeHook, run_target

#: Small sizes per simulator target, as command-line flags.
SMALL = {
    "chaos": ["--faults", "1"],
    "fig2": ["--tops", "2", "--children", "2", "--days", "3"],
}


class TestServeParser:
    def test_serve_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_run_defaults(self):
        args = build_parser().parse_args(["serve", "run", "chaos"])
        assert args.action == "run"
        assert args.target == "chaos"
        assert args.sample_every == 25
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert not args.probe
        assert not args.control
        assert args.linger == 0.0

    def test_serve_run_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "run", "fig9"])

    def test_serve_attach_defaults(self):
        args = build_parser().parse_args(["serve", "attach"])
        assert args.action == "attach"
        assert args.dir == "soak-out"
        assert args.checkpoint is None
        assert args.segments is None

    def test_serve_attach_overrides(self):
        args = build_parser().parse_args([
            "serve", "attach", "--dir", "x", "--segments", "1",
            "--sample-every", "5", "--probe",
        ])
        assert args.dir == "x"
        assert args.segments == 1
        assert args.sample_every == 5
        assert args.probe


class TestServeCommand:
    def test_control_run_prints_fingerprint_last(self, capsys):
        code = main(["serve", "run", "chaos", "--control"])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        fingerprint = json.loads(last)
        assert fingerprint["target"] == "chaos"
        assert fingerprint["forwarding_digest"]

    def test_probe_with_control_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        # --probe and --linger need the hub, so they are rejected with
        # --control before anything is built: the workload never runs.
        def no_run(*args, **kwargs):
            raise AssertionError("workload ran before the usage check")

        monkeypatch.setattr("repro.serve.runner.run_target", no_run)
        monkeypatch.setattr("repro.serve.attach.attach_serve", no_run)
        for action in (["run", "chaos"], ["attach"]):
            for flags in (["--probe"], ["--linger", "5"],
                          ["--linger", "inf"]):
                code = main(["serve", *action, "--control", *flags])
                assert code == 2
                err = capsys.readouterr().err
                assert len(err.strip().splitlines()) == 1
                assert "drop --control" in err

    def test_served_probe_run(self, capsys):
        code = main([
            "serve", "run", "fig2", "--days", "3", "--tops", "2",
            "--children", "2", "--sample-every", "5", "--probe",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "serving on http://127.0.0.1:" in captured.err
        assert "0 errors" in captured.err
        fingerprint = json.loads(captured.out.strip().splitlines()[-1])
        assert fingerprint["target"] == "fig2"

    def test_attach_missing_dir_exits_2(self, tmp_path):
        assert main(
            ["-q", "serve", "attach", "--dir", str(tmp_path / "nope")]
        ) == 2


@pytest.mark.parametrize(
    "target", [name for name, spec in TARGETS.items() if spec.simulated]
)
def test_trace_and_serve_share_one_run(target, tmp_path, capsys):
    """`trace` and `serve run` are one instrumented run: the same size
    flags with the same defaults, the same fingerprint for the same
    arguments, and a served run's profiler fills /profile."""
    parser = build_parser()
    trace = parser.parse_args(["trace", target, *SMALL[target]])
    served = parser.parse_args(["serve", "run", target, *SMALL[target]])
    knobs = ["seed", *TARGETS[target].sizes]
    assert {k: getattr(trace, k) for k in knobs} == {
        k: getattr(served, k) for k in knobs
    }
    trace = parser.parse_args(["trace", target])
    served = parser.parse_args(["serve", "run", target])
    defaults = {"seed": 0, **{
        name: default
        for name, (default, _) in TARGETS[target].sizes.items()
    }}
    assert {k: getattr(trace, k) for k in knobs} == defaults
    assert {k: getattr(served, k) for k in knobs} == defaults

    args = [*SMALL[target], "--seed", "3"]
    assert main(["-q", "trace", target, *args,
                 "--out", str(tmp_path)]) == 0
    traced = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["-q", "serve", "run", target, *args, "--control"]) == 0
    control = capsys.readouterr().out.strip().splitlines()[-1]
    assert traced == control
    assert json.loads(traced)["target"] == target

    parsed = parser.parse_args(["serve", "run", target, *args])
    hook = ServeHook()
    run_target(target, parsed.seed, on_sources=hook, **{
        k: getattr(parsed, k) for k in TARGETS[target].sizes
    })
    hook.finish()
    try:
        with urllib.request.urlopen(
            f"{hook.hub.url}/profile", timeout=10.0
        ) as response:
            profile = json.loads(response.read())
    finally:
        hook.hub.stop()
    assert profile["events"] > 0


class TestTraceExitCodes:
    """Satellite: `repro trace` honors the 0/1/2 contract."""

    def test_unwritable_out_dir_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # --out beneath a regular file: mkdir must fail cleanly.
        code = main([
            "-q", "trace", "chaos",
            "--out", str(blocker / "sub"),
        ])
        assert code == 2

    def test_export_write_failure_exits_2(
        self, tmp_path, monkeypatch
    ):
        def broken_write(*args, **kwargs):
            raise OSError("disk full")

        # _cmd_trace imports the name from the repro.trace package.
        monkeypatch.setattr(
            "repro.trace.write_jsonl", broken_write
        )
        code = main([
            "-q", "trace", "fig2", "--days", "2", "--tops", "2",
            "--children", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_clean_chaos_trace_exits_0(self, tmp_path):
        code = main([
            "-q", "trace", "chaos", "--seed", "0",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
