"""Command-line interface: ``python -m repro <command>``.

``fig2``, ``fig4`` and ``demo`` regenerate the paper's Figures 2, 4
and 1. ``trace`` (span trace, Chrome ``trace_event`` file, metrics
snapshot), ``serve run`` (a live HTTP/SSE hub, :mod:`repro.serve`) and
``serve attach`` (the hub over a private copy of a running soak) are
one instrumented run, :func:`repro.serve.runner.run_built`. Each
prints the run's determinism fingerprint as its last stdout line, and
``serve … --control`` runs the same thing hub-free, so CI can diff the
two. ``soak`` chains checkpointed chaos segments (``run``, crash-safe
``resume``, ``replay`` of a violation dump); ``scenarios`` runs, lists
or validates the TOML scenario suite (ARCHITECTURE.md §15).

Every size knob is declared once, with its default and its parser, in
:data:`repro.serve.runner.TARGETS`; ``fig2``, ``fig4``, ``trace``,
``serve run`` and ``soak`` (``--faults``) read it, each command keeping
its own defaults.

Results go to stdout; diagnostics go to stderr through :mod:`logging`
(``-v`` / ``--quiet``), so piped output stays clean.

**Exit codes**, uniform across commands: ``0`` clean; ``1`` findings
(invariant violations, fingerprint or golden drift, probe mismatches);
``2`` operational or usage errors, always one stderr line, never a
traceback: argparse names the bad flag, and :func:`main` is the one
boundary for :data:`OPERATIONAL_ERRORS`, naming the command. ``soak``
adds ``3`` (a violation with a replayable dump) and ``4`` (replay did
not reproduce).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from repro.checkpoint.core import CheckpointError
from repro.experiments.fig2 import paper_scale_config, run_figure2
from repro.experiments.fig4 import run_figure4
from repro.experiments.runner import WorkerItemError
from repro.scenarios.spec import ScenarioError
from repro.serve.runner import COUNT, TARGETS, number

log = logging.getLogger("repro")


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Diagnostics on stderr: WARNING by default, INFO with ``-v``,
    DEBUG with ``-vv``, ERROR with ``--quiet``."""
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)
    root.propagate = False


def _knobs(args: argparse.Namespace, target: str) -> dict:
    """``target``'s size knobs, as parsed."""
    return {name: getattr(args, name) for name in TARGETS[target].knobs}


def _config(args: argparse.Namespace, target: str):
    """``target``'s experiment config from the parsed seed and knobs."""
    return TARGETS[target].config(args.seed, **_knobs(args, target))


def _cmd_fig2(args: argparse.Namespace) -> int:
    if args.paper:
        config = paper_scale_config(seed=args.seed)
    else:
        config = _config(args, "fig2")
    log.info(
        "fig2: %dx%d domains, %g days, seed %d",
        config.top_count, config.children_per_top,
        config.duration_days, config.seed,
    )
    result = run_figure2(config)
    print(result.table(every_days=args.every))
    steady = result.steady_state()
    print()
    print(f"steady utilization: {steady['utilization_mean']:.3f}")
    print(f"steady G-RIB mean:  {steady['grib_mean']:.1f}"
          f" (max {steady['grib_max']:.0f})")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    config = _config(args, "fig4")
    log.info(
        "fig4: %d nodes, %d trials per size, seed %d",
        config.node_count, config.trials_per_size, config.seed,
    )
    result = run_figure4(config)
    print(result.table())
    print()
    for kind, stats in result.overall().items():
        print(f"{kind}: avg {stats['average']:.3f}x,"
              f" max {stats['max']:.2f}x")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.system import MulticastInternet
    from repro.topology.generators import paper_figure1_topology

    topology = paper_figure1_topology()
    internet = MulticastInternet(topology, seed=args.seed)
    initiator = topology.domain("F").host("alice")
    session = internet.create_group(initiator)
    print(f"group {session.address} rooted at "
          f"{session.root_domain.name}")
    for name in ("G", "C", "D"):
        internet.join(topology.domain(name).host("m"), session.group)
    report = internet.send(
        topology.domain("E").host("s"), session.group
    )
    print(report)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.tracereport import render_run_report
    from repro.serve.runner import run_built
    from repro.trace.export import (
        write_chrome_trace,
        write_jsonl,
        write_metrics_json,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("tracing %s: seed %d, %s",
             args.target, args.seed, _knobs(args, args.target))
    outcome = run_built(TARGETS[args.target].build(_config(args, args.target)))
    tracer, profiler = outcome.tracer, outcome.profiler
    findings = 0
    if outcome.violations:
        # Findings, not an operational failure: exports are still
        # written (they are the evidence), but the exit code is 1.
        log.warning(
            "%s run recorded %d invariant violations",
            args.target, len(outcome.violations),
        )
        findings = 1

    jsonl_path = out_dir / f"{args.target}.trace.jsonl"
    chrome_path = out_dir / f"{args.target}.chrome.json"
    metrics_path = out_dir / f"{args.target}.metrics.json"
    write_jsonl(tracer, jsonl_path)
    write_chrome_trace(tracer, chrome_path, profiler=profiler)
    write_metrics_json(outcome.registry, metrics_path)
    log.info("wrote %s, %s, %s", jsonl_path, chrome_path, metrics_path)

    print(render_run_report(tracer, profiler, outcome.registry))
    print()
    print(f"spans: {len(tracer)}  events: {profiler.events}")
    print(f"trace:   {jsonl_path}")
    print(f"chrome:  {chrome_path}")
    print(f"metrics: {metrics_path}")
    # The same fingerprint `serve run` prints for the same arguments.
    print(json.dumps(outcome.fingerprint, sort_keys=True))
    return findings


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.checkpoint.core import load_dump
    from repro.faults.soak import (
        FAULT_REACH,
        SoakConfig,
        SoakHarness,
        replay_dump,
    )
    from repro.sanitizer.core import InvariantViolation

    if args.action == "replay":
        print(load_dump(args.dump).render())
        print()
        violation = replay_dump(args.dump)
        if violation is None:
            log.error(
                "soak replay: violation did NOT reproduce — "
                "determinism bug or stale dump"
            )
            return 4
        print("reproduced:")
        print(violation.render())
        return 0

    if args.faults and args.segment_length < FAULT_REACH:
        # A usage error like the parser's range checks: the faults would
        # be drawn past the segment's end, and none would fire.
        log.error("soak %s: argument --segment-length: must be >= %g when "
                  "--faults > 0, got %g", args.action, FAULT_REACH,
                  args.segment_length)
        sys.exit(2)
    config = SoakConfig(
        seed=args.seed,
        segments=args.segments,
        segment_length=args.segment_length,
        faults_per_segment=args.faults,
    )
    harness = SoakHarness(config=config, out_dir=args.dir)
    try:
        if args.action == "resume":
            result = harness.resume()
        else:
            result = harness.run(kill_at=args.kill_at)
    except InvariantViolation as violation:
        log.error("soak: invariant violation at t=%g", violation.time)
        print(violation.render())
        dumps = sorted(Path(args.dir).glob("*.dump")) if args.dir else []
        for dump_path in dumps:
            print(f"dump: {dump_path}")
        if dumps:
            print(f"replay with: python -m repro soak replay {dumps[-1]}")
        return 3
    log.info(
        "soak: %d segments, %d faults, %d recoveries",
        result.segments, result.faults, result.recoveries,
    )
    for time, message in result.log:
        log.info("  t=%g %s", time, message)
    print(json.dumps(result.fingerprint, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve.runner import (
        ServeHook,
        attached_soak,
        probe_hub,
        run_built,
    )

    if args.control and (args.probe or args.linger):
        log.error("serve: --probe and --linger need the hub "
                  "(drop --control)")
        return 2
    hook = None
    if not args.control:
        hook = ServeHook(
            args.sample_every, args.host, args.port,
            on_hub=lambda hub: print(
                f"serving on {hub.url}", file=sys.stderr
            ),
        )
    if args.action == "attach":
        built = attached_soak(args.dir, args.checkpoint, args.segments)
    else:
        built = TARGETS[args.target].build(_config(args, args.target))
    outcome = run_built(built, hook)
    findings = 0
    for violation in outcome.violations:
        log.warning("serve: invariant violation: %s", violation)
        findings = 1
    if hook is not None:
        hook.finish()
        if args.probe:
            errors, visited = probe_hub(hook.hub.url)
            for problem in errors:
                log.error("probe: %s", problem)
            print(
                f"probe: {sum(visited.values())} payloads across "
                f"{len(visited)} endpoints, {len(errors)} errors",
                file=sys.stderr,
            )
            if errors:
                findings = 1
        if args.linger:
            print("finished; still serving (Ctrl-C to stop)",
                  file=sys.stderr)
            try:
                threading.Event().wait(
                    None if math.isinf(args.linger) else args.linger
                )
            except KeyboardInterrupt:
                pass
        hook.hub.stop()
    # The fingerprint is the last stdout line by contract: the CI
    # smoke job diffs it between served and --control runs.
    print(json.dumps(outcome.fingerprint, sort_keys=True))
    return findings


def _parse_shard(text: str) -> tuple:
    """``K/N`` -> ``(K, N)`` with ``0 <= K < N``; raises ValueError."""
    index_text, sep, count_text = text.partition("/")
    if not sep:
        raise ValueError(f"--shard must be K/N, got {text!r}")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"--shard must be K/N, got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"--shard needs 0 <= K < N, got {index}/{count}"
        )
    return index, count


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.loader import discover_scenarios, load_scenario
    from repro.scenarios.engine import run_scenario, run_scenario_path

    # Resolve the file set: explicit files win over --dir discovery.
    # Selection problems (missing files, bad shard spec) are usage
    # errors (exit 2); anything wrong *inside* a file is a finding.
    if args.files:
        paths = [Path(name) for name in args.files]
        for path in paths:
            if path.is_dir():
                log.error("scenarios: %s is a directory; run its "
                          "scenarios with --dir %s", path, path)
                return 2
            if not path.is_file():
                log.error("scenarios: no such file: %s", path)
                return 2
    else:
        paths = discover_scenarios(args.dir)
    if args.shard:
        try:
            index, count = _parse_shard(args.shard)
        except ValueError as error:
            log.error("scenarios: %s", error)
            return 2
        paths = [p for i, p in enumerate(paths) if i % count == index]
    if not paths:
        log.error("scenarios: no scenario files selected")
        return 2

    # Every action starts from validation: a DSL error is a finding
    # (exit 1) carried by its file:line message, and run refuses to
    # execute a suite containing invalid files.
    specs = {}
    invalid = 0
    for path in paths:
        try:
            specs[path] = load_scenario(path)
        except ScenarioError as error:
            log.error("%s", error)
            invalid += 1

    if args.action == "validate":
        print(f"{len(paths)} scenario file(s): "
              f"{len(paths) - invalid} valid, {invalid} invalid")
        return 1 if invalid else 0

    if args.action == "list":
        for path in paths:
            spec = specs.get(path)
            if spec is None:
                print(f"{path.stem:<28} INVALID")
                continue
            mutations = spec.mutations
            asserts = spec.assertions
            print(f"{spec.name:<28} {mutations:>2} do {asserts:>2} "
                  f"assert  {spec.description}")
        print(f"{len(paths)} scenario file(s)")
        return 1 if invalid else 0

    if invalid:
        log.error(
            "scenarios: %d invalid file(s); not running", invalid
        )
        return 1

    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    if args.regen and golden_dir is None:
        log.error("scenarios: --regen requires --golden-dir")
        return 2

    if args.processes and args.processes > 1:
        from repro.experiments.runner import parallel_map

        log.info(
            "scenarios: running %d file(s) over %d processes",
            len(paths), args.processes,
        )
        outcomes = parallel_map(
            run_scenario_path,
            [str(path) for path in paths],
            processes=args.processes,
        )
    else:
        outcomes = [run_scenario(specs[path]) for path in paths]

    failed = 0
    regenerated = 0
    for path, outcome in zip(paths, outcomes):
        problems = list(outcome.failures) + list(outcome.violations)
        if golden_dir is not None:
            golden_path = golden_dir / f"{outcome.name}.json"
            if args.regen:
                golden_path.parent.mkdir(parents=True, exist_ok=True)
                golden_path.write_text(
                    json.dumps(
                        outcome.snapshot, indent=2, sort_keys=True
                    ) + "\n",
                    encoding="utf-8",
                )
                regenerated += 1
            elif not golden_path.is_file():
                problems.append(
                    f"{path}: no golden snapshot at {golden_path} "
                    "(generate with --regen)"
                )
            elif json.loads(
                golden_path.read_text(encoding="utf-8")
            ) != outcome.snapshot:
                problems.append(
                    f"{path}: snapshot drifted from golden "
                    f"{golden_path} (inspect the diff, then --regen)"
                )
        status = "ok" if not problems else "FAIL"
        print(f"{status:<5} {outcome.name:<28} "
              f"{outcome.fingerprint[:12]}")
        for problem in problems:
            log.error("%s", problem)
        if problems:
            failed += 1
    print(f"{len(outcomes)} scenarios: "
          f"{len(outcomes) - failed} ok, {failed} failed")
    if args.regen:
        print(f"regenerated {regenerated} golden snapshot(s) "
              f"in {golden_dir}")
    return 1 if failed else 0


def _add_knobs(
    parser: argparse.ArgumentParser, targets: Iterable[str], **defaults
) -> None:
    """``--<knob>`` for every size knob of ``targets``, parsed by its
    :data:`TARGETS` entry; ``defaults`` are this command's own."""
    for name in targets:
        for knob, spec in TARGETS[name].knobs.items():
            parser.add_argument(
                f"--{knob}", type=spec.parse,
                default=defaults.get(knob, spec.default),
                help=f"{name}: {spec.help}",
            )


def _add_target(
    parser: argparse.ArgumentParser, targets: Iterable[str]
) -> None:
    """The positional target, ``--seed`` and every size knob of
    ``targets``."""
    targets = tuple(targets)
    parser.add_argument("target", choices=targets,
                        help="the workload to run")
    parser.add_argument("--seed", type=int, default=0)
    _add_knobs(parser, targets)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the MASC/BGMP inter-domain multicast "
            "architecture (SIGCOMM 1998)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="Figure 2: MASC allocation run")
    _add_knobs(fig2, ["fig2"], days=200.0)
    fig2.add_argument("--every", type=COUNT, default=20,
                      help="table row spacing in days")
    fig2.add_argument("--seed", type=int, default=0)
    fig2.add_argument("--paper", action="store_true",
                      help="the paper's 50x50 / 800-day setup")
    fig2.set_defaults(func=_cmd_fig2)

    fig4 = sub.add_parser("fig4", help="Figure 4: tree path lengths")
    _add_knobs(fig4, ["fig4"], nodes=3326, trials=5)
    fig4.add_argument("--seed", type=int, default=0)
    fig4.set_defaults(func=_cmd_fig4)

    demo = sub.add_parser("demo", help="Figure 1 end-to-end demo")
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser(
        "trace",
        help="instrumented run: span trace + Chrome trace + metrics",
    )
    trace.add_argument("--out", default="trace-out",
                       help="output directory for the export files")
    _add_target(trace, TARGETS)
    trace.set_defaults(func=_cmd_trace)

    soak = sub.add_parser(
        "soak",
        help="crash-resumable checkpointed chaos soak "
             "(run | resume | replay)",
    )
    soak.set_defaults(func=_cmd_soak, kill_at=None)
    soak_sub = soak.add_subparsers(dest="action", required=True)

    def _soak_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--segments", type=COUNT, default=3)
        sp.add_argument("--segment-length",
                        type=number(float, 0, strict=True), default=30.0)
        _add_knobs(sp, ["chaos"])
        sp.add_argument("--dir", default="soak-out",
                        help="checkpoint/dump directory")

    soak_run = soak_sub.add_parser(
        "run", help="fresh soak chain with boundary checkpoints"
    )
    _soak_common(soak_run)
    soak_run.add_argument("--kill-at", type=number(float, 0),
                          help="crash the process (os._exit 137) at "
                               "this simulation time — crash-resume "
                               "testing")
    _soak_common(soak_sub.add_parser(
        "resume",
        help="continue from the latest boundary checkpoint in --dir",
    ))

    soak_sub.add_parser(
        "replay",
        help="re-trigger a sanitizer violation from its dump file",
    ).add_argument("dump", help="violation .dump file path")

    serve = sub.add_parser(
        "serve",
        help="live telemetry hub over a running simulation "
             "(run | attach)",
    )
    serve.set_defaults(func=_cmd_serve)
    serve_sub = serve.add_subparsers(dest="action", required=True)

    def _serve_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--sample-every", type=COUNT, default=25,
                        help="events between published frames")
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=number(int, 0, 65535), default=0,
                        help="0 = pick an ephemeral port")
        sp.add_argument("--probe", action="store_true",
                        help="self-scrape every endpoint afterwards "
                             "and check each names its schema (exit 1 "
                             "on mismatch)")
        sp.add_argument("--control", action="store_true",
                        help="run the identical workload with no hub "
                             "attached (the fingerprint control arm)")
        sp.add_argument("--linger", type=number(float, 0, finite=False),
                        default=0.0,
                        help="keep serving this many seconds after "
                             "the run finishes (inf: until Ctrl-C)")

    serve_run = serve_sub.add_parser(
        "run", help="run a workload with the hub attached"
    )
    _add_target(serve_run, [
        name for name, target in TARGETS.items() if target.simulated
    ])
    _serve_common(serve_run)

    serve_attach = serve_sub.add_parser(
        "attach",
        help="join an ongoing soak read-only from its latest "
             "boundary checkpoint",
    )
    serve_attach.add_argument("--dir", default="soak-out",
                              help="the soak's checkpoint directory "
                                   "(read-only)")
    serve_attach.add_argument("--checkpoint", default=None,
                              help="attach from this .ckpt instead of "
                                   "the latest")
    serve_attach.add_argument("--segments", type=number(int, 0),
                              default=None,
                              help="segments to run while attached "
                                   "(default: the chain's remainder)")
    _serve_common(serve_attach)

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative TOML scenario suite "
             "(run | list | validate)",
    )
    scenarios.set_defaults(func=_cmd_scenarios)
    scenarios_sub = scenarios.add_subparsers(
        dest="action", required=True
    )

    def _scenarios_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("files", nargs="*",
                        help="specific scenario files (default: every "
                             "*.toml under --dir)")
        sp.add_argument("--dir", default="scenarios",
                        help="scenario directory (default: scenarios/)")
        sp.add_argument("--shard", default="",
                        help="K/N: run every Nth file starting at K "
                             "(CI matrix sharding)")

    scenarios_run = scenarios_sub.add_parser(
        "run", help="execute scenarios; one status+fingerprint line "
                    "each",
    )
    _scenarios_common(scenarios_run)
    scenarios_run.add_argument(
        "--golden-dir", default="",
        help="compare canonical snapshots against <name>.json goldens "
             "in this directory (drift is a finding)",
    )
    scenarios_run.add_argument(
        "--regen", action="store_true",
        help="rewrite the goldens in --golden-dir from this run",
    )
    scenarios_run.add_argument(
        "--processes", type=number(int, 0), default=0,
        help="fan runs out over a process pool (0/1 = serial; "
             "pooled fingerprints are byte-identical to serial)",
    )

    _scenarios_common(scenarios_sub.add_parser(
        "list", help="tabulate the suite: name, step counts, "
                     "description",
    ))
    _scenarios_common(scenarios_sub.add_parser(
        "validate",
        help="parse and cross-check only; DSL errors print as "
             "file:line: messages",
    ))
    return parser


#: What a command raises when its own paths, checkpoints or workers
#: fail: operational errors, exit 2.
OPERATIONAL_ERRORS = (CheckpointError, ScenarioError, WorkerItemError,
                      OSError)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point, and the one exit-2 boundary for
    :data:`OPERATIONAL_ERRORS`: one stderr line naming the command."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        return args.func(args)
    except OPERATIONAL_ERRORS as error:
        command = " ".join(
            filter(None, (args.command, getattr(args, "action", None)))
        )
        log.error("%s failed: %s", command, error)
        return 2
