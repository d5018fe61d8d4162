"""Command-line interface.

``python -m repro <command>`` regenerates the paper's experiments from
a shell:

- ``fig2`` — the MASC utilization / G-RIB simulation (Figure 2).
- ``fig4`` — the tree path-length comparison (Figure 4).
- ``demo`` — the Figure 1 end-to-end walk-through.
- ``trace`` — an instrumented run (fig2, fig4, or a chaos scenario)
  exporting span traces, a Chrome ``trace_event`` file, and a unified
  metrics snapshot. ``trace`` and ``serve run`` take the same targets
  and size flags from one table (:data:`repro.serve.runner.TARGETS`)
  and run them through one function, so for the same arguments both
  print the same fingerprint as their last stdout line.
- ``soak`` — crash-resumable checkpointed chaos: ``soak run`` writes a
  full-world checkpoint at every segment boundary, ``soak resume``
  continues after a crash from the latest one (fingerprints are
  byte-identical to an uninterrupted run), and ``soak replay``
  re-triggers a sanitizer violation from its dump file.
- ``serve`` — the live telemetry hub: ``serve run`` executes a chaos
  or fig2 workload with an HTTP/SSE hub attached (metrics deltas,
  spans, BGMP trees, MASC claims, sanitizer feed — see
  :mod:`repro.serve`); ``serve attach`` joins an ongoing soak
  read-only from its latest boundary checkpoint. The run's
  determinism fingerprint is the last stdout line, and ``--control``
  re-runs the identical workload serve-free so CI can assert the two
  fingerprints are byte-identical.
- ``scenarios`` — the declarative scenario suite (see
  :mod:`repro.scenarios` and ARCHITECTURE.md §15): ``scenarios run``
  executes TOML scenario files (default: the ``scenarios/`` directory)
  and prints one status + fingerprint line each, optionally comparing
  canonical snapshots against checked-in goldens (``--golden-dir``,
  regenerated with ``--regen``) and fanning out over a process pool
  (``--processes``); ``scenarios validate`` only parses and
  cross-checks the files, reporting DSL errors as ``file:line:``
  messages; ``scenarios list`` tabulates the suite. ``--shard K/N``
  selects every Nth file for CI matrix jobs.

Results (tables, reports) go to stdout; progress and diagnostics go to
stderr through :mod:`logging`, controlled by ``-v`` / ``--quiet``, so
piped output stays clean and the default output is unchanged.

**Exit-code contract** (uniform across subcommands): ``0`` — clean
run; ``1`` — findings (invariant violations, fingerprint or golden
drift, probe mismatches); ``2`` — operational or usage errors
(unwritable output paths, missing checkpoints, bad arguments), always
as a one-line diagnostic on stderr, never an unhandled traceback.
``soak`` extends the range with ``3`` (invariant violation with a
replayable dump) and ``4`` (replay did not reproduce).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional

from repro.experiments.fig2 import (
    Figure2Config,
    paper_scale_config,
    run_figure2,
)
from repro.experiments.fig4 import Figure4Config, run_figure4
from repro.serve.runner import TARGETS

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


def _cmd_fig2(args: argparse.Namespace) -> int:
    if args.paper:
        config = paper_scale_config(seed=args.seed)
    else:
        config = Figure2Config(
            top_count=args.tops,
            children_per_top=args.children,
            duration_days=args.days,
            transient_days=min(60.0, args.days / 2),
            seed=args.seed,
        )
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
    config = Figure4Config(
        node_count=args.nodes,
        trials_per_size=args.trials,
        seed=args.seed,
    )
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


def _sizes(args: argparse.Namespace) -> dict:
    """The target's size knobs, as parsed."""
    return {name: getattr(args, name) for name in TARGETS[args.target].sizes}


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.tracereport import render_run_report
    from repro.serve.runner import run_target
    from repro.trace.export import (
        write_chrome_trace,
        write_jsonl,
        write_metrics_json,
    )

    # Exit-code contract (module docstring): operational failures --
    # an unwritable --out path here, failed export writes below --
    # exit 2 with a one-line diagnostic, never a traceback.
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        log.error("trace: cannot create --out %s: %s", out_dir, error)
        return 2
    sizes = _sizes(args)
    log.info("tracing %s: seed %d, %s", args.target, args.seed, sizes)
    outcome = run_target(args.target, args.seed, **sizes)
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
    try:
        write_jsonl(tracer, jsonl_path)
        write_chrome_trace(tracer, chrome_path, profiler=profiler)
        write_metrics_json(outcome.registry, metrics_path)
    except OSError as error:
        log.error("trace: cannot write exports: %s", error)
        return 2
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


def _soak_fingerprint_json(result) -> str:
    import json

    return json.dumps(result.fingerprint, sort_keys=True)


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.checkpoint.core import CheckpointError
    from repro.faults.soak import (
        SoakConfig,
        SoakHarness,
        replay_dump,
    )
    from repro.sanitizer.core import InvariantViolation

    if args.action == "replay":
        from repro.checkpoint.core import load_dump

        try:
            dump = load_dump(args.dump)
            print(dump.render())
            print()
            violation = replay_dump(args.dump)
        except (CheckpointError, OSError) as error:
            log.error("soak replay failed: %s", error)
            return 2
        if violation is None:
            log.error(
                "soak replay: violation did NOT reproduce — "
                "determinism bug or stale dump"
            )
            return 4
        print("reproduced:")
        print(violation.render())
        return 0

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
    except CheckpointError as error:
        log.error("soak %s failed: %s", args.action, error)
        return 2
    log.info(
        "soak: %d segments, %d faults, %d recoveries",
        result.segments, result.faults, result.recoveries,
    )
    for time, message in result.log:
        log.info("  t=%g %s", time, message)
    print(_soak_fingerprint_json(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import math
    import threading

    from repro.checkpoint.core import CheckpointError
    from repro.serve.attach import AttachOptions, attach_serve
    from repro.serve.runner import ServeHook, probe_hub, run_target

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
    try:
        if args.action == "attach":
            options = AttachOptions(
                soak_dir=args.dir,
                checkpoint=args.checkpoint,
                segments=args.segments,
            )
            outcome = attach_serve(options, on_sources=hook)
        else:
            outcome = run_target(
                args.target, args.seed, on_sources=hook, **_sizes(args)
            )
    except (CheckpointError, OSError) as error:
        log.error("serve %s failed: %s", args.action, error)
        return 2

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
    import json

    from repro.scenarios.spec import ScenarioError
    from repro.scenarios.loader import discover_scenarios, load_scenario
    from repro.scenarios.engine import run_scenario, run_scenario_path

    # Resolve the file set: explicit files win over --dir discovery.
    # Selection problems (missing files, bad shard spec) are usage
    # errors (exit 2); anything wrong *inside* a file is a finding.
    if args.files:
        paths = [Path(name) for name in args.files]
        for path in paths:
            if not path.is_file():
                log.error("scenarios: no such file: %s", path)
                return 2
    else:
        try:
            paths = discover_scenarios(args.dir)
        except ScenarioError as error:
            log.error("scenarios: %s", error.message)
            return 2
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
        from repro.experiments.runner import (
            WorkerItemError,
            parallel_map,
        )

        log.info(
            "scenarios: running %d file(s) over %d processes",
            len(paths), args.processes,
        )
        try:
            outcomes = parallel_map(
                run_scenario_path,
                [str(path) for path in paths],
                processes=args.processes,
            )
        except WorkerItemError as error:
            log.error("scenarios: %s", error)
            return 2
    else:
        outcomes = [run_scenario(specs[path]) for path in paths]

    failed = 0
    regenerated = 0
    for path, outcome in zip(paths, outcomes):
        problems = list(outcome.failures) + list(outcome.violations)
        if golden_dir is not None:
            golden_path = golden_dir / f"{outcome.name}.json"
            if args.regen:
                try:
                    golden_path.parent.mkdir(
                        parents=True, exist_ok=True
                    )
                    golden_path.write_text(
                        json.dumps(
                            outcome.snapshot, indent=2, sort_keys=True
                        ) + "\n",
                        encoding="utf-8",
                    )
                except OSError as error:
                    log.error(
                        "scenarios: cannot write golden %s: %s",
                        golden_path, error,
                    )
                    return 2
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


def _number(
    kind: type, low: float, high: float = math.inf, *, strict: bool = False
) -> Callable[[str], float]:
    """An argparse ``type=`` parsing ``kind`` within ``[low, high]``
    (``(low, high]`` when ``strict``): out of range is a usage error,
    exit 2 naming the flag, not a traceback or a silent no-op inside
    the run."""

    def parse(text: str) -> float:
        value = kind(text)
        if not (value > low if strict else value >= low) or value > high:
            wanted = (f"> {low}" if strict else f">= {low}") + (
                f" and <= {high}" if high < math.inf else ""
            )
            raise argparse.ArgumentTypeError(
                f"must be {wanted}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value"
    return parse


_COUNT = _number(int, 1)
#: ``as_graph`` needs three domains.
_NODES = _number(int, 3)
#: The trace/serve size knobs that have a floor; the rest take their
#: default's type.
_KNOB_TYPES = {"nodes": _NODES, "trials": _COUNT, "faults": _COUNT}


def _add_target(parser: argparse.ArgumentParser, targets: dict) -> None:
    """The positional target, ``--seed`` and every size knob of
    ``targets`` (one default each, from the runner's table)."""
    parser.add_argument("target", choices=tuple(targets),
                        help="the workload to run")
    parser.add_argument("--seed", type=int, default=0)
    for name, target in targets.items():
        for knob, (default, text) in target.sizes.items():
            parser.add_argument(
                f"--{knob}", type=_KNOB_TYPES.get(knob, type(default)),
                default=default, help=f"{name}: {text}",
            )


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
    fig2.add_argument("--tops", type=int, default=10)
    fig2.add_argument("--children", type=int, default=25)
    fig2.add_argument("--days", type=_number(float, 1), default=200.0)
    fig2.add_argument("--every", type=_COUNT, default=20,
                      help="table row spacing in days")
    fig2.add_argument("--seed", type=int, default=0)
    fig2.add_argument("--paper", action="store_true",
                      help="the paper's 50x50 / 800-day setup")
    fig2.set_defaults(func=_cmd_fig2)

    fig4 = sub.add_parser("fig4", help="Figure 4: tree path lengths")
    fig4.add_argument("--nodes", type=_NODES, default=3326)
    fig4.add_argument("--trials", type=_COUNT, default=5)
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
    soak_sub = soak.add_subparsers(dest="action", required=True)

    soak_run = soak_sub.add_parser(
        "run", help="fresh soak chain with boundary checkpoints"
    )
    segment_length = _number(float, 0, strict=True)
    soak_run.add_argument("--seed", type=int, default=0)
    soak_run.add_argument("--segments", type=_COUNT, default=3)
    soak_run.add_argument("--segment-length", type=segment_length,
                          default=30.0)
    soak_run.add_argument("--faults", type=_number(int, 0), default=2,
                          help="faults drawn per segment")
    soak_run.add_argument("--dir", default="soak-out",
                          help="checkpoint/dump output directory")
    soak_run.add_argument("--kill-at", type=float, default=None,
                          help="crash the process (os._exit 137) at "
                               "this simulation time — crash-resume "
                               "testing")
    soak_run.set_defaults(func=_cmd_soak)

    soak_resume = soak_sub.add_parser(
        "resume",
        help="continue from the latest boundary checkpoint in --dir",
    )
    soak_resume.add_argument("--seed", type=int, default=0)
    soak_resume.add_argument("--segments", type=_COUNT, default=3)
    soak_resume.add_argument("--segment-length", type=segment_length,
                             default=30.0)
    soak_resume.add_argument("--faults", type=_number(int, 0), default=2)
    soak_resume.add_argument("--dir", default="soak-out")
    soak_resume.set_defaults(func=_cmd_soak, kill_at=None)

    soak_replay = soak_sub.add_parser(
        "replay",
        help="re-trigger a sanitizer violation from its dump file",
    )
    soak_replay.add_argument("dump", help="violation .dump file path")
    soak_replay.set_defaults(
        func=_cmd_soak, seed=0, segments=0, segment_length=0.0,
        faults=0, dir="", kill_at=None,
    )

    serve = sub.add_parser(
        "serve",
        help="live telemetry hub over a running simulation "
             "(run | attach)",
    )
    serve_sub = serve.add_subparsers(dest="action", required=True)

    def _serve_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--sample-every", type=_COUNT, default=25,
                        help="events between published frames")
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=_number(int, 0, 65535), default=0,
                        help="0 = pick an ephemeral port")
        sp.add_argument("--probe", action="store_true",
                        help="self-scrape every endpoint afterwards "
                             "and check each names its schema (exit 1 "
                             "on mismatch)")
        sp.add_argument("--control", action="store_true",
                        help="run the identical workload with no hub "
                             "attached (the fingerprint control arm)")
        sp.add_argument("--linger", type=_number(float, 0), default=0.0,
                        help="keep serving this many seconds after "
                             "the run finishes (inf: until Ctrl-C)")

    serve_run = serve_sub.add_parser(
        "run", help="run a workload with the hub attached"
    )
    _add_target(serve_run, {
        name: target for name, target in TARGETS.items()
        if target.simulated
    })
    _serve_common(serve_run)
    serve_run.set_defaults(func=_cmd_serve)

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
    serve_attach.add_argument("--segments", type=_number(int, 0),
                              default=None,
                              help="segments to run while attached "
                                   "(default: the chain's remainder)")
    _serve_common(serve_attach)
    serve_attach.set_defaults(func=_cmd_serve)

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative TOML scenario suite "
             "(run | list | validate)",
    )
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
        "--processes", type=_number(int, 0), default=0,
        help="fan runs out over a process pool (0/1 = serial; "
             "pooled fingerprints are byte-identical to serial)",
    )
    scenarios_run.set_defaults(func=_cmd_scenarios)

    scenarios_list = scenarios_sub.add_parser(
        "list", help="tabulate the suite: name, step counts, "
                     "description",
    )
    _scenarios_common(scenarios_list)
    scenarios_list.set_defaults(func=_cmd_scenarios)

    scenarios_validate = scenarios_sub.add_parser(
        "validate",
        help="parse and cross-check only; DSL errors print as "
             "file:line: messages",
    )
    _scenarios_common(scenarios_validate)
    scenarios_validate.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    return args.func(args)
