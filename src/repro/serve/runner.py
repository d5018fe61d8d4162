"""One instrumented run behind ``repro trace`` and ``repro serve``.

A :data:`TARGETS` entry only *builds*: its size knobs (each with its
default and its command-line parser), the experiment config they make,
and a :class:`Built` — the run's tracer, the
:class:`~repro.serve.snapshots.ServeSources` a hub may read, and the
run step, which runs the workload and returns its determinism
fingerprint. :func:`run_built` is the one place a run is instrumented:
it attaches an :class:`~repro.trace.profiler.EventLoopProfiler`, hands
the sources to an optional ``on_sources`` hook before anything runs,
runs, detaches, and collects metrics and violations into a
:class:`RunOutcome`. :func:`run_target` is that run for a target by
name (fig2's MASC allocation, fig4's tree sweep, or a chaos run: one
segment of a :mod:`repro.faults.soak` world); ``serve attach`` is that
run over :func:`attached_soak`. ``trace`` writes its exports from the
outcome; ``serve`` passes a :class:`ServeHook`, which attaches a
:class:`~repro.serve.sink.TelemetrySink` and starts a
:class:`~repro.serve.hub.TelemetryHub` on the simulation thread.

The fingerprint is the point: ``serve … --control`` executes the
identical run with no hook, and the two fingerprints must be
byte-identical (the CI smoke job diffs them). Anything the serve path
changed about the simulation would show up here first.

:func:`probe_hub` is the self-test used by ``serve run --probe`` and
the smoke job: scrape every endpoint of a live hub over real HTTP,
check each answers a JSON object naming the schema that endpoint must
return (:data:`ENDPOINT_SCHEMAS`), and read at least one SSE frame.
The exact key sets of each schema are pinned by
``tests/serve/test_schemas.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.fig2 import Figure2Config
from repro.experiments.fig4 import Figure4Config, run_figure4
from repro.faults.soak import (
    CHAOS_SEGMENT_LENGTH,
    MAX_FAULTS,
    SoakConfig,
    SoakHarness,
)
from repro.trace.metrics import collect_metrics
from repro.trace.profiler import EventLoopProfiler
from repro.trace.tracer import Tracer

from .hub import TelemetryHub
from .sink import TelemetrySink
from .snapshots import ServeSources

#: The hook a run calls with its sources before the simulator runs.
OnSources = Optional[Callable[[ServeSources], None]]


def number(
    kind: type, low: float, high: float = math.inf, *,
    strict: bool = False, finite: bool = True,
) -> Callable[[str], float]:
    """An argparse ``type=`` parsing ``kind`` within ``[low, high]``
    (``(low, high]`` when ``strict``), and finite unless ``finite`` is
    off: anything else is a usage error, exit 2 naming the flag, not a
    traceback, a hang or a silent no-op inside the run."""

    def parse(text: str) -> float:
        value = kind(text)
        in_range = (value > low if strict else value >= low) and (
            value <= high
        )
        if not in_range or (finite and value == math.inf):
            wanted = (f"> {low}" if strict else f">= {low}") + (
                f" and <= {high}" if high < math.inf else ""
            ) + (" and finite" if finite and kind is float else "")
            raise argparse.ArgumentTypeError(
                f"must be {wanted}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value"
    return parse


COUNT = number(int, 1)


class Knob(NamedTuple):
    """One size knob: its default, its command-line parser, its help."""

    default: Any
    parse: Callable[[str], Any]
    help: str


class Built(NamedTuple):
    """A workload ready to run: its tracer, what a hub may read (None
    when there is no simulator to profile or serve), and the run step,
    which returns the determinism fingerprint."""

    tracer: Tracer
    sources: Optional[ServeSources]
    run: Callable[[], Dict[str, Any]]


@dataclass
class RunOutcome:
    """What one instrumented run produced."""

    fingerprint: Dict[str, Any]
    violations: List[str]
    tracer: Tracer
    profiler: EventLoopProfiler
    registry: Any


def run_built(built: Built, on_sources: OnSources = None) -> RunOutcome:
    """The one instrumented run: profile the simulator, show the hook
    the sources, run, and collect what the run left."""
    profiler = EventLoopProfiler()
    sources = built.sources
    try:
        if sources is not None:
            sources.profiler = profiler.attach(sources.sim)
            if on_sources is not None:
                on_sources(sources)
        fingerprint = built.run()
    finally:
        profiler.detach()
    registry, violations = None, []
    if sources is not None:
        registry = sources.registry_snapshot()
        if sources.sanitizer is not None:
            violations = list(sources.sanitizer.violations)
    return RunOutcome(
        fingerprint, violations, built.tracer, profiler,
        collect_metrics(registry=registry, profiler=profiler),
    )


def _fig2_config(
    seed: int, tops: int, children: int, days: float
) -> Figure2Config:
    return Figure2Config(
        top_count=tops,
        children_per_top=children,
        duration_days=days,
        transient_days=min(60.0, days / 2),
        seed=seed,
    )


def _build_fig2(config: Figure2Config) -> Built:
    tracer = Tracer()
    simulation = config.simulation(tracer)
    managers = list(simulation.tops)
    for siblings in simulation.children.values():
        managers.extend(siblings)

    def run() -> Dict[str, Any]:
        simulation.run()
        return {
            "target": "fig2",
            "seed": config.seed,
            "events": simulation.sim.processed,
            "time": simulation.sim.now,
            "claim_tables": {
                manager.name: [str(p) for p in manager.prefixes()]
                for manager in managers
            },
        }

    return Built(tracer, ServeSources(
        sim=simulation.sim, target="fig2", seed=config.seed,
        tracer=tracer, masc_managers=tuple(managers),
    ), run)


def _fig4_config(seed: int, nodes: int, trials: int) -> Figure4Config:
    return Figure4Config(
        node_count=nodes, trials_per_size=trials, seed=seed
    )


def _build_fig4(config: Figure4Config) -> Built:
    tracer = Tracer()

    def run() -> Dict[str, Any]:
        result = run_figure4(config, tracer=tracer)
        return {"target": "fig4", "seed": config.seed,
                "overall": result.overall()}

    return Built(tracer, None, run)


def _chaos_config(seed: int, faults: int) -> SoakConfig:
    return SoakConfig(
        seed=seed, segments=1, segment_length=CHAOS_SEGMENT_LENGTH,
        faults_per_segment=faults,
    )


def _build_chaos(config: SoakConfig) -> Built:
    harness = SoakHarness(config)
    world = harness.build_world()
    world.sanitizer.raise_on_violation = False
    tracer = world.trace()

    def run() -> Dict[str, Any]:
        plan = harness.run_segment(world)
        world.settle()
        return {
            "target": "chaos",
            "seed": config.seed,
            "events": world.sim.processed,
            "schedule": plan.describe(),
            "claim_tables": world.claim_tables(),
            "forwarding_digest": world.bgmp.forwarding_digest(),
        }

    return Built(tracer, ServeSources.from_world(
        world, "chaos", config.seed, tracer=tracer
    ), run)


def attached_soak(
    soak_dir: str,
    checkpoint: Optional[str] = None,
    segments: Optional[int] = None,
) -> Built:
    """``serve attach``'s run: a private copy of a soak world, restored
    from the latest (or the named) boundary checkpoint in ``soak_dir``
    with its sanitizer recording and dumping off, then ``segments`` of
    the chain's remaining segments (all of them when None).

    The copy runs under a shadow harness with no ``out_dir``, so not
    one file is written: the soak directory stays read-only and the
    real chain's resume identity cannot notice the attach. Restore has
    continuation identity, so the copy runs exactly the segments the
    chain runs — a few segments ahead of live, not an approximation.
    """
    world, _ = SoakHarness(out_dir=soak_dir).restore_world(checkpoint)
    world.sanitizer.raise_on_violation = False
    world.sanitizer.configure_dump(None)
    tracer = world.trace()
    shadow = SoakHarness(world.config)
    remaining = world.config.segments - world.segment
    count = remaining if segments is None else min(segments, remaining)

    def run() -> Dict[str, Any]:
        for _ in range(count):
            shadow.run_segment(world)
        return dict(world.fingerprint())

    return Built(tracer, ServeSources.from_world(
        world, "soak-attach", world.config.seed, tracer=tracer
    ), run)


class Target(NamedTuple):
    """One runnable workload: its size knobs, the config they make
    with a seed, the builder that readies a config to run, and whether
    it has a simulator (only those can be served)."""

    knobs: Dict[str, Knob]
    config: Callable[..., Any]
    build: Callable[[Any], Built]
    simulated: bool = True


#: Every instrumented workload, by the name ``trace`` and ``serve
#: run`` take on the command line. A segment draws at most one fault
#: per candidate group.
TARGETS: Dict[str, Target] = {
    "fig2": Target({
        "tops": Knob(10, COUNT, "top-level domains"),
        "children": Knob(25, COUNT, "children per top"),
        "days": Knob(30.0, number(float, 1), "duration in days"),
    }, _fig2_config, _build_fig2),
    "fig4": Target({
        # ``as_graph`` needs three domains.
        "nodes": Knob(500, number(int, 3), "topology size"),
        "trials": Knob(3, COUNT, "trials per group size"),
    }, _fig4_config, _build_fig4, simulated=False),
    "chaos": Target({
        "faults": Knob(2, number(int, 0, MAX_FAULTS),
                       "faults per segment"),
    }, _chaos_config, _build_chaos),
}


def run_target(
    target: str, seed: int = 0, on_sources: OnSources = None, **knobs
) -> RunOutcome:
    """Build and run ``target`` instrumented; knobs it is not given
    take their :data:`TARGETS` defaults."""
    spec = TARGETS[target]
    values = {name: knob.default for name, knob in spec.knobs.items()}
    values.update(knobs)
    return run_built(spec.build(spec.config(seed, **values)), on_sources)


@dataclass
class ServeHook:
    """The ``on_sources`` hook that serves a run: attaches a
    :class:`TelemetrySink` to the run's sources and starts a
    :class:`TelemetryHub` over it (``on_hub`` sees the started hub).
    Call :meth:`finish` once the run returns."""

    sample_every: int = 25
    host: str = "127.0.0.1"
    port: int = 0
    on_hub: Optional[Callable[[TelemetryHub], None]] = None
    sink: Optional[TelemetrySink] = field(default=None, init=False)
    hub: Optional[TelemetryHub] = field(default=None, init=False)

    def __call__(self, sources: ServeSources) -> None:
        self.sink = TelemetrySink(
            sources, sample_every=self.sample_every
        ).attach()
        self.hub = TelemetryHub(
            self.sink, host=self.host, port=self.port
        ).start()
        if self.on_hub is not None:
            self.on_hub(self.hub)

    def finish(self) -> None:
        """The run returned: flush the sink's last frame and serve
        snapshots of the world at rest."""
        if self.sink is not None:
            self.sink.mark_finished()


# ----------------------------------------------------------------------
# Probe (self-test over real HTTP)

#: The schema each JSON endpoint must name in its ``"schema"`` field.
ENDPOINT_SCHEMAS: Dict[str, str] = {
    "/healthz": "repro.health/v1",
    "/metrics": "repro.metrics/v1",
    "/spans": "repro.spans/v1",
    "/claims": "repro.claims/v1",
    "/violations": "repro.violations/v1",
    "/profile": "repro.profile/v1",
    "/tree/<group>": "repro.tree/v1",
}


def _read_sse_frames(
    url: str, count: int, timeout: float = 10.0
) -> List[Dict[str, Any]]:
    """Read up to ``count`` frames from an SSE stream (stops early at
    the server's ``end`` event)."""
    frames: List[Dict[str, Any]] = []
    with urllib.request.urlopen(url, timeout=timeout) as response:
        event_type = "message"
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event:"):
                event_type = line.split(":", 1)[1].strip()
            elif line.startswith("data:"):
                if event_type == "end":
                    return frames
                frames.append(json.loads(line.split(":", 1)[1]))
                if len(frames) >= count:
                    return frames
            elif not line:
                event_type = "message"
    return frames


def probe_hub(
    base_url: str, want_frames: int = 1
) -> Tuple[List[str], Dict[str, int]]:
    """Scrape and check every endpoint of a live hub.

    Returns ``(errors, visited)`` where ``visited`` counts payloads
    checked per endpoint; empty ``errors`` means every endpoint
    answered 200 with the schema it must return.
    """
    errors: List[str] = []
    visited: Dict[str, int] = {}

    def check(path: str, endpoint: str) -> Dict[str, Any]:
        route = path.split("?")[0]
        visited[route] = visited.get(route, 0) + 1
        want = ENDPOINT_SCHEMAS[endpoint]
        try:
            with urllib.request.urlopen(
                f"{base_url}{path}", timeout=10.0
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            errors.append(f"{route}: HTTP {error.code}")
            return {}
        if not isinstance(payload, dict) or payload.get("schema") != want:
            errors.append(f"{route}: not a {want} object")
            return {}
        return payload

    health = check("/healthz", "/healthz")
    for path in ("/metrics", "/spans?limit=100", "/claims",
                 "/violations", "/profile"):
        check(path, path.split("?")[0])
    for group in health.get("groups", []):
        check(f"/tree/{group}", "/tree/<group>")
    frames = _read_sse_frames(f"{base_url}/stream?from=0", want_frames)
    visited["/stream"] = len(frames)
    if len(frames) < want_frames:
        errors.append(
            f"/stream: wanted {want_frames} frames, got {len(frames)}"
        )
    # The status page itself: must serve and be HTML.
    with urllib.request.urlopen(f"{base_url}/", timeout=10.0) as response:
        page = response.read().decode("utf-8")
        visited["/"] = 1
        if "<!DOCTYPE html>" not in page:
            errors.append("/: status page is not HTML")
    return errors, visited
