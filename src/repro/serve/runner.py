"""One instrumented run behind ``repro trace`` and ``repro serve run``.

:func:`run_target` builds one of the :data:`TARGETS` workloads (the
fig2 MASC allocation run, the fig4 tree sweep, or a chaos run: one
segment of a :mod:`repro.faults.soak` world), wires in a tracer and an
:class:`~repro.trace.profiler.EventLoopProfiler`, hands the run's
:class:`~repro.serve.snapshots.ServeSources` to an optional
``on_sources`` hook before the simulator runs, runs it, and returns a
:class:`RunOutcome`: determinism fingerprint, tracer, profiler,
metrics store and violations. ``trace`` writes its exports from the
outcome; ``serve run`` passes a :class:`ServeHook`, which attaches a
:class:`~repro.serve.sink.TelemetrySink` and starts a
:class:`~repro.serve.hub.TelemetryHub` on the simulation thread.

The fingerprint is the point: ``serve run --control`` executes the
identical workload with no hook, and the two fingerprints must be
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

import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.trace.metrics import collect_metrics
from repro.trace.profiler import EventLoopProfiler
from repro.trace.tracer import Tracer

from .hub import TelemetryHub
from .sink import TelemetrySink
from .snapshots import ServeSources

#: The hook a run calls with its sources before the simulator runs.
OnSources = Optional[Callable[[ServeSources], None]]


@dataclass
class RunOutcome:
    """What one instrumented run (or soak attach) produced."""

    fingerprint: Dict[str, Any]
    violations: List[str]
    tracer: Any = None
    profiler: Optional[EventLoopProfiler] = None
    registry: Any = None


def _run_fig2(
    seed: int, profiler: EventLoopProfiler, on_sources: OnSources,
    tops: int, children: int, days: float,
) -> RunOutcome:
    from repro.masc.simulation import ClaimSimulation, SimulationConfig

    tracer = Tracer()
    simulation = ClaimSimulation(
        SimulationConfig(
            top_count=tops,
            children_per_top=children,
            duration_days=days,
            seed=seed,
        ),
        tracer=tracer,
    )
    managers = list(simulation.tops)
    for siblings in simulation.children.values():
        managers.extend(siblings)
    profiler.attach(simulation.sim)
    if on_sources is not None:
        on_sources(ServeSources(
            sim=simulation.sim,
            target="fig2",
            seed=seed,
            tracer=tracer,
            profiler=profiler,
            masc_managers=tuple(managers),
        ))
    simulation.run()
    fingerprint = {
        "target": "fig2",
        "seed": seed,
        "events": simulation.sim.processed,
        "time": simulation.sim.now,
        "claim_tables": {
            manager.name: [str(p) for p in manager.prefixes()]
            for manager in managers
        },
    }
    return RunOutcome(
        fingerprint, [], tracer, profiler,
        collect_metrics(masc_managers=managers),
    )


def _run_fig4(
    seed: int, profiler: EventLoopProfiler, on_sources: OnSources,
    nodes: int, trials: int,
) -> RunOutcome:
    from repro.experiments.fig4 import Figure4Config, run_figure4

    tracer = Tracer()
    result = run_figure4(
        Figure4Config(node_count=nodes, trials_per_size=trials, seed=seed),
        tracer=tracer,
    )
    fingerprint = {"target": "fig4", "seed": seed,
                   "overall": result.overall()}
    return RunOutcome(fingerprint, [], tracer, profiler)


def _run_chaos(
    seed: int, profiler: EventLoopProfiler, on_sources: OnSources,
    faults: int,
) -> RunOutcome:
    from repro.faults.soak import (
        CHAOS_SEGMENT_LENGTH,
        SoakConfig,
        SoakHarness,
    )

    harness = SoakHarness(SoakConfig(
        seed=seed, segments=1, segment_length=CHAOS_SEGMENT_LENGTH,
        faults_per_segment=faults,
    ))
    world = harness.build_world()
    world.sanitizer.raise_on_violation = False
    tracer = world.trace()
    profiler.attach(world.sim)
    sources = ServeSources.from_world(
        world, "chaos", seed, tracer=tracer, profiler=profiler
    )
    if on_sources is not None:
        on_sources(sources)
    plan = harness.run_segment(world)
    world.settle()
    fingerprint = {
        "target": "chaos",
        "seed": seed,
        "events": world.sim.processed,
        "schedule": plan.describe(),
        "claim_tables": world.claim_tables(),
        "forwarding_digest": world.bgmp.forwarding_digest(),
    }
    return RunOutcome(
        fingerprint, list(world.sanitizer.violations), tracer, profiler,
        sources.registry_snapshot(),
    )


class Target(NamedTuple):
    """One runnable workload: its driver, its size knobs as
    ``name -> (default, help)``, and whether it has a simulator (only
    those can be served)."""

    run: Callable[..., RunOutcome]
    sizes: Dict[str, Tuple[Any, str]]
    simulated: bool = True


#: Every instrumented workload, by the name ``trace`` and ``serve
#: run`` take on the command line.
TARGETS: Dict[str, Target] = {
    "fig2": Target(_run_fig2, {
        "tops": (10, "top-level domains"),
        "children": (25, "children per top"),
        "days": (30.0, "duration in days"),
    }),
    "fig4": Target(_run_fig4, {
        "nodes": (500, "topology size"),
        "trials": (3, "trials per group size"),
    }, simulated=False),
    "chaos": Target(_run_chaos, {"faults": (2, "faults per run")}),
}


def run_target(
    target: str, seed: int = 0, on_sources: OnSources = None, **sizes
) -> RunOutcome:
    """Build, instrument and run ``target``; sizes it is not given
    take their :data:`TARGETS` defaults."""
    spec = TARGETS[target]
    knobs = {name: default for name, (default, _) in spec.sizes.items()}
    knobs.update(sizes)
    profiler = EventLoopProfiler()
    try:
        outcome = spec.run(seed, profiler, on_sources, **knobs)
    finally:
        profiler.detach()
    outcome.registry = collect_metrics(
        registry=outcome.registry, profiler=profiler
    )
    return outcome


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


def _fetch_json(url: str, timeout: float = 10.0) -> Any:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


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
            payload = _fetch_json(f"{base_url}{path}")
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
