"""Read-only snapshot builders behind every serve-mode payload.

:class:`ServeSources` names the live components one telemetry session
reads — simulator, tracer, sanitizer, protocol layers — and the
builder functions here turn them into plain, JSON-ready dicts carrying
their versioned ``"schema"`` field (docs/ARCHITECTURE.md §13).

Every builder is a pure read: it allocates fresh containers, sorts
every iteration that could otherwise leak identity-hash order, and
never touches a mutating property (queue depth comes from
``Simulator.queue_depth``, the non-compacting read). That discipline
is what makes serve mode fingerprint-neutral — the builders run at
event boundaries on the simulation thread, and the world cannot tell
it was photographed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.trace.metrics import collect_metrics
from repro.trace.profiler import EventLoopProfiler
from repro.trace.tracer import NULL_TRACER


@dataclass
class ServeSources:
    """The components one telemetry session reads.

    Unset layers contribute nothing — a fig2 session has no ``bgmp``,
    a bare simulator benchmark has nothing but ``sim``. ``target`` and
    ``seed`` label the run for ``/healthz``.
    """

    sim: Any
    target: str = "custom"
    seed: int = 0
    tracer: Any = NULL_TRACER
    profiler: Any = None
    sanitizer: Any = None
    injector: Any = None
    bgmp: Any = None
    bgp: Any = None
    overlay: Any = None
    masc_nodes: Sequence = ()
    masc_managers: Sequence = ()

    @classmethod
    def from_world(
        cls, world, target: str, seed: int, tracer=NULL_TRACER,
        profiler=None,
    ) -> "ServeSources":
        """Sources for a :class:`~repro.faults.world.World` — a
        chaos run's, a soak world restored for ``serve attach``, or a
        scenario's."""
        bgmp = world.bgmp
        return cls(
            sim=world.sim,
            target=target,
            seed=seed,
            tracer=tracer,
            profiler=profiler,
            sanitizer=world.sanitizer,
            injector=world.injector,
            bgmp=bgmp,
            bgp=bgmp.bgp if bgmp is not None else None,
            overlay=world.overlay,
            masc_nodes=world.masc_nodes,
        )

    def registry_snapshot(self):
        """Every configured layer's counters and gauges right now, in a
        fresh :class:`~repro.trace.metrics.Metrics`."""
        return collect_metrics(
            masc_nodes=self.masc_nodes,
            masc_managers=self.masc_managers,
            bgp=self.bgp,
            bgmp=self.bgmp,
            overlay=self.overlay,
            injector=self.injector,
        )


def live_groups(bgmp) -> List[int]:
    """Groups with forwarding state anywhere in the network, sorted."""
    if bgmp is None:
        return []
    found = set()
    for router in bgmp.bgmp_routers():
        for entry in router.table.entries():
            found.add(entry.group)
    return sorted(found)


def metrics_snapshot(sources: ServeSources, seq: int) -> Dict[str, Any]:
    """Cumulative ``repro.metrics/v1`` payload."""
    metrics = sources.registry_snapshot()
    return {
        "schema": "repro.metrics/v1",
        "seq": seq,
        "time": sources.sim.now,
        "events": sources.sim.processed,
        "counters": metrics.counters,
        "gauges": metrics.gauges,
    }


def spans_snapshot(
    sources: ServeSources, limit: Optional[int] = None
) -> Dict[str, Any]:
    """``repro.spans/v1``: the span record, newest last; with
    ``limit`` (at least 1), only the most recent ``limit`` spans."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    tracer = sources.tracer
    spans = list(tracer.spans)
    open_count = sum(1 for span in spans if span.open)
    records = spans[-limit:] if limit else spans
    return {
        "schema": "repro.spans/v1",
        "time": sources.sim.now,
        "open": open_count,
        "finished": len(spans) - open_count,
        "spans": [span.to_dict() for span in records],
    }


def tree_snapshot(sources: ServeSources, group: int) -> Dict[str, Any]:
    """``repro.tree/v1``: one group's BGMP tree — per-router entries
    (parent target, outgoing list, upstream router) plus the
    child-to-upstream edge list, in canonical router order."""
    bgmp = sources.bgmp
    entries: List[Dict[str, Any]] = []
    edges: List[List[str]] = []
    root = bgmp.root_domain_of(group) if bgmp is not None else None
    for router in bgmp.tree_routers(group) if bgmp is not None else ():
        mine = [e for e in bgmp.router_of(router).table.entries()
                if e.group == group]
        mine.sort(key=lambda e: e.source_domain.name
                  if e.source_domain else "")
        for entry in mine:
            upstream = entry.upstream
            entries.append({
                "router": router.name,
                "domain": router.domain.name,
                "source": (entry.source_domain.name
                           if entry.source_domain else "*"),
                "parent": (repr(entry.parent)
                           if entry.parent is not None else None),
                "oil": sorted(repr(c) for c in entry.children),
                "upstream": None if upstream is None else upstream.name,
            })
            if upstream is not None:
                edges.append([router.name, upstream.name])
    return {
        "schema": "repro.tree/v1",
        "group": f"{group:#x}",
        "time": sources.sim.now,
        "root_domain": root.name if root is not None else None,
        "entries": entries,
        "edges": edges,
    }


def claims_snapshot(sources: ServeSources) -> Dict[str, Any]:
    """``repro.claims/v1``: per-MASC-node confirmed claim tables."""
    nodes = [
        {"name": node.name,
         "prefixes": [str(p) for p in node.claimed.prefixes()]}
        for node in sorted(sources.masc_nodes, key=lambda n: n.name)
    ]
    return {
        "schema": "repro.claims/v1",
        "time": sources.sim.now,
        "nodes": nodes,
    }


def violations_snapshot(
    sources: ServeSources, seen: Sequence[str]
) -> Dict[str, Any]:
    """``repro.violations/v1``: everything the sanitizer has reported.

    ``seen`` is the sink's accumulated feed — it includes violations
    delivered through the listener hook, which in raising mode never
    reach the sanitizer's own ``violations`` list.
    """
    sanitizer = sources.sanitizer
    dumps = list(sanitizer.dumps) if sanitizer is not None else []
    return {
        "schema": "repro.violations/v1",
        "time": sources.sim.now,
        "count": len(seen),
        "violations": list(seen),
        "dumps": dumps,
    }


def profile_snapshot(sources: ServeSources) -> Dict[str, Any]:
    """``repro.profile/v1``: the profiler's wall-time summary (all
    zeros when no profiler is attached)."""
    profiler = sources.profiler
    if profiler is None:
        profiler = EventLoopProfiler()
    return {"schema": "repro.profile/v1", **profiler.summary()}


def health_snapshot(
    sources: ServeSources,
    state: str,
    frames: int,
    sample_every: int,
    violation_count: int,
) -> Dict[str, Any]:
    """``repro.health/v1``: liveness, run identity, and what there is
    to look at (the live group list)."""
    return {
        "schema": "repro.health/v1",
        "state": state,
        "target": sources.target,
        "seed": sources.seed,
        "time": sources.sim.now,
        "events": sources.sim.processed,
        "queue_depth": sources.sim.queue_depth,
        "frames": frames,
        "sample_every": sample_every,
        "groups": [f"{g:#x}" for g in live_groups(sources.bgmp)],
        "violations": violation_count,
    }
