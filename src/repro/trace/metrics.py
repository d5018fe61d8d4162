"""Unified metrics collection.

Every protocol layer keeps its own plain-int counters — ``MascNode``
collision and renewal counts, ``DomainSpaceManager`` claim and
doubling counts, ``BgpNetwork.updates_sent``, ``BgmpRouter`` join and
prune counts, the fault injector's application and recovery tallies.
:func:`collect_metrics` reads all of them by name into one
:class:`Metrics` store: two flat maps, ``counters`` and ``gauges``,
keyed by :func:`metric_key`. ``to_json()`` exports a run's whole
control-plane activity as one deterministic document; components are
not modified and need not know the store exists.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, NamedTuple, Optional


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """``name`` alone when unlabelled, else ``name{k=v,...}`` with the
    label keys sorted, so the same labels give the same key whatever
    their call order."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class Reading(NamedTuple):
    """One counter's value, as :meth:`Metrics.counter` reads it."""

    count: int


class Metrics:
    """A run's counters and gauges, each a flat ``{key: value}`` map.

    A counter only grows (:meth:`add`); a gauge is the last value
    :meth:`set` wrote, kept with the type it was given.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}

    def add(self, name: str, count: int, **labels: Any) -> None:
        """Add ``count`` (at least 0) to a counter, created at 0."""
        if count < 0:
            raise ValueError(f"counter increments must be >= 0: {count}")
        key = metric_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + count

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Overwrite a gauge."""
        self.gauges[metric_key(name, labels)] = value

    def counter(self, name: str, **labels: Any) -> Reading:
        """A counter's value (0 for one never added to)."""
        return Reading(self.counters.get(metric_key(name, labels), 0))

    def to_json(self, indent: Optional[int] = None) -> str:
        """Both maps as canonical (key-sorted) JSON. The document also
        carries empty ``histograms`` and ``series`` tables: the
        metrics wire format has them, and no collector fills them."""
        return json.dumps(
            {
                "counters": self.counters,
                "gauges": self.gauges,
                "histograms": {},
                "series": {},
            },
            sort_keys=True,
            indent=indent,
        )


#: MascNode counter attributes (claim-collide protocol activity).
MASC_NODE_COUNTERS = (
    "claims_confirmed",
    "claims_failed",
    "collisions_sent",
    "collisions_received",
    "oversize_collisions",
    "renewals_acked",
    "renewal_retries",
    "renewals_failed",
    "failovers",
    "crashes",
    "heard_claims_gced",
)

#: DomainSpaceManager counter attributes (claim-algorithm activity).
MASC_MANAGER_COUNTERS = (
    "claims_made",
    "claims_failed",
    "doublings",
    "consolidations",
    "renewals",
    "renewals_declined",
    "shedding",
)

#: BgmpRouter counter attributes (tree control traffic).
BGMP_ROUTER_COUNTERS = (
    "joins_sent",
    "prunes_sent",
)


def collect_metrics(
    registry: Optional[Metrics] = None,
    masc_nodes: Iterable = (),
    masc_managers: Iterable = (),
    bgp=None,
    bgmp=None,
    overlay=None,
    injector=None,
    profiler=None,
) -> Metrics:
    """Add every layer's counters into ``registry`` (a new store when
    none is given) and return it.

    Pass whichever components the run used; absent layers contribute
    nothing. Per-entity counts get an entity label
    (``masc.claims_confirmed{node=M1}``) plus an unlabelled
    network-wide total; iteration is name-sorted so the store's
    contents are independent of container order.
    """
    if registry is None:
        registry = Metrics()

    for node in sorted(masc_nodes, key=lambda n: n.name):
        for attr in MASC_NODE_COUNTERS:
            count = getattr(node, attr)
            registry.add(f"masc.{attr}", count, node=node.name)
            registry.add(f"masc.{attr}", count)
        registry.set("masc.claimed_prefixes", len(node.claimed),
                     node=node.name)

    for manager in sorted(masc_managers, key=lambda m: m.name):
        for attr in MASC_MANAGER_COUNTERS:
            count = getattr(manager, attr)
            registry.add(f"masc.{attr}", count, domain=manager.name)
            registry.add(f"masc.{attr}", count)

    if bgp is not None:
        registry.add("bgp.updates_sent", bgp.updates_sent)

    if bgmp is not None:
        for bgmp_router in bgmp.bgmp_routers():
            name = bgmp_router.router.name
            for attr in BGMP_ROUTER_COUNTERS:
                count = getattr(bgmp_router, attr)
                registry.add(f"bgmp.{attr}", count, router=name)
                registry.add(f"bgmp.{attr}", count)
        registry.set("bgmp.forwarding_entries", bgmp.forwarding_state_size())
        registry.add("bgmp.grib_deltas_seen", bgmp.grib_deltas_seen)
        registry.add("bgmp.groups_invalidated", bgmp.groups_invalidated)
        registry.set("bgmp.dirty_groups", bgmp.dirty_group_count())

    if overlay is not None:
        registry.add("masc.messages_dropped", overlay.messages_dropped)

    if injector is not None:
        registry.add("faults.applied", injector.faults_applied)
        registry.add("faults.recovery_passes", len(injector.recoveries))
        registry.add(
            "faults.recoveries_converged",
            sum(1 for r in injector.recoveries if r.converged),
        )

    if profiler is not None:
        registry.add("sim.events", profiler.events)
        registry.set("sim.max_queue_depth", profiler.max_queue_depth)

    return registry


# ----------------------------------------------------------------------
# Incremental deltas (the serve-mode streaming form)


def metrics_delta(
    previous: Dict[str, int], current: Dict[str, int]
) -> Dict[str, int]:
    """Changed counters only: ``{key: current - previous}`` for every
    key whose value moved (new keys delta from zero), key-sorted.

    Counters are monotonic, so a negative delta means the two maps
    came from different worlds — callers should treat the ``current``
    map as a fresh baseline instead (the serve sink does this when it
    re-attaches across a soak segment restore).
    """
    delta: Dict[str, int] = {}
    for key in sorted(current):
        moved = current[key] - previous.get(key, 0)
        if moved:
            delta[key] = moved
    return delta
