"""The seven workloads, their schedule generators and shadow model.

Every workload is a closed loop with one driver: the next operation
is issued when the previous one returns. A workload function receives
the benchmark seed, its size constants and a :class:`Meter`; it builds
its world (``setup``), marks the world ready, issues its operations
through :meth:`Meter.timed` (``run``), checks the outcome against the
benchmark's own model (``verify``) and returns the pieces of its
fingerprint.

The seed drives only this file's generators: membership, schedule
order and probe targets. The program receives the generated calls and
nothing else. The topology is a function of ``TOPOLOGY_SEED`` alone.
Engines are whatever the constructors default to — no ``incremental=``
argument, no ``set_shared``/``get_shared`` — so a refactor of the
engine flags cannot break the benchmark.

``repro`` modules are imported inside the workload that needs them, on
purpose: a round is a fresh process, and the import cost of exactly
the layers a workload uses is part of that workload's ``setup_s``.
Program functions that the traced pass wraps are always reached
through their module (``generators.as_graph``), never bound by name
here, so the wrapper is what gets called.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import json
import os
import random
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TOPOLOGY_SEED = 1998

#: "World W300": the shared substrate of the three steady-state BGMP
#: workloads, so that their numbers differ by what they do to it.
W300 = dict(domains=300, group_domains=24, groups_per_domain=24, members=2)

#: Size constants per round. Chosen so one round (import + setup + run
#: + verify) takes 2-3.5 s on the 2-core reference box, which gives a
#: run of 25 s seven rounds or more; see README.
SIZES: Dict[str, dict] = {
    "cold_start": dict(
        domains=400, group_domains=40, groups_per_domain=24, members=2
    ),
    "root_flap": dict(W300, cycles=4),
    "router_fault": dict(W300, cycles=4),
    "member_churn": dict(W300, events=3000, sweep_every=25),
    "masc_claims": dict(tops=12, children=25, days=45),
    "scenario_suite": dict(passes=5),
    "fig4_sweep": dict(
        nodes=500, sweeps=6, seeds_per_sweep=4,
        group_sizes=(1, 2, 5, 10, 20, 50, 100, 200),
    ),
}

#: The reported tail percentile: one of 50/75/90/95/99 that leaves at
#: least ten of a run's samples (five rounds or more) beyond it. It is
#: the highest such, except that ``masc_claims`` stays at p90: the
#: percentile is taken per round, and p95 of 45 days rests on two.
TAIL: Dict[str, int] = {
    "cold_start": 99,
    "root_flap": 50,
    "router_fault": 75,
    "member_churn": 99,
    "masc_claims": 90,
    "scenario_suite": 95,
    "fig4_sweep": 50,
}

MAX_NOTES = 5

#: What :meth:`Meter.timed` returns for an operation that raised.
FAILED = object()


class Meter:
    """One round's measurements: operation samples, correctness
    checks, phase marks and the exact counters of its fingerprint."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: Seconds spent in this file's generators and shadow model.
        self.generator_s = 0.0
        #: phase name -> time.monotonic() when it began. monotonic is
        #: system-wide on Linux, so the orchestrator can subtract its
        #: own spawn time from the child's marks.
        self.marks: Dict[str, float] = {}
        #: Exact, seed-determined values observed at call sites; part
        #: of the fingerprint.
        self.counts: Dict[str, float] = collections.Counter()
        #: Values only the traced pass produces; not fingerprinted.
        self.traced: Dict[str, float] = collections.Counter()
        #: Set when the round ends: the hash of the generated schedule,
        #: and the hash of everything that must repeat for one seed
        #: (schedule, state digests, exact counters).
        self.schedule = ""
        self.fingerprint = ""

    def begin(self, phase: str) -> None:
        self.marks[phase] = time.monotonic()
        if self.recorder is not None and phase in self.recorder.aggregates:
            self.recorder.phase = phase
            self.recorder.op = -1

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        """One correctness check; counts toward ``attempted``."""
        self.attempted += 1
        if not ok:
            self.fail(note)

    def timed(self, fn: Callable, *args):
        """One operation. Its host time is a latency sample; an
        exception inside it is a failed operation, not a crash."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = len(self.latencies)
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.latencies.append(time.perf_counter() - started)
            self.fail(traceback.format_exc(limit=4))
            return FAILED
        self.latencies.append(time.perf_counter() - started)
        return result

    def traced_calls(self, name: str) -> int:
        """Calls the recorder has seen for an entry point so far (0
        when this round is untraced or the entry point is gone)."""
        if self.recorder is None:
            return 0
        return self.recorder.calls(name) or 0


# ----------------------------------------------------------------------
# Generators and the shadow membership model


def schedule_hash(schedule) -> str:
    payload = json.dumps(schedule, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def group_addresses(size: dict) -> List[int]:
    """Group addresses: ``groups_per_domain`` under the /20 of each of
    the group domains (topology indexes 1..group_domains)."""
    return [
        (224 << 24) | (index << 12) | offset
        for index in range(1, 1 + size["group_domains"])
        for offset in range(size["groups_per_domain"])
    ]


class Membership:
    """The benchmark's model of who is in which group. Every expected
    delivery count comes from here, never from the program."""

    def __init__(self, rng: random.Random, size: dict) -> None:
        self.rng = rng
        self.domains = size["domains"]
        self.groups = group_addresses(size)
        self.count = {group: 0 for group in self.groups}
        self.active: List[Tuple[int, int, str]] = []
        self.hosts = 0

    def join(self, group: int) -> tuple:
        domain = self.rng.randrange(self.domains)
        self.hosts += 1
        host = f"h{self.hosts}"
        self.active.append((group, domain, host))
        self.count[group] += 1
        return ("join", domain, group, host)

    def leave(self) -> tuple:
        group, domain, host = self.active.pop(
            self.rng.randrange(len(self.active))
        )
        self.count[group] -= 1
        return ("leave", domain, group, host)

    def send(self, group: int, avoid: int = -1) -> tuple:
        """A packet from a random non-member host (outside domain
        ``avoid``); carries the count it must deliver."""
        domain = self.rng.randrange(self.domains)
        while domain == avoid:
            domain = self.rng.randrange(self.domains)
        return ("send", domain, group, self.count[group])

    def random_group(self) -> int:
        return self.groups[self.rng.randrange(len(self.groups))]

    def initial_joins(self, members: int) -> List[tuple]:
        return [
            self.join(group)
            for group in self.groups
            for _ in range(members)
        ]

    def probe_every_group(self) -> List[tuple]:
        return [self.send(group) for group in self.groups]


# ----------------------------------------------------------------------
# The BGMP world and the calls the schedules turn into


def _static_migp(domain) -> str:
    return "static"


def _group_prefix(index: int):
    from repro.addressing.prefix import Prefix

    return Prefix((224 << 24) | (index << 12), 20)


def build_world(size: dict, meter: Meter):
    """Topology, BGP and BGMP networks, the covering 224/4 at domain 0
    and one /20 per group domain, converged."""
    from repro.addressing.prefix import Prefix
    from repro.bgmp.network import BgmpNetwork
    from repro.bgp.network import BgpNetwork
    from repro.topology import generators

    topology = generators.as_graph(
        random.Random(TOPOLOGY_SEED), node_count=size["domains"]
    )
    meter.counts["topology.domains"] = len(topology.domains)
    meter.counts["topology.links"] = len(topology.links)
    network = BgmpNetwork(
        topology,
        bgp=BgpNetwork(topology),
        migp_selector=_static_migp,
        auto_unicast=False,
    )
    network.originate_group_range(
        topology.domains[0], Prefix(224 << 24, 4)
    )
    for index in range(1, 1 + size["group_domains"]):
        network.originate_group_range(
            topology.domains[index], _group_prefix(index)
        )
    network.converge()
    return topology, network


def apply_event(network, topology, event: tuple):
    kind, domain, group = event[:3]
    if kind == "send":
        return network.send(topology.domains[domain].host("src"), group)
    host = topology.domains[domain].host(event[3])
    if kind == "join":
        return network.join(host, group)
    return network.leave(host, group)


def check_outcome(
    meter: Meter, outcome, event: tuple, exact: bool = True
) -> None:
    """A join must graft. A send must reach exactly the shadow model's
    member count, once each; ``exact=False`` is for a probe during a
    router fault, when members behind the dead router are legitimately
    dark: no member twice, nobody extra."""
    if outcome is FAILED:
        return  # the operation raised and is already counted
    if event[0] == "join" and not outcome:
        meter.fail(f"join {event} found no route to graft onto")
    if event[0] != "send":
        return
    expected = event[3]
    delivered = outcome.total_deliveries
    meter.check(
        outcome.duplicates == 0
        and (delivered == expected if exact else delivered <= expected),
        f"send to {event[2]:#x} from domain {event[1]} delivered "
        f"{delivered} (+{outcome.duplicates} dup), model says {expected}",
    )


def repair(network, meter: Meter) -> None:
    """One ``repair_trees`` pass, with its changes and (traced) the
    G-RIB lookups it issued tallied."""
    before = meter.traced_calls("bgp.lookup")
    changes = network.repair_trees()
    meter.counts["bgmp.repair_changes"] += sum(changes.values())
    meter.traced["bgmp.repair_lookups"] += (
        meter.traced_calls("bgp.lookup") - before
    )


def reconverge(network, meter: Meter, mutate: Callable, *args) -> None:
    """The unit operation of the flap and fault workloads: one routing
    change, BGP to a fixed point, one tree repair."""
    mutate(*args)
    meter.counts["bgp.converge_rounds"] += network.converge()
    repair(network, meter)


def populate(network, topology, initial: List[tuple]) -> None:
    """W300 setup after convergence: the initial members and one
    draining repair, so the run starts from a repaired steady state."""
    for event in initial:
        apply_event(network, topology, event)
    network.repair_trees()


def verify_world(network, topology, probes: List[tuple], meter: Meter):
    """End-of-round checks of every BGMP workload, and the state part
    of its fingerprint."""
    from repro.trace.metrics import collect_metrics

    digest = network.forwarding_digest()
    meter.check(
        digest == network.forwarding_digest_uncached(),
        "cached forwarding digest differs from the uncached one",
    )
    for event in probes:
        check_outcome(meter, apply_event(network, topology, event), event)
    registry = collect_metrics(bgp=network.bgp, bgmp=network)
    for key in (
        "bgp.updates_sent",
        "bgmp.joins_sent",
        "bgmp.prunes_sent",
        "bgmp.grib_deltas_seen",
        "bgmp.groups_invalidated",
    ):
        meter.counts[key] = registry.counter(key).count
    meter.counts["bgmp.forwarding_entries"] = (
        network.forwarding_state_size()
    )
    routers = network.bgmp_routers()
    meter.counts["bgp.grib_routes_mean"] = sum(
        network.bgp.grib_size(bgmp.router) for bgmp in routers
    ) / len(routers)
    return {"forwarding": digest, "rib": network.bgp.rib_digest()}


# ----------------------------------------------------------------------
# Workloads
#
# Each generates its whole schedule — initial members, operations with
# the counts they must deliver, final probes — before the first
# operation, so no generator or model work sits inside a latency
# sample, and ``generator_s`` is that one block.


def cold_start(seed: int, size: dict, meter: Meter) -> dict:
    topology, network = build_world(size, meter)
    started = time.perf_counter()
    model = Membership(random.Random(seed), size)
    schedule = model.initial_joins(size["members"])
    probes = model.probe_every_group()
    meter.generator_s = time.perf_counter() - started

    meter.begin("run")
    for event in schedule:
        check_outcome(
            meter, meter.timed(apply_event, network, topology, event), event
        )
    repair(network, meter)

    meter.begin("verify")
    state = verify_world(network, topology, probes, meter)
    return {"schedule": schedule_hash(schedule), **state}


def root_flap(seed: int, size: dict, meter: Meter) -> dict:
    topology, network = build_world(size, meter)
    started = time.perf_counter()
    rng = random.Random(seed)
    model = Membership(rng, size)
    initial = model.initial_joins(size["members"])
    # The flapped /20s are always those of the first ``cycles`` group
    # domains; the seed shuffles their order. One flap costs 0.03-0.5 s
    # depending on where its domain sits in the graph, so drawing the
    # domains themselves from the seed would make the seed, not the
    # program, the largest term in ops_per_s.
    flapped = list(range(1, 1 + size["cycles"]))
    rng.shuffle(flapped)
    schedule = [
        (index, model.send(model.random_group()),
         model.send(model.random_group()))
        for index in flapped
    ]
    probes = model.probe_every_group()
    meter.generator_s = time.perf_counter() - started
    populate(network, topology, initial)

    meter.begin("run")
    for cycle in schedule:
        meter.timed(flap_cycle, network, topology, meter, *cycle)

    meter.begin("verify")
    state = verify_world(network, topology, probes, meter)
    return {"schedule": schedule_hash(schedule), **state}


def flap_cycle(
    network, topology, meter: Meter, index: int, down: tuple, up: tuple
) -> None:
    """One operation of ``root_flap``: a group /20 is withdrawn and
    comes back, with a probe after each half. The halves are not
    separate operations because they cost differently (withdrawal hunts
    paths, ~0.27 s; re-origination ~0.16 s): the median of the two
    mixed would sit on the gap between the clusters and jump from one
    to the other on a 1 % change. The probes (~0.2 ms) ride inside."""
    domain = topology.domains[index]
    prefix = _group_prefix(index)
    reconverge(network, meter, network.bgp.withdraw, domain.router(), prefix)
    check_outcome(meter, apply_event(network, topology, down), down)
    reconverge(network, meter, network.originate_group_range, domain, prefix)
    check_outcome(meter, apply_event(network, topology, up), up)


def router_fault(seed: int, size: dict, meter: Meter) -> dict:
    topology, network = build_world(size, meter)
    started = time.perf_counter()
    rng = random.Random(seed)
    model = Membership(rng, size)
    initial = model.initial_joins(size["members"])
    transit = [
        index
        for index in range(1 + size["group_domains"], size["domains"])
        if topology.domains[index].customers
    ]
    # Like root_flap's /20s, the crashed routers are a fixed draw and the
    # seed shuffles their order: one crash costs 0.15-0.2 s depending on
    # the router, so with four a round drawn from the seed, the seed
    # moved ops_per_s by 25 % and the program's noise by 5 %.
    crashed = random.Random(TOPOLOGY_SEED).sample(transit, size["cycles"])
    rng.shuffle(crashed)
    schedule = []
    for index in crashed:
        down = model.send(model.random_group(), avoid=index)
        schedule.append(("fail", index, down))
        schedule.append(("restore", index, model.send(model.random_group())))
    probes = model.probe_every_group()
    meter.generator_s = time.perf_counter() - started
    populate(network, topology, initial)

    meter.begin("run")
    for kind, index, probe in schedule:
        mutate = (
            network.bgp.fail_router
            if kind == "fail"
            else network.bgp.restore_router
        )
        meter.timed(
            reconverge, network, meter,
            mutate, topology.domains[index].router(),
        )
        check_outcome(
            meter,
            apply_event(network, topology, probe),
            probe,
            exact=kind == "restore",
        )

    meter.begin("verify")
    state = verify_world(network, topology, probes, meter)
    return {"schedule": schedule_hash(schedule), **state}


def member_churn(seed: int, size: dict, meter: Meter) -> dict:
    topology, network = build_world(size, meter)
    started = time.perf_counter()
    rng = random.Random(seed)
    model = Membership(rng, size)
    initial = model.initial_joins(size["members"])
    schedule = []
    for _ in range(size["events"]):
        roll = rng.random()
        if roll < 0.45 or not model.active:
            schedule.append(model.join(model.random_group()))
        elif roll < 0.75:
            schedule.append(model.leave())
        else:
            schedule.append(model.send(model.random_group()))
    probes = model.probe_every_group()
    meter.generator_s = time.perf_counter() - started
    populate(network, topology, initial)

    meter.begin("run")
    sweep_every = size["sweep_every"]
    for step, event in enumerate(schedule, start=1):
        check_outcome(
            meter, meter.timed(apply_event, network, topology, event), event
        )
        if step % sweep_every == 0:
            # Maintenance sweeps are part of the run (they bound
            # ops_per_s) but are not operations: no latency sample.
            repair(network, meter)

    meter.begin("verify")
    state = verify_world(network, topology, probes, meter)
    if meter.recorder is not None:
        meter.begin("extra")
        _checkpoint_roundtrip(network, state["forwarding"], meter)
    return {"schedule": schedule_hash(schedule), **state}


def _checkpoint_roundtrip(network, digest: str, meter: Meter) -> None:
    """Traced pass only: one capture/restore of the final world."""
    from repro import checkpoint

    snapshot = checkpoint.capture(network)
    restored = checkpoint.restore(snapshot)
    meter.traced["checkpoint.bytes"] = len(snapshot.payload)
    meter.check(
        restored.forwarding_digest() == digest,
        "restored world's forwarding digest differs",
    )


def masc_claims(seed: int, size: dict, meter: Meter) -> dict:
    from repro.masc.simulation import ClaimSimulation, SimulationConfig
    from repro.trace.metrics import collect_metrics

    # The demand model lives in the program; the seed is its input.
    simulation = ClaimSimulation(
        SimulationConfig(
            top_count=size["tops"],
            children_per_top=size["children"],
            duration_days=size["days"],
            seed=seed,
        )
    )
    sim = simulation.sim
    day = due = 24.0
    last = 0.0

    def day_marker(event) -> None:
        # One operation = one simulated day, as the host sees it.
        nonlocal due, last
        if sim.now >= due:
            now = time.perf_counter()
            meter.latencies.append(now - last)
            last = now
            due += day

    sim.add_observer(day_marker)

    meter.begin("run")
    last = time.perf_counter()
    result = simulation.run()

    meter.begin("verify")
    days = len(meter.latencies)
    meter.attempted += days
    meter.check(
        days == size["days"], f"{days} days marked, not {size['days']}"
    )
    # Every MAAS block request must be served.
    meter.attempted += result.requests_served + result.requests_failed
    if result.requests_failed:
        meter.fail("block requests failed", result.requests_failed)
    managers = simulation.tops + [
        child
        for children in simulation.children.values()
        for child in children
    ]
    registry = collect_metrics(masc_managers=managers)
    for key in ("masc.claims_made", "masc.doublings", "masc.consolidations"):
        meter.counts[key] = registry.counter(key).count
    steady = result.steady_state(from_day=min(30, size["days"] // 2))
    meter.counts.update(
        {
            "masc.requests_served": result.requests_served,
            "masc.requests_failed": result.requests_failed,
            "masc.utilization_steady": steady["utilization_mean"],
            "masc.grib_mean_steady": steady["grib_mean"],
            "sim.events": sim.processed,
        }
    )
    return {"schedule": schedule_hash([seed, sorted(size.items())])}


def scenario_suite(seed: int, size: dict, meter: Meter) -> dict:
    from repro import scenarios

    specs = [
        scenarios.load_scenario(path)
        for path in scenarios.discover_scenarios(ROOT / "scenarios")
    ]
    # Warm-up pass: caches fill before timing, and its fingerprints
    # are what every timed run of the same scenario must reproduce.
    reference = {
        spec.name: scenarios.run_scenario(spec).fingerprint
        for spec in specs
    }
    started = time.perf_counter()
    rng = random.Random(seed)
    schedule = []
    for _ in range(size["passes"]):
        order = list(range(len(specs)))
        rng.shuffle(order)
        schedule.extend(order)
    meter.generator_s = time.perf_counter() - started

    meter.begin("run")
    for index in schedule:
        spec = specs[index]
        outcome = meter.timed(scenarios.run_scenario, spec)
        if outcome is FAILED:
            continue
        meter.counts["scenarios.events"] += outcome.events
        meter.counts["scenarios.violations"] += len(outcome.violations)
        meter.counts["scenarios.failures"] += len(outcome.failures)
        meter.check(
            outcome.ok and outcome.fingerprint == reference[spec.name],
            f"scenario {spec.name}: {outcome!r}",
        )

    meter.begin("verify")
    meter.counts["sim.events"] = meter.counts["scenarios.events"]
    return {
        "schedule": schedule_hash(schedule),
        "scenarios": schedule_hash(sorted(reference.items())),
    }


def fig4_worker(item: tuple) -> list:
    """One Figure 4 sweep for one seed. Top level so it pickles into
    pool workers; builds the (fixed) graph itself so nothing needs to
    be shared with them."""
    from repro.experiments.fig4 import Figure4Config, run_figure4
    from repro.topology import generators

    nodes, group_sizes, seed = item
    topology = generators.as_graph(
        random.Random(TOPOLOGY_SEED), node_count=nodes
    )
    result = run_figure4(
        Figure4Config(
            node_count=nodes,
            group_sizes=group_sizes,
            trials_per_size=1,
            seed=seed,
        ),
        topology=topology,
    )
    return [
        (
            point.group_size,
            sorted(point.average_ratio.items()),
            sorted(point.max_ratio.items()),
        )
        for point in result.points
    ]


def fig4_sweep(seed: int, size: dict, meter: Meter) -> dict:
    from repro.experiments import runner

    # Never more processes than cores.
    processes = min(2, os.cpu_count() or 1)
    meter.counts["runner.processes"] = processes
    started = time.perf_counter()
    rng = random.Random(seed)
    per_sweep = size["seeds_per_sweep"]
    sweeps = [
        [
            (
                size["nodes"],
                tuple(size["group_sizes"]),
                (seed * size["sweeps"] + sweep) * per_sweep + offset,
            )
            for offset in range(per_sweep)
        ]
        for sweep in range(size["sweeps"])
    ]
    rechecked = [rng.randrange(per_sweep) for _ in sweeps]
    meter.generator_s = time.perf_counter() - started

    meter.begin("run")
    # The first sweep starts the pool and stays in the samples: the
    # caller pays for it.
    results = [
        meter.timed(runner.parallel_map, fig4_worker, items, processes)
        for items in sweeps
    ]

    meter.begin("verify")
    for items, pooled, index in zip(sweeps, results, rechecked):
        meter.check(
            pooled is not FAILED
            and len(pooled) == len(items)
            and pooled[index] == fig4_worker(items[index]),
            f"pooled result for {items[index]} differs from serial",
        )
    tables = schedule_hash(
        [None if pooled is FAILED else pooled for pooled in results]
    )
    if meter.recorder is not None:
        meter.begin("extra")
        # The serial arm: same seeds, one process, timed the same way
        # (as the caller sees it).
        serial = [
            runner.parallel_map(fig4_worker, items, 1) for items in sweeps
        ]
        meter.check(
            schedule_hash(serial) == tables,
            "serial arm differs from the pooled arm",
        )
    return {"schedule": schedule_hash(sweeps), "tables": tables}


WORKLOADS: Dict[str, Callable[[int, dict, Meter], dict]] = {
    "cold_start": cold_start,
    "root_flap": root_flap,
    "router_fault": router_fault,
    "member_churn": member_churn,
    "masc_claims": masc_claims,
    "scenario_suite": scenario_suite,
    "fig4_sweep": fig4_sweep,
}


#: The program modules each workload touches. ``run_round`` imports
#: them first, as a phase of its own, so ``harness.import_s`` is a
#: measurement; the ``from ... import`` lines inside the functions
#: above then find them loaded.
_BGMP_WORLD = (
    "repro.topology.generators",
    "repro.addressing.prefix",
    "repro.bgp.network",
    "repro.bgmp.network",
    "repro.trace.metrics",
)
IMPORTS: Dict[str, Tuple[str, ...]] = {
    "cold_start": _BGMP_WORLD,
    "root_flap": _BGMP_WORLD,
    "router_fault": _BGMP_WORLD,
    "member_churn": _BGMP_WORLD,
    "masc_claims": ("repro.masc.simulation", "repro.trace.metrics"),
    "scenario_suite": ("repro.scenarios",),
    "fig4_sweep": (
        "repro.experiments.fig4",
        "repro.experiments.runner",
        "repro.topology.generators",
    ),
}


def run_round(
    name: str,
    seed: int,
    size: Optional[dict] = None,
    recorder=None,
) -> Meter:
    """One round of one workload in this process.

    With a ``recorder`` the round is traced: the recorder's wrappers
    are installed after the workload's imports and removed at the end.
    """
    meter = Meter(recorder)
    meter.begin("import")
    for module in IMPORTS[name]:
        importlib.import_module(module)
    if recorder is not None:
        meter.begin("instrument")
        recorder.install()
    meter.begin("setup")
    try:
        state = WORKLOADS[name](
            seed, SIZES[name] if size is None else size, meter
        )
    except Exception:
        # A failure outside any operation (setup, a probe, verify):
        # the round still reports, and reports itself incorrect.
        meter.attempted += 1
        meter.fail(traceback.format_exc(limit=6))
        state = {}
    finally:
        if recorder is not None:
            recorder.uninstall()
    meter.begin("done")
    meter.schedule = state.get("schedule", "")
    meter.fingerprint = schedule_hash(
        [sorted(state.items()), sorted(meter.counts.items())]
    )
    return meter
