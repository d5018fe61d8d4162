"""What a BGMP membership event costs in Python calls, and that none of
it goes to identity.

Domains, border routers, hosts and BGMP targets compare and hash by
identity, in C: a dict or set operation keyed by one of them makes no
Python call. A Python-level ``__hash__`` or ``__eq__`` defined in
``repro/topology/domain.py`` or ``repro/bgmp/targets.py`` would be paid
on every table operation of the membership path and the BGP engine, so
none may run in any phase profiled here.

The world is the benchmark's W300: the ``as_graph`` of 300 domains
(topology seed 1998), the covering 224/4 at domain 0, a /20 at each of
domains 1-24 with 24 groups under each, two members per group, one
repair. The churn is the first 300 events of the benchmark's
``member_churn`` schedule for seed 0 (a copy of its generator is
below), with a repair sweep every 25 events.

Calls are those of functions defined in the ``repro`` package,
comprehensions left out (CPython 3.12 inlines them). Measured on
CPython 3.11: 195.8 per event with identity comparison in C, the
Loc-RIB probing its own table for a longest match and the MIGP keeping
its attached routers in name order (214.8 while each Loc-RIB kept an
``LpmTrie`` beside its table and every injection sorted its routers
with a key function; 292.2 when ``Domain``, ``BorderRouter`` and
``Host`` hashed and compared by value in Python and every join, prune
and emit built fresh targets). The bound is two-sided, so a change to
the membership path re-measures it.
"""

import cProfile
import random
from pathlib import Path

import pytest

import repro
from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.network import BgpNetwork
from repro.topology.generators import as_graph

CALLS_PER_EVENT = 195.8
TOLERANCE = 0.03

DOMAINS = 300
GROUP_DOMAINS = 24
GROUPS_PER_DOMAIN = 24
MEMBERS = 2
EVENTS = 300
SWEEP_EVERY = 25

PACKAGE = Path(repro.__file__).parent
#: Files whose Python-level ``__hash__``/``__eq__`` must never run.
IDENTITY_FILES = tuple(
    str(PACKAGE / name) for name in ("topology/domain.py", "bgmp/targets.py")
)
INLINED = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _group_prefix(index):
    return Prefix((224 << 24) | (index << 12), 20)


class Membership:
    """The benchmark's membership schedule generator (``Membership``
    and the ``member_churn`` loop of ``bench/workloads.py``)."""

    def __init__(self, rng):
        self.rng = rng
        self.groups = [
            (224 << 24) | (index << 12) | offset
            for index in range(1, 1 + GROUP_DOMAINS)
            for offset in range(GROUPS_PER_DOMAIN)
        ]
        self.active = []
        self.hosts = 0

    def join(self, group):
        domain = self.rng.randrange(DOMAINS)
        self.hosts += 1
        host = f"h{self.hosts}"
        self.active.append((group, domain, host))
        return ("join", domain, group, host)

    def leave(self):
        group, domain, host = self.active.pop(
            self.rng.randrange(len(self.active))
        )
        return ("leave", domain, group, host)

    def send(self, group):
        return ("send", self.rng.randrange(DOMAINS), group)

    def random_group(self):
        return self.groups[self.rng.randrange(len(self.groups))]

    def churn(self, events):
        schedule = []
        for _ in range(events):
            roll = self.rng.random()
            if roll < 0.45 or not self.active:
                schedule.append(self.join(self.random_group()))
            elif roll < 0.75:
                schedule.append(self.leave())
            else:
                schedule.append(self.send(self.random_group()))
        return schedule


def _apply(network, topology, event):
    kind, domain, group = event[:3]
    if kind == "send":
        return network.send(topology.domains[domain].host("src"), group)
    host = topology.domains[domain].host(event[3])
    if kind == "join":
        return network.join(host, group)
    return network.leave(host, group)


def _profiled(action):
    profile = cProfile.Profile()
    profile.enable()
    try:
        action()
    finally:
        profile.disable()
    return profile.getstats()


def _flap_cycle(network, topology):
    domain, prefix = topology.domains[1], _group_prefix(1)
    network.bgp.withdraw(domain.router(), prefix)
    network.converge()
    network.repair_trees()
    network.originate_group_range(domain, prefix)
    network.converge()
    network.repair_trees()


def _fault_cycle(network, topology):
    transit = next(
        domain
        for domain in topology.domains[1 + GROUP_DOMAINS:]
        if domain.customers
    )
    network.bgp.fail_router(transit.router())
    network.converge()
    network.repair_trees()
    network.bgp.restore_router(transit.router())
    network.converge()
    network.repair_trees()


@pytest.fixture(scope="module")
def phases():
    """cProfile stats of the W300 initial converge, the churn, one
    ``root_flap`` cycle and one ``router_fault`` cycle, in that order
    on one world."""
    topology = as_graph(random.Random(1998), node_count=DOMAINS)
    network = BgmpNetwork(
        topology,
        bgp=BgpNetwork(topology),
        migp_selector=lambda domain: "static",
        auto_unicast=False,
    )
    network.originate_group_range(topology.domains[0], Prefix(224 << 24, 4))
    for index in range(1, 1 + GROUP_DOMAINS):
        network.originate_group_range(
            topology.domains[index], _group_prefix(index)
        )
    found = {"converge": _profiled(network.converge)}
    model = Membership(random.Random(0))
    for group in model.groups:
        for _ in range(MEMBERS):
            _apply(network, topology, model.join(group))
    network.repair_trees()
    schedule = model.churn(EVENTS)

    def churn():
        for step, event in enumerate(schedule, start=1):
            _apply(network, topology, event)
            if step % SWEEP_EVERY == 0:
                network.repair_trees()

    found["churn"] = _profiled(churn)
    found["flap"] = _profiled(lambda: _flap_cycle(network, topology))
    found["fault"] = _profiled(lambda: _fault_cycle(network, topology))
    return found


@pytest.mark.parametrize("phase", ["converge", "churn", "flap", "fault"])
def test_no_identity_is_computed_in_python(phases, phase):
    called = sorted(
        f"{entry.code.co_filename}:{entry.code.co_name}"
        for entry in phases[phase]
        if not isinstance(entry.code, str)
        and entry.code.co_name in ("__hash__", "__eq__")
        and entry.code.co_filename in IDENTITY_FILES
    )
    assert called == []


def test_a_churn_event_costs_the_calls_measured(phases):
    named = sum(
        entry.callcount
        for entry in phases["churn"]
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(str(PACKAGE))
        and entry.code.co_name not in INLINED
    )
    per_event = named / EVENTS
    assert abs(per_event / CALLS_PER_EVENT - 1) <= TOLERANCE, per_event
