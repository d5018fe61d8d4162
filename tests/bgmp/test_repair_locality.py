"""Tree repair is local to where the G-RIB moved.

In the paper a G-RIB change matters to a BGMP router only where its
*own* next hop toward the root domain changed (section 5.2): joins and
prunes follow that next hop. So after a transit router crashes, the
repair pass may re-ask ``update_parent`` only at routers the
reconvergence reported a ``GribDelta`` for (or whose join broke on the
way) — not at every on-tree router of every group a delta covers.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgmp.router import BgmpRouter
from repro.topology.network import Topology
from tests.bgmp.test_lookup_budget import GROUP_DOMAINS
from tests.bgmp.test_lookup_budget import _world as _as_graph_world
from tests.conftest import recompute_everything


class _DeltaLog:
    """A second G-RIB subscriber: which routers the converge named."""

    def __init__(self):
        self.routers = set()

    def grib_deltas(self, deltas):
        self.routers.update(delta.router for delta in deltas)

    def grib_reset(self):
        raise AssertionError("the delta stream lost continuity")


def test_repair_re_asks_only_where_the_grib_moved(monkeypatch):
    topology, network, groups = _as_graph_world()
    on_tree = {
        router.domain
        for group in groups
        for router in network.tree_routers(group)
    }
    victim = next(
        domain
        for domain in topology.domains[1 + GROUP_DOMAINS :]
        if domain.customers and domain in on_tree
    ).router()

    asked = []
    update_parent = BgmpRouter.update_parent

    def logged_update(self, group):
        asked.append((self.router, group))
        return update_parent(self, group)

    broken = set()
    note_broken = BgmpNetwork.note_broken_entry

    def logged_note(self, bgmp, group):
        broken.add((bgmp.router, group))
        return note_broken(self, bgmp, group)

    monkeypatch.setattr(BgmpRouter, "update_parent", logged_update)
    monkeypatch.setattr(BgmpNetwork, "note_broken_entry", logged_note)
    log = _DeltaLog()
    network.bgp.subscribe_grib(log)

    network.handle_router_crash(victim)
    network.converge()
    entries = sum(len(network.tree_routers(group)) for group in groups)
    counters = network.repair_trees()

    assert counters["migrations"] > 0
    assert log.routers, "the crash moved no G-RIB"
    strangers = [
        (router.name, hex(group))
        for router, group in asked
        if router not in log.routers and (router, group) not in broken
    ]
    assert not strangers
    assert counters["migrations"] <= len(asked) < entries


# ----------------------------------------------------------------------
# What must still be looked at: small hand-built worlds in which one
# candidate source is the only thing that names the work, each compared
# step by step with the walk-everything oracle.

GROUP = (224 << 24) | 1


def _world(shape, links, customers):
    """A root domain R (R1, R2) originating 224/4 over ``shape`` =
    {domain: router names}, ``links`` = router-name pairs, ``customers``
    = (provider, customer) domain-name pairs; converged."""
    topology = Topology()
    for name, routers in shape.items():
        domain = topology.add_domain(name=name)
        for router in routers:
            domain.router(router)
    by_name = {router.name: router for router in topology.routers()}
    for a, b in links:
        topology.connect(by_name[a], by_name[b])
    for provider, customer in customers:
        topology.domain(provider).add_customer(topology.domain(customer))
    network = BgmpNetwork(topology)
    network.originate_group_range(
        topology.domain("R"), Prefix(224 << 24, 4)
    )
    return network, by_name


def _settle(network):
    network.converge()
    return (
        tuple(sorted(network.repair_trees().items())),
        network.forwarding_digest(),
    )


def _member_arrives_before_repair():
    """T's exit moves T1 -> T2 while T has no member; one joins (onto
    T2's existing entry, so nothing is created) before the repair.
    Only the re-parenting of T1 and T3 says T must be looked at: T1 is
    left with an interior-only branch nobody needs."""
    network, routers = _world(
        {"R": ("R1", "R2"), "T": ("T1", "T2", "T3"),
         "X": ("X1",), "Y": ("Y1",)},
        [("T1", "R1"), ("T2", "R2"), ("X1", "T3"), ("Y1", "T2")],
        [("R", "T"), ("T", "X"), ("T", "Y")],
    )
    network.converge()
    topology = network.topology
    for name in ("X", "Y"):
        assert network.join(topology.domain(name).host("m"), GROUP)
    steps = [_settle(network)]
    network.bgp.set_session_state(routers["T1"], routers["R1"], up=False)
    network.converge()
    assert network.join(topology.domain("T").host("m"), GROUP)
    steps.append(_settle(network))
    assert network.router_of(routers["T1"]).table.get(GROUP) is None
    return steps


def _prune_uncovers_a_prune():
    """T's exit has already moved off T1, which stays for its child D2;
    then D's exit moves off D2. Pruning D2 (D sorts before T) takes
    T1's last external child, and the same pass must go on to prune
    T1 — it was flagged ahead of the cursor."""
    network, routers = _world(
        {"R": ("R1", "R2"), "D": ("D1", "D2"), "T": ("T1", "T2"),
         "P": ("P1",)},
        [("T1", "R1"), ("T2", "R2"), ("P1", "R2"), ("D1", "P1"),
         ("D2", "T1")],
        [("R", "T"), ("R", "P"), ("T", "D"), ("P", "D")],
    )
    network.bgp.set_session_state(routers["D1"], routers["P1"], up=False)
    network.converge()
    topology = network.topology
    for name in ("D", "T"):
        assert network.join(topology.domain(name).host("m"), GROUP)
    steps = [_settle(network)]
    network.bgp.set_session_state(routers["T1"], routers["R1"], up=False)
    steps.append(_settle(network))
    network.bgp.set_session_state(routers["D1"], routers["P1"], up=True)
    steps.append(_settle(network))
    assert dict(steps[-1][0])["pruned"] == 2
    return steps


@pytest.mark.parametrize(
    "run", [_member_arrives_before_repair, _prune_uncovers_a_prune]
)
def test_repair_matches_the_oracle(run):
    with recompute_everything():
        expected = run()
    assert run() == expected


def test_repair_over_an_unconverged_substrate_fails_loudly():
    """A migration that runs into a dead session the G-RIB still points
    across leaves its new upstream entry broken; every round re-asks
    it, finds it broken still, and the fixpoint gives up."""
    network, routers = _world(
        {"R": ("R1",), "S": ("S1",), "M": ("M1",)},
        [("S1", "R1"), ("M1", "R1")],
        [("R", "S"), ("R", "M")],
    )
    network.converge()
    topology = network.topology
    assert network.join(topology.domain("M").host("m"), GROUP)
    network.originate_group_range(topology.domain("S"), Prefix(GROUP, 32))
    network.converge()
    network.bgp.set_session_state(routers["S1"], routers["R1"], up=False)
    with pytest.raises(RuntimeError, match="did not stabilise"):
        network.repair_trees()
