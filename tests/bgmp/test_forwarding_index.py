"""The (\\*,G) index of a forwarding table, and the repair candidates
read from it.

A :class:`ForwardingTable` keeps its (\\*,G) groups in one sorted list
beside the entries, and a G-RIB delta's repair candidates are the
entries of that list in the delta's range whose ``anchor`` the delta
displaces. The first test drives one table through random creations,
removals and re-anchorings against a plain model; the second checks,
on every delta batch of a 40-domain churn run with root flaps and
router faults, that the pairs marked stale are exactly those of the
per-anchor rule: a changed or withdrawn key re-asks the entries
anchored under it, an added key those whose group it contains and
whose anchor is a shorter key containing it, or none.
"""

import random

from repro.addressing.prefix import Prefix
from repro.bgmp.entries import ForwardingTable
from repro.bgmp.network import BgmpNetwork
from repro.experiments.churn import (
    COVERING_RANGE,
    ChurnConfig,
    build_network,
    build_schedule,
    build_topology,
    group_prefix,
)
from repro.topology.domain import Domain

BASE = 0xE0001000
ANCHORS = [None, Prefix(224 << 24, 4), Prefix(BASE, 20), Prefix(BASE, 24)]

CONFIG = ChurnConfig(
    domains=40,
    group_domains=5,
    groups_per_domain=8,
    churn_per_phase=50,
    phases=4,
    maintain_every=5,
    internet=True,
)


def test_random_create_remove_reanchor_against_a_model():
    sources = [Domain(index, name=f"S{index}") for index in range(3)]
    for seed in range(3):
        rng = random.Random(seed)
        table = ForwardingTable()
        model = {}  # (group, source) -> entry, in creation order
        for _step in range(500):
            group = BASE + rng.randrange(40)
            source = rng.choice([None, None] + sources)
            roll = rng.random()
            if roll < 0.5:
                anchor = rng.choice(ANCHORS)
                entry = table.create(group, None, source, anchor=anchor)
                if (group, source) in model:
                    assert entry is model[group, source]
                else:
                    model[group, source] = entry
                    assert entry.anchor is (
                        anchor if source is None else None
                    )
            elif roll < 0.85:
                assert table.remove(group, source) == (
                    model.pop((group, source), None) is not None
                )
            elif (group, None) in model:
                # What update_parent does when the key moved.
                model[group, None].anchor = rng.choice(ANCHORS)
            shared = sorted(g for g, s in model if s is None)
            assert table.shared == shared
            assert table.entries() == list(model.values())
            assert len(table) == len(model)
            first = BASE + rng.randrange(40)
            last = first + rng.randrange(12)
            assert table.shared_in(first, last) == [
                model[g, None] for g in shared if first <= g <= last
            ]
            for (g, s), entry in model.items():
                assert table.get(g, s) is entry
                assert (g, s) in table
            assert (group in table) == ((group, None) in model)


def _per_anchor_rule(network, deltas):
    """The (router seq, group) pairs the per-anchor rule marks: every
    (\\*,G) entry of the delta's router, walked whole."""
    marked = set()
    for delta in deltas:
        bgmp = network.router_of(delta.router)
        seq = network._router_seq[bgmp]
        prefix = delta.prefix
        for entry in bgmp.table.entries():
            if entry.source_domain is not None:
                continue
            anchor = entry.anchor
            assert anchor is None or anchor.contains_address(entry.group)
            if delta.kind == "added":
                hit = prefix.contains_address(entry.group) and (
                    anchor is None
                    or anchor.length < prefix.length
                    and anchor.contains(prefix)
                )
            else:
                hit = anchor == prefix
            if hit:
                marked.add((seq, entry.group))
    return marked


def test_stale_pairs_match_the_per_anchor_rule(monkeypatch):
    topology = build_topology(CONFIG, seed=0)
    network = build_network(CONFIG, topology)
    marked = {"added": 0, "changed": 0, "withdrawn": 0}
    grib_deltas = BgmpNetwork.grib_deltas

    def checked(self, deltas):
        # Compare what this batch marks, not what earlier ones left.
        expected = _per_anchor_rule(self, deltas)
        before, self._stale = self._stale, set()
        grib_deltas(self, deltas)
        assert self._stale == expected
        self._stale |= before
        for kind in marked:
            marked[kind] += len(_per_anchor_rule(
                self, [delta for delta in deltas if delta.kind == kind]
            ))

    monkeypatch.setattr(BgmpNetwork, "grib_deltas", checked)
    network.converge()
    for kind, *args in build_schedule(CONFIG, seed=0):
        if kind in ("join", "leave"):
            domain_index, group, host = args
            member = topology.domains[domain_index].host(host)
            (network.join if kind == "join" else network.leave)(
                member, group
            )
        elif kind == "send":
            domain_index, group = args
            network.send(topology.domains[domain_index].host("src"), group)
        elif kind == "repair":
            network.repair_trees()
        else:
            (domain_index,) = args
            if kind == "flap":
                domain = topology.domains[domain_index]
                prefix = group_prefix(domain.domain_id)
                withdraw = (network.bgp.withdraw, domain.router(), prefix)
                restore = (network.originate_group_range, domain, prefix)
            else:
                router = topology.domains[domain_index].router()
                withdraw = (network.bgp.fail_router, router)
                restore = (network.bgp.restore_router, router)
            # No repair between the halves: the restore's deltas meet
            # the anchors the withdrawal left.
            for mutate, *mutated in (withdraw, restore):
                mutate(*mutated)
                network.converge()
            network.repair_trees()
    # The covering range goes, comes back and goes again under entries
    # anchored under it, under the /20s and (their /20 gone) nowhere.
    root, flapped = topology.domains[0], topology.domains[1]
    prefix = group_prefix(flapped.domain_id)
    for repair, mutate, *mutated in (
        (True, network.bgp.withdraw, flapped.router(), prefix),
        (True, network.bgp.withdraw, root.router(), COVERING_RANGE),
        (False, network.originate_group_range, root, COVERING_RANGE),
        (False, network.bgp.withdraw, root.router(), COVERING_RANGE),
        (False, network.originate_group_range, root, COVERING_RANGE),
        (True, network.originate_group_range, flapped, prefix),
    ):
        mutate(*mutated)
        network.converge()
        if repair:
            network.repair_trees()
    assert min(marked.values()) > 0, marked
