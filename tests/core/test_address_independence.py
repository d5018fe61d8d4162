"""Object addresses are no input: the same world built at other
addresses ends in the same state.

Domains, routers, hosts and BGMP targets hash by identity, so a set of
them iterates in address order, which differs from one process to the
next. Two processes under different ``PYTHONHASHSEED`` values build the
same world; one first allocates objects of assorted sizes and frees
every third, so the world's objects land at other addresses relative to
each other (a test below checks they do). The world: an ``as_graph`` of
40 domains, group ranges at five domains, members and senders drawn
from a fixed seed, and one withdrawal and re-origination of a range
with a tree repair after each. Its RIBs, forwarding state, UPDATE and
join/prune counts, deliveries and one scenario's fingerprint must be
equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_WORLD = """
import json, random, sys

ballast = [[None] * (index % 13) for index in range(int(sys.argv[1]))]
del ballast[::3]

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.scenarios.engine import run_scenario_path
from repro.topology.generators import as_graph

def group_prefix(index):
    return Prefix((224 << 24) | (index << 12), 20)

topology = as_graph(random.Random(7), node_count=40)
network = BgmpNetwork(topology)
network.originate_group_range(topology.domains[0], Prefix(224 << 24, 4))
for index in range(1, 5):
    network.originate_group_range(topology.domains[index], group_prefix(index))
network.converge()
rng = random.Random(3)
groups = [group_prefix(index).network + 1 for index in range(1, 5)]
for member in range(30):
    domain = topology.domains[rng.randrange(40)]
    network.join(domain.host(f"m{member}"), groups[member % 4])
network.repair_trees()
domain, prefix = topology.domains[1], group_prefix(1)
network.bgp.withdraw(domain.router(), prefix)
network.converge()
network.repair_trees()
network.originate_group_range(domain, prefix)
network.converge()
network.repair_trees()
deliveries = [
    network.send(topology.domains[rng.randrange(40)].host("s"), group)
    .total_deliveries
    for group in groups
]
routers = network.bgmp_routers()
print(json.dumps({
    "rib": network.bgp.rib_digest(),
    "forwarding": network.forwarding_digest(),
    "updates": network.bgp.updates_sent,
    "joins": sum(bgmp.joins_sent for bgmp in routers),
    "prunes": sum(bgmp.prunes_sent for bgmp in routers),
    "deliveries": deliveries,
    "scenario": run_scenario_path(sys.argv[2]).fingerprint,
    "set_order": [d.domain_id for d in set(topology.domains)],
}))
"""

SCENARIO = ROOT / "scenarios" / "crash_both_layers.toml"


def _run(hash_seed, ballast):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", _WORLD, str(ballast), str(SCENARIO)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(result.stdout)


def test_state_does_not_depend_on_object_addresses():
    first = _run(hash_seed=1, ballast=0)
    second = _run(hash_seed=2, ballast=200_000)
    # The check has teeth only if the two builds' sets of domains
    # iterate in different orders.
    assert first.pop("set_order") != second.pop("set_order")
    assert first["joins"] > 0 and first["prunes"] > 0
    assert first == second
