"""A churned BGMP world survives a checkpoint: the per-router MIGP and
speaker handles, each domain's name-ordered router list and the cached
domain tuple all restore pointing at the restored objects, in this
process and under another string-hash seed.
Continuing the churn from the restored world must give the forwarding
digest, ``rib_digest`` and delivery counts of the uninterrupted run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.checkpoint import core as ckpt
from repro.experiments.churn import (
    ChurnConfig,
    build_network,
    build_schedule,
    build_topology,
    group_prefix,
)

ROOT = Path(__file__).resolve().parents[2]

#: Multi-router domains run DVMRP, so interior RPF checks go through
#: the network's resolver and its per-domain router lists.
CONFIG = ChurnConfig(
    domains=40,
    group_domains=5,
    groups_per_domain=4,
    churn_per_phase=25,
    phases=2,
    maintain_every=5,
)


def _halves():
    """The schedule split just after the first phase's root flap."""
    schedule = build_schedule(CONFIG, seed=3)
    split = [event[0] for event in schedule].index("flap") + 1
    return schedule[:split], schedule[split:]


def churned_world():
    """The converged world after the first half of the schedule (the
    initial joins, the first phase and its root flap)."""
    topology = build_topology(CONFIG, seed=3)
    network = build_network(CONFIG, topology)
    network.converge()
    play(network, _halves()[0])
    return network


def play(network, events):
    """Apply churn events; every send's delivery count, in order."""
    domains = network.topology.domains
    deliveries = []
    for kind, *args in events:
        if kind == "join":
            domain_index, group, host = args
            network.join(domains[domain_index].host(host), group)
        elif kind == "leave":
            domain_index, group, host = args
            network.leave(domains[domain_index].host(host), group)
        elif kind == "send":
            domain_index, group = args
            report = network.send(domains[domain_index].host("src"), group)
            deliveries.append(report.total_deliveries)
        elif kind == "repair":
            network.repair_trees()
        else:
            (domain_index,) = args
            domain = domains[domain_index]
            prefix = group_prefix(domain.domain_id)
            network.bgp.withdraw(domain.router(), prefix)
            network.converge()
            network.repair_trees()
            network.originate_group_range(domain, prefix)
            network.converge()
            network.repair_trees()
    return deliveries


def finish(network):
    """Play the second half; the run's fingerprint as JSON."""
    deliveries = play(network, _halves()[1])
    return json.dumps({
        "forwarding": network.forwarding_digest(),
        "rib": network.bgp.rib_digest(),
        "deliveries": deliveries,
    })


#: Writes the churned world's checkpoint to the path in argv[1].
_SAVE = """
import sys
from repro.checkpoint import core as ckpt
from tests.checkpoint.test_churn_resume import churned_world
ckpt.save(ckpt.capture(churned_world()), sys.argv[1])
"""

#: Restores it and prints the finished run's fingerprint.
_RESUME = """
import sys
from repro.checkpoint import core as ckpt
from tests.checkpoint.test_churn_resume import finish
print(finish(ckpt.restore(ckpt.load(sys.argv[1]))))
"""


def _python(code, seed, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout


def test_restored_handles_point_into_the_restored_world():
    network = ckpt.roundtrip(churned_world())
    domains = network.topology.domains
    for bgmp in network.bgmp_routers():
        assert bgmp.speaker is network.bgp.speakers[bgmp.router]
        assert bgmp.migp is network.migp_of(bgmp.router.domain)
        assert bgmp.domain is bgmp.router.domain
        assert bgmp.domain in domains
    for domain in domains:
        by_name = sorted(domain.routers.values(), key=lambda r: r.name)
        assert network._routers_by_name[domain] == tuple(
            map(network.router_of, by_name)
        )


def test_churn_continues_identically_after_an_in_process_restore():
    network = churned_world()
    restored = ckpt.roundtrip(network)
    assert finish(restored) == finish(network)


def test_churn_continues_identically_under_another_hash_seed(tmp_path):
    path = tmp_path / "churn.ckpt"
    _python(_SAVE, 1, str(path))
    resumed = _python(_RESUME, 2, str(path)).strip()
    assert resumed == finish(churned_world())
