"""Whole-state pin of the Figure 2 claim simulation.

Figure 2 is otherwise checked by shape (utilization in a band, G-RIB
well under the domain count), so a claim landing on a different prefix
would go unnoticed outside the benchmark's fingerprint. The digests
below cover everything the run leaves behind and are functions of the
seed alone; they were computed on the commit before the allocation
trie became incremental and must not move with bookkeeping changes.
"""

import hashlib

import pytest

from repro.masc.simulation import ClaimSimulation, SimulationConfig

COUNTERS = (
    "claims_made",
    "claims_failed",
    "doublings",
    "consolidations",
    "renewals",
    "renewals_declined",
    "shedding",
)

GOLDEN = {
    0: "653c58974ce14d27f9621f57b533cbb9984456b0211849d8978d4afe0b81279c",
    1: "2805f29e1e722123b0d2c79a13d0221075a681fcdb3892cbe75ec8dfc09a057a",
    2: "33a409119954429d7b885197d133614d757298c73dd6b3b98d0ccbb0967d2d6d",
}


def end_state_digest(seed: int) -> str:
    simulation = ClaimSimulation(
        SimulationConfig(
            top_count=6, children_per_top=12, duration_days=90.0, seed=seed
        )
    )
    result = simulation.run()
    lines = []
    for series in (
        result.utilization,
        result.grib_mean,
        result.grib_max,
        result.global_prefixes,
        result.live_blocks,
    ):
        lines.append(f"{series.name} {list(series)!r}")
    managers = simulation.tops + [
        child
        for children in simulation.children.values()
        for child in children
    ]
    for manager in managers:
        lines.append(f"{manager.name} {manager.prefixes()}")
        for space in manager.pool:
            lines.append(
                f"  {space.prefix} {space.active} {space.allocations()}"
            )
        counters = [getattr(manager, name) for name in COUNTERS]
        counters.append(len(manager.claim_leases))
        lines.append(f"  {counters}")
    lines.append(f"root {simulation.root.allocated()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_end_state_is_pinned(seed):
    assert end_state_digest(seed) == GOLDEN[seed]
