"""Tests for the MAAS server."""

import random

from repro.addressing.prefix import Prefix
from repro.masc.config import MascConfig
from repro.masc.maas import MaasServer
from repro.masc.manager import DomainSpaceManager, RootClaimSource


def make_maas(**config_kwargs):
    config_kwargs.setdefault("claim_policy", "first")
    config_kwargs.setdefault("proactive_expansion", False)
    config = MascConfig(**config_kwargs)
    manager = DomainSpaceManager(
        "X", source=RootClaimSource(), config=config,
        rng=random.Random(0),
    )
    return MaasServer(manager, config=config, rng=random.Random(1))


class TestBlockDemand:
    def test_request_block(self):
        maas = make_maas()
        lease = maas.request_block(now=0.0)
        assert lease is not None
        assert lease.prefix.size == 256
        assert lease.expires_at == 720.0  # 30 days in hours
        assert maas.requests_served == 1
        assert maas.live_addresses(0.0) == 256

    def test_custom_size_and_lifetime(self):
        maas = make_maas()
        lease = maas.request_block(now=10.0, size=512, lifetime=100.0)
        assert lease.prefix.size == 512
        assert lease.expires_at == 110.0

    def test_expire_releases_to_manager(self):
        maas = make_maas()
        maas.request_block(now=0.0)
        expired = maas.expire_blocks(now=720.0)
        assert len(expired) == 1
        assert maas.live_addresses(720.0) == 0
        assert maas.manager.pool.live_addresses() == 0

    def test_expiry_is_exactly_at_lifetime(self):
        maas = make_maas()
        maas.request_block(now=0.0)
        assert maas.expire_blocks(now=719.9) == []
        assert len(maas.expire_blocks(now=720.0)) == 1

    def test_next_expiry(self):
        maas = make_maas()
        assert maas.next_expiry() is None
        maas.request_block(now=0.0)
        maas.request_block(now=5.0)
        assert maas.next_expiry() == 720.0

    def test_failed_request_counted(self):
        config = MascConfig(claim_policy="first",
                            proactive_expansion=False)
        manager = DomainSpaceManager(
            "X",
            source=RootClaimSource(Prefix.parse("224.0.0.0/25")),
            config=config, rng=random.Random(0),
        )
        maas = MaasServer(manager, config=config, rng=random.Random(1))
        assert maas.request_block(now=0.0) is None
        assert maas.requests_failed == 1

    def test_inter_request_bounds(self):
        maas = make_maas()
        for _ in range(200):
            delay = maas.next_request_delay()
            assert 1.0 <= delay <= 95.0


class TestAddressAssignment:
    def test_assign_requests_block_on_demand(self):
        maas = make_maas()
        address = maas.assign_group_address(now=0.0)
        assert address is not None
        assert maas.requests_served == 1
        assert address in maas.assigned_addresses()

    def test_assignments_unique(self):
        maas = make_maas()
        addresses = {maas.assign_group_address(0.0) for _ in range(300)}
        assert len(addresses) == 300

    def test_assignment_exhausts_then_grows(self):
        maas = make_maas()
        for _ in range(257):
            assert maas.assign_group_address(0.0) is not None
        # 257 assignments need two 256-address blocks.
        assert maas.requests_served == 2

    def test_release_allows_reuse(self):
        maas = make_maas()
        first = maas.assign_group_address(0.0)
        maas.release_group_address(first)
        assert maas.assign_group_address(0.0) == first

    def test_expired_block_drops_assignments(self):
        maas = make_maas()
        address = maas.assign_group_address(0.0)
        maas.expire_blocks(720.0)
        assert address not in maas.assigned_addresses()

    def test_two_blocks_expiring_together_drop_exactly_theirs(self):
        maas = make_maas()
        blocks = [
            maas.request_block(0.0, size=4, lifetime=lifetime).prefix
            for lifetime in (10.0, 20.0, 10.0)
        ]
        addresses = [maas.assign_group_address(0.0) for _ in range(12)]
        assert maas.requests_served == 3
        expired = maas.expire_blocks(10.0)
        assert sorted(lease.prefix for lease in expired) == sorted(
            [blocks[0], blocks[2]]
        )
        kept = {a for a in addresses if blocks[1].contains_address(a)}
        assert len(kept) == 4
        assert maas.assigned_addresses() == kept

    def test_assignment_from_domain_range(self):
        maas = make_maas()
        address = maas.assign_group_address(0.0)
        assert any(
            p.contains_address(address)
            for p in maas.manager.prefixes()
        )
