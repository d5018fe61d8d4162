"""PIM Sparse Mode and Dense Mode as MIGPs.

PIM-SM builds a unidirectional shared tree per group around a
Rendezvous Point inside the domain: members join towards the RP, and a
sender's first packets are register-encapsulated to the RP. PIM-DM is
flood-and-prune like DVMRP, including the RPF data-path behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.migp.base import InjectionResult, MigpComponent
from repro.migp.dvmrp import Dvmrp
from repro.topology.domain import BorderRouter, Domain


class PimSparse(MigpComponent):
    """PIM-SM (RFC 2117 model): explicit joins to a per-group RP."""

    name = "pim-sm"

    def __init__(self, domain, unicast_resolver=None):
        super().__init__(domain, unicast_resolver)
        self._rps: Dict[int, BorderRouter] = {}
        self._registered = set()

    def rendezvous_point(self, group: int) -> Optional[BorderRouter]:
        """The RP for a group, assigned by hashing the group address
        over the domain's routers (the intra-domain custom the paper
        contrasts with BGMP's root-domain selection, section 5.1)."""
        rp = self._rps.get(group)
        if rp is None:
            routers = sorted(
                self.domain.routers.values(), key=lambda r: r.name
            )
            if not routers:
                return None
            rp = self._rps[group] = routers[group % len(routers)]
        return rp

    def _on_membership_change(self, group: int, joined: bool) -> None:
        # An explicit join/prune travels towards the RP: no flooding.
        self.control_messages += 1

    def inject(
        self,
        group: int,
        via: Optional[BorderRouter],
        source_domain: Optional[Domain],
    ) -> InjectionResult:
        result = super().inject(group, via, source_domain)
        if via is None and (source_domain, group) not in self._registered:
            # A local sender's first packets are register-encapsulated
            # to the RP by its designated router.
            self._registered.add((source_domain, group))
            self.encapsulations += 1
            self.control_messages += 1
        return result


class PimDense(Dvmrp):
    """PIM-DM: DVMRP-style flood-and-prune, but protocol-independent
    of the unicast routing protocol (same domain-level behaviour)."""

    name = "pim-dm"

    def _on_membership_change(self, group: int, joined: bool) -> None:
        # Dense mode has no Domain Wide Reports; membership is learned
        # by data arriving (grafts un-prune on join).
        self.control_messages += 1
        if joined:
            self.floods += 1
