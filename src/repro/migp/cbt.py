"""CBT as an MIGP.

Core Based Trees (RFC 2189 model): one bidirectional tree per group
rooted at a core router inside the domain. Members join towards the
core; data flows both ways along the tree, so there is no register
encapsulation and no RPF entry problem.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.migp.base import MigpComponent
from repro.topology.domain import BorderRouter


class Cbt(MigpComponent):
    """Core Based Trees."""

    name = "cbt"

    def __init__(self, domain, unicast_resolver=None):
        super().__init__(domain, unicast_resolver)
        self._cores: Dict[int, BorderRouter] = {}

    def core(self, group: int) -> Optional[BorderRouter]:
        """The core router for a group (hashed over the domain's
        routers, as in intra-domain core selection)."""
        found = self._cores.get(group)
        if found is None:
            routers = sorted(
                self.domain.routers.values(), key=lambda r: r.name
            )
            if not routers:
                return None
            found = self._cores[group] = routers[group % len(routers)]
        return found

    def _on_membership_change(self, group: int, joined: bool) -> None:
        # One join-ack exchange towards the core.
        self.control_messages += 2
