"""BGP UPDATE messages.

Each UPDATE carries the announcements and withdrawals one speaker sends
a peer at one instant — the per-key difference between its exports and
the session's advertised table. The synchronous rounds deliver it at
once, the event-driven schedule after the link delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bgp.routes import Key, Route


@dataclass
class UpdateMessage:
    """One BGP UPDATE: routes announced and the (network, length,
    type) keys withdrawn."""

    announcements: List[Route] = field(default_factory=list)
    withdrawals: List[Key] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when there is nothing to send."""
        return not self.announcements and not self.withdrawals

    def __repr__(self) -> str:
        return (
            f"UpdateMessage(+{len(self.announcements)}, "
            f"-{len(self.withdrawals)})"
        )
