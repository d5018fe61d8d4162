"""Address primitives for multicast allocation.

This package provides the CIDR machinery that MASC (section 4 of the
paper) operates on: IPv4 address parsing/formatting, the :class:`Prefix`
value type and block sizing, binary prefix tries for free-space search
(the candidate set of the claim rule, which :mod:`repro.masc.spaces`
applies), and lifetime (lease) bookkeeping.
"""

from repro.addressing.ipv4 import (
    ADDRESS_BITS,
    MAX_ADDRESS,
    format_address,
    parse_address,
)
from repro.addressing.prefix import (
    MULTICAST_SPACE,
    Prefix,
    aggregate_prefixes,
    coalesce,
)
from repro.addressing.trie import PrefixTrie
from repro.addressing.leases import Lease, LeaseTable

__all__ = [
    "ADDRESS_BITS",
    "MAX_ADDRESS",
    "format_address",
    "parse_address",
    "MULTICAST_SPACE",
    "Prefix",
    "aggregate_prefixes",
    "coalesce",
    "PrefixTrie",
    "Lease",
    "LeaseTable",
]
