"""The Border Gateway Multicast Protocol (BGMP).

BGMP (section 5 of the paper) runs on domain border routers and builds
*bidirectional shared trees* for inter-domain multicast groups, rooted
at each group's root domain — the domain whose MASC-claimed address
range covers the group address, located via the G-RIB. Data flows both
ways along the tree; source-specific *branches* (not full trees) can be
grafted where the shortest path to a heavy source diverges from the
shared tree, primarily to stop data encapsulation inside DVMRP-like
domains.

Intra-domain multicast (the MIGP) is abstracted behind
:mod:`repro.migp`; BGMP composes with any of its implementations.
"""
