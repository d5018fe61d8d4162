"""The assembled MASC/BGMP architecture.

:class:`~repro.core.system.MulticastInternet` wires every substrate
together the way the paper's Figure 1/3 deployment would run: the MASC
hierarchy derived from provider relationships allocates address ranges
to domains; claimed ranges are injected into BGP as group routes
(forming the G-RIB); MAASes hand individual group addresses to session
initiators; and BGMP builds the bidirectional shared tree for each
group, rooted at the domain whose range covers the group's address.
"""
