"""BGP substrate.

The paper uses BGP as the glue between MASC and BGMP: MASC speakers
inject their claimed multicast address ranges into BGP as *group
routes*; BGP propagates them (subject to export policy and CIDR
aggregation); every border router's G-RIB then maps a group address to
the next hop towards that group's root domain, which is what BGMP
follows when building trees.

This package implements route/path-attribute types, per-router RIBs
(Adj-RIB-In, Loc-RIB) with the standard decision process, Gao-Rexford
style export policies, iBGP full-mesh redistribution, and aggregation
of covered customer routes.
"""
