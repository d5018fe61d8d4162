"""The Multicast Address-Set Claim (MASC) protocol.

MASC dynamically allocates multicast address ranges to domains
(section 4 of the paper). Domains form a hierarchy following provider-
customer relationships; children claim sub-ranges of their parent's
ranges using a listen/claim-with-collision-detection mechanism, wait
out a collision-detection period, and then hand confirmed ranges to
their MAASes and inject them into BGP as group routes.

Layers in this package:

- :mod:`repro.masc.config` — tunables (occupancy threshold, waiting
  period, claim policy, block parameters).
- :mod:`repro.masc.spaces` — a domain's claimed address spaces, the
  allocations (MAAS blocks, child claims) living inside them, and
  ``select_claim``, the claim rule's one selection step.
- :mod:`repro.masc.manager` — the claim algorithm of section 4.3.3:
  sizing, doubling vs. new-prefix expansion, active/inactive prefixes,
  release of drained space.
- :mod:`repro.masc.maas` — Multicast Address Allocation Servers:
  block demand and individual group-address assignment.
- :mod:`repro.masc.node` / :mod:`repro.masc.messages` — the
  message-level claim-collide protocol state machine.
- :mod:`repro.masc.simulation` — the Figure 2 experiment engine.

Import from the modules themselves: the package re-exports nothing, so
importing one layer does not compile the rest.
"""
