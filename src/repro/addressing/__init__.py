"""Address primitives for multicast allocation.

This package provides the CIDR machinery that MASC (section 4 of the
paper) operates on: IPv4 address parsing/formatting, the :class:`Prefix`
value type and block sizing, binary prefix tries for free-space search
(the candidate set of the claim rule, which :mod:`repro.masc.spaces`
applies), and lifetime (lease) bookkeeping.
"""
