"""Discrete-event simulation kernel.

A small, deterministic event-driven simulator: a clock, an event heap,
cancellable timers, named seeded random streams, and time-series /
counter statistics collection. All protocol machinery in this library
(BGP sessions, MASC claim timers, BGMP joins) is driven by this kernel.
"""
