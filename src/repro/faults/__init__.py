"""Deterministic fault injection for the MASC/BGMP stack.

The paper's protocols are soft-state machines designed to ride out
link failures, router crashes, and partitions. This package drives
those failure modes on the :class:`~repro.sim.engine.Simulator`
clock: :mod:`repro.faults.plan` declares *what* fails and when,
:mod:`repro.faults.injector` applies the plan to the live MASC
overlay / BGP substrate / BGMP tree layer, and
:mod:`repro.faults.chaos` runs seeded randomized schedules and checks
the post-recovery invariants (non-overlapping claims, loop-free
trees, members reachable). :mod:`repro.faults.soak` chains long chaos
runs as crash-resumable checkpointed segments (see
:mod:`repro.checkpoint`).
"""
