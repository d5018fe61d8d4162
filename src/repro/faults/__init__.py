"""Deterministic fault injection for the MASC/BGMP stack.

The paper's protocols are soft-state machines designed to ride out
link failures, router crashes, and partitions. This package drives
those failure modes on the :class:`~repro.sim.engine.Simulator`
clock: :mod:`repro.faults.plan` declares *what* fails and when,
:mod:`repro.faults.injector` applies the plan to the live MASC
overlay / BGP substrate / BGMP tree layer, :mod:`repro.faults.world`
is the one world (layers, injector, sanitizer) every scenario and
fault run acts on, ending with its post-recovery checks (converged
and loop-free trees, members reachable, non-overlapping claims), and
:mod:`repro.faults.soak` is the one fault-run harness: seeded
randomized schedules on the Figure 3 world, in crash-resumable
checkpointed segments (see :mod:`repro.checkpoint`). A chaos run is
one segment of it.
"""
