"""Event-loop profiler.

Attaches to a :class:`repro.sim.engine.Simulator` via
:meth:`~repro.sim.engine.Simulator.set_profiler` and brackets every executed
callback, recording:

* **wall time per callback name** — count, total seconds, and a
  geometric-bucket duration histogram (p50/p99), so hot paths are
  attributable by name;
* **event-queue depth** over simulation time, sampled after every
  event;
* **aggregate throughput** — events/sec over the profiled interval.

This is the one module in the repo allowed to read the host clock:
profiling *measures* nondeterministic wall time by design. The
determinism contract (docs §6) is preserved by keeping wall-clock
readings out of every determinism-bound export — span traces, metric
snapshots, and Chrome traces are built from simulation time and event
counts only; wall timings appear solely in :meth:`summary` (the bench
report). Each host-clock read carries a DET002 suppression recording
that rationale for the linter.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from ..sim.engine import Event, Simulator
from ..sim.stats import Histogram, TimeSeries


def event_label(event: Event) -> str:
    """The profiling key for an event: its explicit ``name`` when
    scheduled with one, else the callback's qualified name."""
    if event.name:
        return event.name
    callback = event.callback
    return getattr(
        callback, "__qualname__", getattr(callback, "__name__", "callback")
    )


class CallbackStats:
    """Accumulated cost of one callback name."""

    __slots__ = ("label", "count", "total_seconds", "durations")

    #: Duration buckets: 100 ns .. ~7 min, geometric (×2).
    BUCKETS = 32

    def __init__(self, label: str):
        self.label = label
        self.count = 0
        self.total_seconds = 0.0
        self.durations = Histogram.geometric(
            f"callback_seconds{{callback={label}}}",
            start=1e-7,
            factor=2.0,
            buckets=self.BUCKETS,
        )

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.durations.observe(seconds)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "count": self.count,
            "total_s": self.total_seconds,
        }
        if self.count:
            record["mean_s"] = self.total_seconds / self.count
            record["p50_s"] = self.durations.quantile(0.50)
            record["p99_s"] = self.durations.quantile(0.99)
        return record

    def __repr__(self) -> str:
        return (
            f"CallbackStats({self.label!r}, n={self.count}, "
            f"total={self.total_seconds:.6f}s)"
        )


class EventLoopProfiler:
    """Per-callback wall-time and queue-depth profiler.

    Use::

        profiler = EventLoopProfiler()
        profiler.attach(sim)
        sim.run(until=...)
        profiler.detach()
        report = profiler.summary()

    The simulator calls :meth:`begin` before and :meth:`record` after
    each event; both are designed to cost two attribute lookups and a
    clock read, so profiled runs stay usable at paper scale.
    """

    #: A profiler is a process-local measurement attachment (it reads
    #: the wall clock by design); Simulator.__getstate__ drops it from
    #: checkpoints so profiled worlds snapshot like unprofiled ones.
    checkpoint_transient = True

    #: Queue-depth sample bound. Per-callback durations are already
    #: histogram-bounded, so the depth curve was the one structure
    #: growing linearly with event count; at this bound it decimates
    #: (keep every other sample, double the recording stride), keeping
    #: memory flat on internet-scale runs. Decimation is keyed to the
    #: event counter only — deterministic across same-seed runs.
    MAX_DEPTH_SAMPLES = 65536

    def __init__(self, max_depth_samples: Optional[int] = None) -> None:
        self.callbacks: Dict[str, CallbackStats] = {}
        #: Queue depth over *simulation* time (deterministic; bounded
        #: by stride-doubling decimation past ``max_depth_samples``).
        self.queue_depth = TimeSeries("event_queue_depth")
        self.max_queue_depth = 0
        self.events = 0
        self._max_depth_samples = (
            self.MAX_DEPTH_SAMPLES
            if max_depth_samples is None
            else max(2, max_depth_samples)
        )
        #: Events between recorded depth samples (1 until the first
        #: decimation, then doubling).
        self._depth_stride = 1
        #: Exact depth after the latest event — kept outside the
        #: (possibly decimated) series so snapshots stay exact.
        self._final_depth = 0
        self._sim: Optional[Simulator] = None
        self._wall_started: Optional[float] = None
        self._wall_total = 0.0

    # ------------------------------------------------------------------
    # Lifecycle

    def attach(self, sim: Simulator) -> "EventLoopProfiler":
        """Install on ``sim`` and start the wall-time interval."""
        sim.set_profiler(self)
        self._sim = sim
        self._wall_started = time.perf_counter()  # lint: disable=DET002 — profiler measures wall time by design; never exported into determinism-bound artifacts
        return self

    def detach(self) -> None:
        """Stop profiling and close the wall-time interval."""
        if self._wall_started is not None:
            self._wall_total += (
                time.perf_counter() - self._wall_started  # lint: disable=DET002 — profiler measures wall time by design; never exported into determinism-bound artifacts
            )
            self._wall_started = None
        if self._sim is not None:
            self._sim.set_profiler(None)
            self._sim = None

    # ------------------------------------------------------------------
    # Simulator hook (called from the event loop)

    def begin(self) -> float:
        """Called by the loop just before a callback fires; returns
        the timing token passed back to :meth:`record`."""
        return time.perf_counter()  # lint: disable=DET002 — profiler measures wall time by design; never exported into determinism-bound artifacts

    def record(self, event: Event, token: float, queue_depth: int) -> None:
        """Called by the loop just after a callback returns."""
        elapsed = time.perf_counter() - token  # lint: disable=DET002 — profiler measures wall time by design; never exported into determinism-bound artifacts
        label = event_label(event)
        stats = self.callbacks.get(label)
        if stats is None:
            stats = CallbackStats(label)
            self.callbacks[label] = stats
        stats.record(elapsed)
        self.events += 1
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        self._final_depth = queue_depth
        # Record every _depth_stride-th event (the first event is
        # always sample 0, so the kept set stays aligned across
        # stride doublings: events ≡ 0 (mod stride)).
        if (self.events - 1) % self._depth_stride == 0:
            self.queue_depth.record(event.time, queue_depth)
            if len(self.queue_depth) >= self._max_depth_samples:
                self.queue_depth.decimate(2)
                self._depth_stride *= 2

    # ------------------------------------------------------------------
    # Results

    def wall_seconds(self) -> float:
        """Total profiled wall time (a live interval is included)."""
        total = self._wall_total
        if self._wall_started is not None:
            total += time.perf_counter() - self._wall_started  # lint: disable=DET002 — profiler measures wall time by design; never exported into determinism-bound artifacts
        return total

    def events_per_second(self) -> float:
        """Throughput over the profiled interval (0.0 before any
        events)."""
        wall = self.wall_seconds()
        return self.events / wall if wall > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """The full profile, wall timings included — for bench output
        and the text report, NOT for determinism-bound artifacts."""
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds(),
            "events_per_second": self.events_per_second(),
            "max_queue_depth": self.max_queue_depth,
            "callbacks": {
                label: self.callbacks[label].to_dict()
                for label in sorted(self.callbacks)
            },
        }

    def deterministic_snapshot(self) -> Dict[str, Any]:
        """The wall-time-free subset — per-callback event counts and
        the queue-depth curve over simulation time. Safe to diff
        across same-seed runs."""
        depth = self.queue_depth
        record: Dict[str, Any] = {
            "events": self.events,
            "max_queue_depth": self.max_queue_depth,
            "callback_counts": {
                label: self.callbacks[label].count
                for label in sorted(self.callbacks)
            },
        }
        if len(depth):
            # _final_depth is exact even after decimation dropped the
            # last recorded sample (identical to depth.last()[1] on
            # undecimated runs, so small-run snapshots are unchanged).
            record["final_queue_depth"] = self._final_depth
            record["mean_queue_depth"] = depth.mean()
        return record

    def __repr__(self) -> str:
        return (
            f"EventLoopProfiler(events={self.events}, "
            f"callbacks={len(self.callbacks)})"
        )
