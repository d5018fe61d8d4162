"""The event loop.

:class:`Simulator` owns the virtual clock and a heap of scheduled
callbacks. Events at equal times fire in scheduling order (FIFO), which
keeps runs deterministic under a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule` so the
    caller can cancel or inspect it."""

    __slots__ = ("time", "callback", "args", "cancelled", "name", "_owner")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        name: str = "",
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.name = name
        self._owner: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    def __repr__(self) -> str:
        label = self.name or getattr(self.callback, "__name__", "callback")
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, {label}{state})"


class Simulator:
    """A discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1, arg2)
        sim.run(until=100.0)
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled_pending = 0
        self._observers: List[Callable[[Event], None]] = []
        #: Immutable snapshot iterated by :meth:`_notify`. Refreshed
        #: only when the observer list mutates, so the hot loop never
        #: copies the list per executed event while an observer that
        #: unregisters itself (or a sibling) mid-notification still
        #: sees a stable iteration.
        self._observer_snapshot: Tuple[Callable[[Event], None], ...] = ()
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Observers (sanitizer hook)

    def add_observer(self, observer: Callable[[Event], None]) -> None:
        """Register a callback invoked after every executed event.

        Observers run synchronously with the event that just fired (the
        clock still reads the event's time), in registration order.
        They are the attachment point for runtime checkers such as
        :class:`repro.sanitizer.core.InvariantSanitizer`; an observer that
        raises aborts the run with its exception. Registering the same
        observer twice is a no-op.
        """
        if observer not in self._observers:
            self._observers.append(observer)
            self._observer_snapshot = tuple(self._observers)

    def remove_observer(self, observer: Callable[[Event], None]) -> None:
        """Unregister an observer (no-op when absent)."""
        if observer in self._observers:
            self._observers.remove(observer)
            self._observer_snapshot = tuple(self._observers)

    def _notify(self, event: Event) -> None:
        for observer in self._observer_snapshot:
            observer(event)

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1

    # ------------------------------------------------------------------
    # Profiler hook

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or with ``None``, detach) an event-loop profiler.

        Unlike observers, the profiler brackets each callback: the
        loop calls ``profiler.begin()`` before and
        ``profiler.record(event, token, queue_depth)`` after every
        executed event, so per-callback cost is measurable. With no
        profiler attached (the default) the loop takes a branch-only
        fast path. See :class:`repro.trace.profiler.EventLoopProfiler`.
        """
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        Cancelled events at the front of the heap are discarded here,
        so liveness checks never spin on dead events.
        """
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_pending -= 1
        return len(self._heap) - self._cancelled_pending

    @property
    def queue_depth(self) -> int:
        """Live (non-cancelled) events still scheduled, computed
        without touching the heap.

        Unlike :attr:`pending` — which compacts cancelled entries off
        the front of the heap as a side effect — this read mutates
        nothing, so telemetry observers (the serve-mode
        :class:`repro.serve.sink.TelemetrySink`) can sample it at event
        boundaries without perturbing checkpoint or fingerprint state.
        """
        return len(self._heap) - self._cancelled_pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from
        now. ``delay`` must be non-negative (so not NaN)."""
        if not delay >= 0:
            raise ValueError(
                f"cannot schedule at delay={delay}: not a time >= 0"
            )
        return self.schedule_at(self._now + delay, callback, *args, name=name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time,
        no earlier than now. (NaN compares false either way, so the
        test is written to reject it: a NaN key corrupts heap order.)"""
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at t={time}: not a time >= now="
                f"{self._now}"
            )
        event = Event(time, callback, args, name=name)
        event._owner = self
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the heap drains, the clock passes ``until``, or
        ``max_events`` more events have executed. Returns the number of
        events executed.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if the last event fires earlier — including on a
        ``max_events`` early exit — so periodic samplers and fault
        timers see a consistent end time. (The clock never moves
        backwards: events left over from an early exit fire at the
        later of their scheduled time and the current clock.)
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            time, _, event = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            if time > self._now:
                self._now = time
            self._processed += 1
            if self._profiler is None:
                event.callback(*event.args)
            else:
                token = self._profiler.begin()
                event.callback(*event.args)
                self._profiler.record(event, token, len(self._heap))
            if self._observers:
                self._notify(event)
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        return executed

    def clear(self) -> None:
        """Drop all pending events (the clock keeps its value)."""
        self._heap.clear()
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.checkpoint)

    def __getstate__(self) -> dict:
        """Canonical snapshot state.

        Cancelled timers are compacted out of the queue: they would
        never fire, and dropping them here means a restored simulator
        carries no dead weight and needs no ``_cancelled_pending``
        bookkeeping transfer. The heap is stored fully sorted
        ((time, seq) order), which is simultaneously a valid heap and
        a canonical representation, so FIFO ordering of same-time
        events survives the round trip exactly.

        Observers and profilers whose owner declares
        ``checkpoint_transient = True`` (the serve-mode telemetry
        sink, the event-loop profiler) are process-local measurement
        attachments, not world state: they are filtered out of the
        snapshot, so a world being watched checkpoints exactly like
        one that is not.
        """
        state = self.__dict__.copy()
        observers = [
            callback
            for callback in self._observers
            if not self._is_transient(callback)
        ]
        state["_observers"] = observers
        state["_observer_snapshot"] = tuple(observers)
        if self._is_transient(self._profiler):
            state["_profiler"] = None
        state["_heap"] = sorted(
            entry for entry in self._heap if not entry[2].cancelled
        )
        state["_cancelled_pending"] = 0
        # itertools.count cannot be introspected without consuming it;
        # its __reduce__ carries the next value.
        state["_sequence"] = self._sequence.__reduce__()[1][0]
        return state

    @staticmethod
    def _is_transient(attachment: Any) -> bool:
        """True when an observer callback or profiler belongs to an
        object declaring ``checkpoint_transient = True``."""
        if attachment is None:
            return False
        owner = getattr(attachment, "__self__", attachment)
        return bool(getattr(owner, "checkpoint_transient", False))

    def __setstate__(self, state: dict) -> None:
        sequence = state.pop("_sequence")
        self.__dict__.update(state)
        self._sequence = itertools.count(sequence)
        # A sorted list satisfies the heap invariant as-is.
