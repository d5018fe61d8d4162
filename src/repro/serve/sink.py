"""The telemetry sink: the only bridge between the simulation thread
and the HTTP hub.

:class:`TelemetrySink` registers as a :class:`~repro.sim.engine.Simulator`
observer and, every ``sample_every``-th executed event, builds one
immutable **frame** — counter deltas since the previous frame, current
gauges, the span tail, newly reported violations, queue depth — and
publishes it into a bounded ring buffer. HTTP handler threads never
touch live simulation objects: they read published frames (plain
dicts, fully materialised) under the sink's lock, and request
richer snapshots (tree, claims, metrics) through a queue that the
simulation thread drains at the next event boundary.

Concurrency contract:

* ``_on_event`` runs on the simulation thread only. It is the sole
  writer of frames and the sole executor of queued snapshot thunks,
  so every read of simulator/protocol state happens at an event
  boundary with the world at rest.
* Reader threads call :meth:`frames_since`, :meth:`wait_for_frame`,
  and :meth:`snapshot` — all lock-protected, none touching live
  world state.
* Once :meth:`mark_finished` is called (the run completed; the
  simulation thread is done), the world is quiescent and snapshot
  thunks run synchronously on the calling thread instead.

The sink declares ``checkpoint_transient = True``: it is a
process-local measurement attachment, and
``Simulator.__getstate__`` drops transient observers, so a watched
world checkpoints byte-identically to an unwatched one — the
mechanical half of the serve-mode fingerprint-neutrality argument
(docs §13).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.trace.metrics import metrics_delta

from .snapshots import ServeSources


def render_violation(violation) -> str:
    """One feed line per violation: time, invariant, details."""
    details = "; ".join(violation.details)
    return f"t={violation.time:g} {violation.invariant}: {details}"


class _SnapshotRequest:
    """A snapshot thunk awaiting execution at an event boundary."""

    __slots__ = ("builder", "ready", "result", "error")

    def __init__(self, builder: Callable[[], Dict[str, Any]]):
        self.builder = builder
        self.ready = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.result = self.builder()
        except BaseException as exc:  # lint: disable=DET005 — cross-thread relay: the exception is re-raised verbatim on the requesting thread, never swallowed
            self.error = exc
        finally:
            self.ready.set()


class TelemetrySink:
    """Samples a live world into immutable frames at event boundaries.

    :param sources: the :class:`~repro.serve.snapshots.ServeSources`
        naming what to read.
    :param sample_every: build a frame every N executed events.
    :param max_frames: ring-buffer capacity; older frames are dropped
        (``frames_published`` keeps the absolute count, so consumers
        can detect gaps).
    """

    #: Process-local measurement attachment: Simulator.__getstate__
    #: drops transient observers from checkpoints, so a watched world
    #: snapshots exactly like an unwatched one.
    checkpoint_transient = True

    def __init__(
        self,
        sources: ServeSources,
        sample_every: int = 100,
        max_frames: int = 512,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.sources = sources
        self.sample_every = sample_every
        self._lock = threading.Lock()
        self._new_frame = threading.Condition(self._lock)
        self._frames: Deque[Dict[str, Any]] = deque(maxlen=max_frames)
        self.frames_published = 0
        self.events_seen = 0
        self._finished = False
        self._attached = False
        # Sampling state: owned by the simulation thread.
        self._prev_counters: Dict[str, int] = {}
        self._span_cursor: Tuple[int, int] = (0, 0)
        self._pending_violations: List[str] = []
        self.violations_seen: List[str] = []
        self._requests: Deque[_SnapshotRequest] = deque()

    # ------------------------------------------------------------------
    # Lifecycle (simulation thread)

    def attach(self) -> "TelemetrySink":
        """Register on the simulator (and sanitizer, when present);
        prime the delta baseline so the first frame reports activity
        since attach, not since world creation."""
        if self._attached:
            return self
        self._prev_counters = self.sources.registry_snapshot().counters
        self._span_cursor = self.sources.tracer.cursor()
        self.sources.sim.add_observer(self._on_event)
        if self.sources.sanitizer is not None:
            self.sources.sanitizer.add_listener(self._on_violation)
        self._attached = True
        return self

    def detach(self) -> None:
        """Unregister from the simulator and sanitizer (idempotent).
        Leaves published frames readable."""
        if not self._attached:
            return
        self.sources.sim.remove_observer(self._on_event)
        if self.sources.sanitizer is not None:
            self.sources.sanitizer.remove_listener(self._on_violation)
        self._attached = False

    def mark_finished(self) -> None:
        """The run completed: flush a final frame, drain any queued
        snapshot requests, and switch snapshots to synchronous
        execution (the world is quiescent)."""
        self._publish_frame()
        self._drain_requests()
        with self._new_frame:
            self._finished = True
            self._new_frame.notify_all()

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished

    # ------------------------------------------------------------------
    # Simulation-thread hooks

    def _on_violation(self, violation) -> None:
        # Sanitizer listener: runs on the simulation thread, inside
        # the observer pass. Buffered into the next frame.
        line = render_violation(violation)
        self._pending_violations.append(line)
        self.violations_seen.append(line)

    def _on_event(self, event) -> None:
        # Simulator observer: every executed event lands here. Keep
        # the common path to one increment and one modulo.
        self.events_seen += 1
        if not self.events_seen % self.sample_every:
            self._publish_frame()
        if self._requests:
            self._drain_requests()

    def _drain_requests(self) -> None:
        while self._requests:
            self._requests.popleft().run()

    def _publish_frame(self) -> None:
        sources = self.sources
        metrics = sources.registry_snapshot()
        delta = metrics_delta(self._prev_counters, metrics.counters)
        self._prev_counters = metrics.counters
        started, finished, self._span_cursor = sources.tracer.tail(
            self._span_cursor
        )
        violations = self._pending_violations
        self._pending_violations = []
        frame = {
            "schema": "repro.frame/v1",
            "seq": self.frames_published,
            "time": sources.sim.now,
            "events": sources.sim.processed,
            "queue_depth": sources.sim.queue_depth,
            "counters_delta": delta,
            "gauges": metrics.gauges,
            "spans_started": [span.to_dict() for span in started],
            "spans_finished": list(finished),
            "violations": violations,
        }
        with self._new_frame:
            self._frames.append(frame)
            self.frames_published += 1
            self._new_frame.notify_all()

    # ------------------------------------------------------------------
    # Reader-thread API (HTTP handlers)

    def frames_since(self, seq: int) -> List[Dict[str, Any]]:
        """Published frames with ``seq`` >= the given sequence number
        (bounded by ring capacity — dropped frames are simply gone)."""
        with self._lock:
            return [f for f in self._frames if f["seq"] >= seq]

    def wait_for_frame(
        self, seq: int, timeout: float = 1.0
    ) -> List[Dict[str, Any]]:
        """Block up to ``timeout`` seconds for a frame at or past
        ``seq``; returns whatever is available (possibly empty)."""
        with self._new_frame:
            if not any(f["seq"] >= seq for f in self._frames):
                if not self._finished:
                    self._new_frame.wait(timeout)
            return [f for f in self._frames if f["seq"] >= seq]

    def latest_frame(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._frames[-1] if self._frames else None

    def snapshot(
        self,
        builder: Callable[[], Dict[str, Any]],
        timeout: float = 5.0,
    ) -> Dict[str, Any]:
        """Run ``builder`` with the world at rest and return its
        payload.

        While the run is live, the thunk is queued and executed by the
        simulation thread at its next event boundary; after
        :meth:`mark_finished` (or before attach) the world is
        quiescent and the thunk runs right here. Raises
        :class:`TimeoutError` when no boundary arrives in time.
        """
        with self._lock:
            live = self._attached and not self._finished
        if not live:
            return builder()
        request = _SnapshotRequest(builder)
        self._requests.append(request)
        if not request.ready.wait(timeout):
            raise TimeoutError(
                f"no event boundary within {timeout:g}s "
                "(simulation stalled or finished without mark_finished)"
            )
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def state_label(self) -> str:
        """``running`` | ``finished`` — for the health payload."""
        return "finished" if self.finished else "running"
