"""Trace exporters.

Two machine formats plus helpers for writing them:

* **JSONL** — one key-sorted JSON object per line, spans in id order
  followed by orphan events; the grep-able archival format.
* **Chrome ``trace_event``** — the JSON array format consumed by
  Perfetto / ``chrome://tracing``: spans become complete (``ph: "X"``)
  slices, span events and orphan events become instants
  (``ph: "i"``), and an attached profiler's queue-depth curve becomes
  a counter track (``ph: "C"``).

Both formats are deterministic: timestamps are simulation time
(seconds, exported as integer microseconds for Chrome), ids are the
tracer's sequential span ids, and every object is key-sorted — so
same-seed runs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .profiler import EventLoopProfiler
from .tracer import Tracer

#: Process id used for every Chrome trace event (one simulated world).
CHROME_PID = 1


def _microseconds(sim_time: float) -> int:
    return int(round(sim_time * 1_000_000))


def trace_to_jsonl(tracer: Tracer) -> str:
    """All spans (id order) then orphan events (record order), one
    key-sorted JSON object per line."""
    lines: List[str] = []
    for span in tracer.spans:
        record = span.to_dict()
        record["kind"] = "span"
        lines.append(json.dumps(record, sort_keys=True))
    for orphan in tracer.orphan_events:
        record = orphan.to_dict()
        record["kind"] = "event"
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Write :func:`trace_to_jsonl` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_jsonl(tracer))


def _layer_tids(tracer: Tracer) -> Dict[str, int]:
    """Stable thread-id per layer: sorted layer names, tid from 1."""
    layers = sorted({span.layer or "trace" for span in tracer.spans})
    return {layer: index + 1 for index, layer in enumerate(layers)}


def trace_to_chrome(
    tracer: Tracer,
    profiler: Optional[EventLoopProfiler] = None,
) -> Dict[str, Any]:
    """The trace as a Chrome ``trace_event`` JSON object.

    Layers map to named threads; open spans are closed at the
    tracer's current clock for display (their ``args.status`` still
    says ``open``). With a ``profiler``, its queue-depth curve (a
    deterministic function of the event schedule) is added as a
    counter track.
    """
    tids = _layer_tids(tracer)
    events: List[Dict[str, Any]] = []
    for layer in sorted(tids):
        events.append({
            "ph": "M",
            "pid": CHROME_PID,
            "tid": tids[layer],
            "name": "thread_name",
            "args": {"name": layer},
        })
    for span in tracer.spans:
        tid = tids[span.layer or "trace"]
        end = span.end if span.end is not None else tracer.now()
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "status": span.status,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        events.append({
            "ph": "X",
            "pid": CHROME_PID,
            "tid": tid,
            "name": span.name,
            "cat": span.layer or "trace",
            "ts": _microseconds(span.start),
            "dur": _microseconds(end) - _microseconds(span.start),
            "args": args,
        })
        for span_event in span.events:
            events.append({
                "ph": "i",
                "s": "t",
                "pid": CHROME_PID,
                "tid": tid,
                "name": span_event.name,
                "cat": span.layer or "trace",
                "ts": _microseconds(span_event.time),
                "args": dict(sorted(span_event.attrs.items())),
            })
    for orphan in tracer.orphan_events:
        events.append({
            "ph": "i",
            "s": "g",
            "pid": CHROME_PID,
            "tid": 0,
            "name": orphan.name,
            "cat": "trace",
            "ts": _microseconds(orphan.time),
            "args": dict(sorted(orphan.attrs.items())),
        })
    if profiler is not None:
        for sim_time, depth in profiler.queue_depth:
            events.append({
                "ph": "C",
                "pid": CHROME_PID,
                "tid": 0,
                "name": "event_queue_depth",
                "ts": _microseconds(sim_time),
                "args": {"depth": depth},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    profiler: Optional[EventLoopProfiler] = None,
) -> None:
    """Write :func:`trace_to_chrome` output (key-sorted JSON) to
    ``path``."""
    document = trace_to_chrome(tracer, profiler=profiler)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=1)
        handle.write("\n")


def write_metrics_json(registry, path: str) -> None:
    """Write a :class:`~repro.trace.metrics.Metrics` store to ``path``
    as indented canonical JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_json(indent=2))
        handle.write("\n")
