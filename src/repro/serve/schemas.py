"""Versioned JSON schemas for every serve-mode payload.

Each payload the telemetry hub emits — snapshot or stream frame —
carries a ``"schema"`` field naming its shape and version
(``"repro.metrics/v1"``). The shapes themselves live here as
declarative specs over a deliberately tiny schema language, and
:func:`validate` checks a payload against the schema it claims, so
the CI smoke job (and any external consumer) can verify the wire
contract without a JSON-Schema dependency.

Schema language, in full:

* a type (or tuple of types) — ``isinstance`` check; :data:`NUMBER`
  is the int-or-float alias, ``type(None)`` admits null;
* ``[spec]`` — a list whose every element matches ``spec``;
* ``{...}`` — a mapping with exactly these required keys (extra keys
  are errors: the schema *is* the contract), each value checked
  against its spec;
* :func:`opt` — wraps a dict entry that may be absent;
* :class:`Map` — a mapping with arbitrary string keys and uniform
  value spec (metric name -> count);
* :data:`ANY` — anything (used for span attribute values).

Versioning: a breaking change to a shape bumps its ``/vN`` suffix and
keeps the old entry until no supported consumer reads it. Additive
changes are breaking too (unknown keys fail validation), which keeps
"what does the stream look like" answerable from this file alone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

#: int-or-float (JSON "number").
NUMBER = (int, float)

#: Matches anything — for open-ended values like span attributes.
ANY = object()


class _Optional:
    """Marks a dict entry that may be absent."""

    __slots__ = ("spec",)

    def __init__(self, spec: Any):
        self.spec = spec


def opt(spec: Any) -> _Optional:
    """An optional dict entry with the given spec."""
    return _Optional(spec)


class Map:
    """A mapping with arbitrary string keys and one value spec."""

    __slots__ = ("value_spec",)

    def __init__(self, value_spec: Any):
        self.value_spec = value_spec


#: One exported span (repro.trace.Span.to_dict plus a ``state``).
SPAN_SPEC: Dict[str, Any] = {
    "span_id": int,
    "parent_id": (int, type(None)),
    "name": str,
    "layer": str,
    "start": NUMBER,
    "end": (int, float, type(None)),
    "status": str,
    "attrs": opt(Map(ANY)),
    "events": opt([Map(ANY)]),
}

#: One BGMP forwarding entry in a tree snapshot.
TREE_ENTRY_SPEC: Dict[str, Any] = {
    "router": str,
    "domain": str,
    "source": str,
    "parent": (str, type(None)),
    "oil": [str],
    "upstream": (str, type(None)),
}

SCHEMAS: Dict[str, Any] = {
    # Liveness + run identity; the first thing a consumer fetches.
    "repro.health/v1": {
        "schema": str,
        "state": str,            # running | finished | attached
        "target": str,           # chaos | fig2 | soak-attach | ...
        "seed": int,
        "time": NUMBER,
        "events": int,
        "queue_depth": int,
        "frames": int,           # samples published so far
        "sample_every": int,
        "groups": [str],
        "violations": int,
    },
    # One streamed sample: labelled counter deltas since the previous
    # sample, current gauges, and the span/violation tail.
    "repro.frame/v1": {
        "schema": str,
        "seq": int,
        "time": NUMBER,
        "events": int,
        "queue_depth": int,
        "counters_delta": Map(int),
        "gauges": Map(NUMBER),
        "spans_started": [SPAN_SPEC],
        "spans_finished": [int],
        "violations": [str],
    },
    # Cumulative metrics at the latest sample boundary.
    "repro.metrics/v1": {
        "schema": str,
        "seq": int,
        "time": NUMBER,
        "events": int,
        "counters": Map(int),
        "gauges": Map(NUMBER),
    },
    # The full span record (open and closed) at a sample boundary.
    "repro.spans/v1": {
        "schema": str,
        "time": NUMBER,
        "open": int,
        "finished": int,
        "spans": [SPAN_SPEC],
    },
    # One group's BGMP tree: per-router entries with parent target,
    # outgoing interface list (children), and the upstream router.
    "repro.tree/v1": {
        "schema": str,
        "group": str,
        "time": NUMBER,
        "root_domain": (str, type(None)),
        "entries": [TREE_ENTRY_SPEC],
        "edges": [[str]],
    },
    # MASC claim tables: per-node confirmed prefixes.
    "repro.claims/v1": {
        "schema": str,
        "time": NUMBER,
        "nodes": [{"name": str, "prefixes": [str]}],
    },
    # Sanitizer verdict so far: rendered violations + dump paths.
    "repro.violations/v1": {
        "schema": str,
        "time": NUMBER,
        "count": int,
        "violations": [str],
        "dumps": [str],
    },
    # Per-callback profiler histograms. Wall timings are
    # nondeterministic by design (docs §7) — this payload is served
    # live but never folded into a determinism-bound artifact.
    "repro.profile/v1": {
        "schema": str,
        "events": int,
        "wall_seconds": NUMBER,
        "events_per_second": NUMBER,
        "max_queue_depth": int,
        "callbacks": Map(Map(NUMBER)),
    },
}


def _check(value: Any, spec: Any, path: str, errors: List[str]) -> None:
    if spec is ANY:
        return
    if isinstance(spec, _Optional):
        _check(value, spec.spec, path, errors)
        return
    if isinstance(spec, Map):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got "
                          f"{type(value).__name__}")
            return
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                errors.append(f"{path}: non-string key {key!r}")
                continue
            _check(value[key], spec.value_spec, f"{path}.{key}", errors)
        return
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got "
                          f"{type(value).__name__}")
            return
        for key in sorted(spec):
            entry = spec[key]
            if key not in value:
                if not isinstance(entry, _Optional):
                    errors.append(f"{path}: missing required key "
                                  f"'{key}'")
                continue
            _check(value[key], entry, f"{path}.{key}", errors)
        for key in sorted(value, key=str):
            if key not in spec:
                errors.append(f"{path}: unexpected key '{key}'")
        return
    if isinstance(spec, list):
        if not isinstance(value, list):
            errors.append(f"{path}: expected array, got "
                          f"{type(value).__name__}")
            return
        for index, element in enumerate(value):
            _check(element, spec[0], f"{path}[{index}]", errors)
        return
    # A type or tuple of types. bool passes isinstance(..., int); the
    # wire format has no metric that is legitimately boolean, so
    # reject it explicitly rather than let True leak in as 1.
    allowed: Union[type, Tuple[type, ...]] = spec
    if isinstance(value, bool) and (
        spec is int or (isinstance(spec, tuple) and bool not in spec)
    ):
        errors.append(f"{path}: expected {_spec_name(spec)}, got bool")
        return
    if not isinstance(value, allowed):
        errors.append(
            f"{path}: expected {_spec_name(spec)}, got "
            f"{type(value).__name__}"
        )


def _spec_name(spec: Any) -> str:
    if isinstance(spec, tuple):
        return "|".join(t.__name__ for t in spec)
    return getattr(spec, "__name__", repr(spec))


def validate(payload: Any) -> List[str]:
    """Errors found checking ``payload`` against the schema it names
    in its ``"schema"`` field; empty when valid."""
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, not an object"]
    name = payload.get("schema")
    if not isinstance(name, str):
        return ["payload carries no 'schema' field"]
    spec = SCHEMAS.get(name)
    if spec is None:
        return [f"unknown schema '{name}'"]
    errors: List[str] = []
    _check(payload, spec, name, errors)
    return errors
