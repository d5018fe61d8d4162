"""Deterministic snapshot/restore of live simulator worlds.

A *checkpoint* is a point-in-time pickle of an entire object graph —
the :class:`~repro.sim.engine.Simulator` (clock plus pending event
queue), every protocol layer hanging off it (MASC claim tables and
lease timers, BGP Loc-RIBs / dirty sets / last-sent caches, BGMP tree
state and its LPM reverse index), the fault injector's schedule, the
sanitizer's event window, and any bound random streams. The contract
is *continuation identity*: a run checkpointed at time T and restored
(in the same or a fresh process) must produce byte-identical
fingerprints — forwarding digest, ``rib_digest``, event counts, claim
tables, sanitizer trace — to the run that was never interrupted.

What makes the pickle sufficient:

* every scheduled callback is a bound method or module-level function
  (closures are banned from the event queue — they cannot cross the
  pickle boundary, and the injector/MASC timers were converted);
* graph nodes (``Domain``, ``BorderRouter``, ``Host``, BGMP targets)
  hash by identity, so a restored table rehashes its keys in the
  restoring process with no hook at all;
* the simulator compacts cancelled timers and stores its queue in
  canonical (time, seq) order, so FIFO tie-breaking survives exactly;
* nothing in the graph reads the wall clock or a process-global RNG
  (enforced statically by ``repro.lint`` DET001/DET002 and, for
  snapshot coverage, DET006).

The payload digest is checked on restore, so a truncated or corrupted
checkpoint file fails loudly instead of resuming from garbage.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple

#: Bump when the snapshot semantics change incompatibly (restoring a
#: checkpoint written by a different version raises CheckpointError).
CHECKPOINT_VERSION = 12

#: Bump when the violation-dump layout changes incompatibly.
DUMP_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint could not be captured, verified, or restored."""


def _payload_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _world_sim(world: Any):
    """The simulator a world is built around, if discoverable."""
    from repro.sim.engine import Simulator

    if isinstance(world, Simulator):
        return world
    sim = getattr(world, "sim", None)
    if isinstance(sim, Simulator):
        return sim
    return None


@dataclass(frozen=True)
class Checkpoint:
    """One captured world: the pickled payload plus restore metadata.

    ``time`` and ``events`` mirror the embedded simulator's clock and
    processed-event count at capture time (zero when the world exposes
    no simulator) so tooling can order and label checkpoints without
    unpickling them.
    """

    payload: bytes
    digest: str
    version: int
    time: float
    events: int
    label: str = ""

    def verify(self) -> None:
        """Raise :class:`CheckpointError` on version or digest
        mismatch (corruption, truncation, foreign writer)."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} != supported "
                f"{CHECKPOINT_VERSION}"
            )
        actual = _payload_digest(self.payload)
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint payload digest mismatch "
                f"(expected {self.digest[:12]}…, got {actual[:12]}…)"
            )

    def __repr__(self) -> str:
        label = f" {self.label!r}" if self.label else ""
        return (
            f"Checkpoint(t={self.time:g}, events={self.events},"
            f"{label} {len(self.payload)} bytes)"
        )


def capture(world: Any, label: str = "") -> Checkpoint:
    """Snapshot ``world`` (any picklable object graph) right now.

    Raises :class:`CheckpointError` when part of the graph cannot
    cross the pickle boundary — which names the offending object, the
    usual sign of a closure scheduled on the event queue.
    """
    try:
        payload = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise CheckpointError(
            f"world is not snapshot-safe: {error}"
        ) from error
    sim = _world_sim(world)
    return Checkpoint(
        payload=payload,
        digest=_payload_digest(payload),
        version=CHECKPOINT_VERSION,
        time=sim.now if sim is not None else 0.0,
        events=sim.processed if sim is not None else 0,
        label=label,
    )


def restore(checkpoint: Checkpoint) -> Any:
    """Reconstruct the captured world (verifying the digest first).

    The returned graph is a fully independent deep copy: restoring
    never aliases state with the world that was captured, so a
    restored run and its origin can both continue without interfering.
    """
    checkpoint.verify()
    try:
        return pickle.loads(checkpoint.payload)
    except (pickle.UnpicklingError, TypeError, AttributeError,
            EOFError, ImportError) as error:
        raise CheckpointError(
            f"checkpoint payload does not restore: {error}"
        ) from error


def save(checkpoint: Checkpoint, path) -> None:
    """Write a checkpoint to ``path`` (atomically via a temp name, so
    a crash mid-write never leaves a half-checkpoint behind)."""
    import os

    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load(path) -> Checkpoint:
    """Read and verify a checkpoint written by :func:`save`."""
    with open(path, "rb") as handle:
        try:
            checkpoint = pickle.load(handle)
        # Corrupted pickle streams fail in arbitrary ways (opcode
        # errors, decode errors, bogus lengths) — all of them mean the
        # same thing here: not a readable checkpoint.
        except Exception as error:  # lint: disable=DET005 — corrupted pickle raises arbitrary types; rewrapped as CheckpointError
            raise CheckpointError(
                f"{path}: not a readable checkpoint: {error}"
            ) from error
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(
            f"{path}: contains {type(checkpoint).__name__}, "
            "not a Checkpoint"
        )
    checkpoint.verify()
    return checkpoint


def roundtrip(world: Any) -> Any:
    """Capture + restore in one step — an independent deep copy with
    checkpoint semantics, handy for divergence tests."""
    return restore(capture(world))


# ----------------------------------------------------------------------
# Violation dumps (time-travel debugging)


@dataclass(frozen=True)
class ViolationDump:
    """Everything needed to deterministically re-trigger an
    :class:`~repro.sanitizer.InvariantViolation`.

    ``checkpoint`` is the nearest checkpoint *before* the violation
    (the segment boundary under the soak harness); ``replay_until``
    is a clock horizon safely past the violation time, so replaying
    the restored world with a raising sanitizer reproduces the exact
    failure. ``trace`` is the sanitizer's rendered event window at
    violation time.
    """

    invariant: str
    details: Tuple[str, ...]
    time: float
    trace: Tuple[str, ...]
    replay_until: float
    checkpoint: Optional[Checkpoint] = None
    context: dict = field(default_factory=dict)
    version: int = DUMP_VERSION

    def render(self) -> str:
        """Human-readable dump summary."""
        lines = [
            f"invariant '{self.invariant}' violated at t={self.time:g}",
        ]
        lines.extend(f"  - {detail}" for detail in self.details)
        if self.context:
            rendered = ", ".join(
                f"{key}={self.context[key]!r}"
                for key in sorted(self.context)
            )
            lines.append(f"  context: {rendered}")
        if self.checkpoint is not None:
            lines.append(
                f"  checkpoint: t={self.checkpoint.time:g} "
                f"events={self.checkpoint.events} "
                f"label={self.checkpoint.label!r}"
            )
        lines.append(f"  replay until t={self.replay_until:g}")
        if self.trace:
            lines.append("  event window (oldest first):")
            lines.extend(f"    {line}" for line in self.trace)
        return "\n".join(lines)

    @property
    def replayable(self) -> bool:
        """True when the dump carries a checkpoint to restore from."""
        return self.checkpoint is not None


def save_dump(dump: ViolationDump, path) -> None:
    """Write a violation dump (atomic, like :func:`save`)."""
    import os

    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(dump, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_dump(path) -> ViolationDump:
    """Read a violation dump written by :func:`save_dump`."""
    with open(path, "rb") as handle:
        try:
            dump = pickle.load(handle)
        except Exception as error:  # lint: disable=DET005 — corrupted pickle raises arbitrary types; see load()
            raise CheckpointError(
                f"{path}: not a readable violation dump: {error}"
            ) from error
    if not isinstance(dump, ViolationDump):
        raise CheckpointError(
            f"{path}: contains {type(dump).__name__}, not a ViolationDump"
        )
    if dump.version != DUMP_VERSION:
        raise CheckpointError(
            f"{path}: dump version {dump.version} != supported "
            f"{DUMP_VERSION}"
        )
    if dump.checkpoint is not None:
        dump.checkpoint.verify()
    return dump


def with_context(dump: ViolationDump, **context) -> ViolationDump:
    """A copy of ``dump`` with extra context keys merged in."""
    merged = dict(dump.context)
    merged.update(context)
    return replace(dump, context=merged)
