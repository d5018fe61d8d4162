"""Snapshot-coverage registry: the restore-fidelity allowlist.

Classes with *custom* serialization — ``__reduce__``, an explicit
``__getstate__``/``__setstate__`` pair, or ``__slots__`` — are the one
place a new attribute can silently fall out of a checkpoint: the
default pickle path captures ``__dict__`` wholesale, but a hand-written
one only captures what it was written to capture. Every such
simulator-state class registers here, mapping its location to the
exact attribute set its snapshot covers.

The static lint rule **DET006** (``repro.lint``) cross-checks this
registry against the source: any ``self.attr = ...`` assignment (or
``__slots__`` entry) in a registered class that names an attribute
missing from its allowlist fails the lint gate. Adding state to one of
these classes therefore forces a conscious, reviewable edit in two
places — the snapshot method and this file — so restore fidelity
cannot rot silently.

Keys are ``"<module>:<ClassName>"`` with the module path relative to
the ``repro`` package (matching what the linter derives from the file
path).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: class location -> attributes its snapshot/restore path covers.
SNAPSHOT_REGISTRY: Dict[str, FrozenSet[str]] = {
    # Simulator has an explicit __getstate__ (queue compaction +
    # canonical heap order + sequence-counter transfer).
    "repro.sim.engine:Simulator": frozenset({
        "_now",
        "_heap",
        "_sequence",
        "_processed",
        "_cancelled_pending",
        "_observers",
        "_observer_snapshot",
        "_profiler",
    }),
    # Event is a __slots__ class: a new slot is automatically pickled,
    # but a new attribute requires a new slot — keep the list exact.
    "repro.sim.engine:Event": frozenset({
        "time",
        "callback",
        "args",
        "cancelled",
        "name",
        "_owner",
    }),
    # RandomStreams exposes getstate()/setstate() for explicit
    # snapshots; both must cover every attribute.
    "repro.sim.randomness:RandomStreams": frozenset({
        "_master_seed",
        "_streams",
    }),
    # Prefix is a __slots__ class whose __reduce__ rebuilds through the
    # interning constructor; _hash is derived from the other two, so
    # constructor args alone are a complete snapshot.
    "repro.addressing.prefix:Prefix": frozenset({
        "_network",
        "_length",
        "_hash",
    }),
    # The allocation trie's node is a __slots__ class; ``used`` is the
    # sum PrefixTrie.insert/remove maintain, not recomputed on restore.
    "repro.addressing.trie:_Node": frozenset({
        "allocated",
        "used",
        "low",
        "high",
    }),
    # LpmTrie is a __slots__ class; _search aliases the dicts held by
    # _tables, which pickle's memo preserves.
    "repro.addressing.trie:LpmTrie": frozenset({
        "_tables",
        "_search",
    }),
    # BGMP targets are __slots__ classes whose __reduce__ rebuilds
    # through the interning constructor; the one slot each is the
    # constructor's argument, so it alone is a complete snapshot.
    "repro.bgmp.targets:PeerTarget": frozenset({"router"}),
    "repro.bgmp.targets:MigpTarget": frozenset({"domain"}),
    # The sanitizer's __getstate__ drops its process-local violation
    # listeners (serve-layer callbacks bound to thread primitives);
    # every other attribute rides along verbatim.
    "repro.sanitizer.core:InvariantSanitizer": frozenset({
        "tracer",
        "bgmp",
        "groups",
        "masc_siblings",
        "claim_bindings",
        "check_every",
        "raise_on_violation",
        "_trace",
        "_sim",
        "_events_seen",
        "checks_run",
        "violations",
        "dump_dir",
        "dump_checkpoint_path",
        "dump_context",
        "replay_horizon",
        "dumps",
        "_listeners",
    }),
}
