"""Deterministic checkpoint/restore of full simulator state.

* :mod:`repro.checkpoint.core` — :func:`~repro.checkpoint.core.capture`
  / :func:`~repro.checkpoint.core.restore` snapshot a live world (any
  picklable object graph around a Simulator) and reconstruct it, with
  continuation identity: the restored run's fingerprints match the
  uninterrupted run byte for byte; ``save`` / ``load`` write and read
  verified checkpoint files, and ``ViolationDump`` with ``save_dump``
  / ``load_dump`` the time-travel debugging payloads written when the
  sanitizer trips.
* :data:`~repro.checkpoint.registry.SNAPSHOT_REGISTRY` — the
  restore-fidelity allowlist enforced by lint rule DET006.

See ``docs/ARCHITECTURE.md`` §11 for the format and resume semantics.
Import from the modules; ``capture`` and ``restore`` are also names of
this package only because ``bench/`` wraps them here.
"""

from repro.checkpoint.core import capture, restore
