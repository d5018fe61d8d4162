"""The cyclic collector's policy for the long runs.

A finished world is cyclic garbage: domains and border routers, networks
and routers point at each other. A long run freezes the caller's heap, so
the collector scans only what the run allocates, and collects on exit.
"""

import gc
from contextlib import contextmanager

#: Gen-0 threshold inside a scope (CPython's default is 700).
GEN0_THRESHOLD = 100_000


@contextmanager
def collector_scope():
    """Freeze the heap, run, collect; a no-op when already frozen."""
    if gc.get_freeze_count():
        yield
        return
    thresholds = gc.get_threshold()
    gc.freeze()
    gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
    try:
        yield
    finally:
        gc.collect()
        gc.unfreeze()
        gc.set_threshold(*thresholds)
