"""Parallel multi-seed sweep runner.

Every experiment in this repo is deterministic given its seed, which
makes seed sweeps embarrassingly parallel: :func:`parallel_map` fans a
worker out over a process pool and merges results *in input order*
(``multiprocessing.Pool.map`` preserves it), so a parallel sweep
returns byte-for-byte the list a serial loop would.

The runner degrades gracefully: with one item or one process it is
the plain serial loop, no pool; when a worker, item or result cannot
cross a process boundary (unpicklable closures, simulator-bound
state) it reruns the sweep serially — same results.

The runner is stateless: each parallel sweep starts its own pool and
joins it before returning, so workers see the parent's state as of
the call and none outlives it. Starting and joining a two-worker pool
costs under 10 ms, against sweeps of 150 ms and up.

Worker *exceptions* are part of the contract too: a worker that raises
inside the pool does not abort the sweep with a bare pool traceback.
The failure is trapped in the child, logged with the exact item that
failed, and the item is retried serially once in the parent (which
clears pool-only failures: fork-state dependence, import races,
resource limits). Only when the serial retry also fails does the
sweep propagate — as a :class:`WorkerItemError` naming the item and
its index, chained to the original exception.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import multiprocessing.pool
import os
import pickle
import traceback
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

log = logging.getLogger("repro.experiments.runner")

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Pickling can fail many ways: PicklingError for explicit refusals,
#: TypeError/AttributeError for closures, lambdas, and locally-defined
#: classes. Anything else is a real bug and propagates.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


class WorkerItemError(RuntimeError):
    """A worker failed on one specific item — in the pool and again on
    the serial retry. Carries the item and its input index so the
    caller knows exactly which seed/config to reproduce with."""

    def __init__(self, item: object, index: int, reason: str):
        super().__init__(
            f"worker failed on item #{index} ({item!r}): {reason}"
        )
        self.item = item
        self.index = index


def _trap(worker: Callable[[ItemT], ResultT], item: ItemT) -> Tuple:
    """Pool-side wrapper: convert a worker exception into data, so the
    parent learns *which* item failed instead of getting whichever
    traceback the pool surfaces first."""
    try:
        return ("ok", worker(item))
    except Exception as error:  # lint: disable=DET005 — boundary: re-raised with item context in the parent
        return (
            "err",
            (type(error).__name__, str(error), traceback.format_exc()),
        )


def default_processes(item_count: int) -> int:
    """Pool size when the caller does not choose one: one process per
    item up to the machine's CPU count."""
    return max(1, min(item_count, os.cpu_count() or 1))


def _serial_map(
    worker: Callable[[ItemT], ResultT], items: Sequence[ItemT]
) -> List[ResultT]:
    return [worker(item) for item in items]


def _merge_outcomes(
    worker: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    outcomes: Sequence[Tuple],
) -> List[ResultT]:
    """Replace trapped failures with one serial retry each; propagate
    (with the item attached) only when the retry fails too."""
    results: List[ResultT] = []
    for index, (item, outcome) in enumerate(zip(items, outcomes)):
        status, payload = outcome
        if status == "ok":
            results.append(payload)
            continue
        error_name, message, pool_traceback = payload
        log.warning(
            "parallel_map: worker raised %s on item #%d (%r) in the "
            "pool; retrying serially once\n%s",
            error_name, index, item, pool_traceback,
        )
        try:
            results.append(worker(item))
        except Exception as error:  # lint: disable=DET005 — boundary: wrapped in WorkerItemError with the item attached
            raise WorkerItemError(
                item, index, f"{type(error).__name__}: {error}"
            ) from error
        log.info(
            "parallel_map: serial retry of item #%d (%r) succeeded",
            index, item,
        )
    return results


def parallel_map(
    worker: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    processes: Optional[int] = None,
) -> List[ResultT]:
    """``[worker(item) for item in items]``, fanned out over processes.

    Results come back in input order regardless of which process
    finished first, so the merge is deterministic. ``processes=None``
    sizes the pool to :func:`default_processes`; ``processes<=1`` or
    a single item runs serially; a worker, item or result that
    refuses to pickle triggers a serial rerun (logged), so callers
    always get the full result list. A worker
    that raises in the pool is logged with its item and retried
    serially once; if the retry fails the sweep raises
    :class:`WorkerItemError` naming the item.
    """
    items = list(items)
    if not items:
        return []
    count = (
        default_processes(len(items)) if processes is None else processes
    )
    count = min(count, len(items))
    if count <= 1 or len(items) == 1:
        return _serial_map(worker, items)
    trapped = functools.partial(_trap, worker)
    # Seed sweeps are short lists of long tasks, so small chunks keep
    # workers load-balanced while still amortising IPC for long lists.
    chunksize = max(1, len(items) // (count * 4))
    try:
        with multiprocessing.Pool(count) as pool:
            outcomes = pool.map(trapped, items, chunksize)
    except (
        multiprocessing.pool.MaybeEncodingError,
        *_PICKLE_ERRORS,
    ):
        # Worker exceptions come back as data (_trap), so an exception
        # here is serialization infrastructure: an unpicklable worker
        # or item at dispatch, or an unpicklable result on the way
        # back. Rerun serially.
        log.warning(
            "parallel_map: worker, item or result not picklable; "
            "rerunning %d item(s) serially", len(items),
        )
        return _serial_map(worker, items)
    return _merge_outcomes(worker, items, outcomes)
