"""The parallel sweep runner: deterministic merge and graceful
serial fallback, plus fig2/fig4/chaos seed sweeps run through it."""

import multiprocessing
import os
from dataclasses import replace
from functools import partial

import pytest

from repro.experiments.fig2 import Figure2Config, run_figure2
from repro.experiments.fig4 import Figure4Config, run_figure4
from repro.experiments.runner import (
    WorkerItemError,
    default_processes,
    parallel_map,
)
from tests.faults._chaos import chaos_summary

SMALL_FIG2 = Figure2Config(
    top_count=2, children_per_top=3, duration_days=20.0,
    transient_days=5.0,
)
SMALL_FIG4 = Figure4Config(
    node_count=80, group_sizes=(2, 10), trials_per_size=1
)


def _cube(value):
    return value ** 3


def _type_name(item):
    return type(item).__name__


def _worker_pid(_item):
    return os.getpid()


#: Read by _read_state in the workers; mutated in the parent between
#: sweeps by test_workers_see_parent_state_at_call_time.
_STATE = {"value": 1}


def _read_state(_item):
    return _STATE["value"]


class TestParallelMap:
    def test_results_in_input_order(self):
        items = [5, 1, 4, 2, 3]
        assert parallel_map(_cube, items, processes=2) == [
            _cube(i) for i in items
        ]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        assert parallel_map(_cube, items, processes=4) == parallel_map(
            _cube, items, processes=1
        )

    def test_empty_items(self):
        assert parallel_map(_cube, [], processes=4) == []

    def test_single_item_runs_serially(self):
        assert parallel_map(_cube, [7], processes=8) == [343]

    def test_unpicklable_worker_falls_back_to_serial(self):
        captured = []

        def closure_worker(value):
            captured.append(value)
            return value + 1

        assert parallel_map(closure_worker, [1, 2, 3]) == [2, 3, 4]
        # Serial fallback ran in this process.
        assert captured == [1, 2, 3]

    def test_chunked_dispatch_preserves_order(self):
        items = list(range(50))
        assert parallel_map(_cube, items, processes=2) == [
            _cube(i) for i in items
        ]

    def test_workers_run_in_other_processes(self):
        pids = parallel_map(_worker_pid, [0, 1], processes=2)
        assert all(pid != os.getpid() for pid in pids)

    @pytest.mark.parametrize(
        "items",
        [[lambda: None, 1], [1, 2, lambda: None, 4]],
        ids=["first-item", "straggler"],
    )
    def test_unpicklable_item_falls_back_to_serial(self, items):
        assert parallel_map(_type_name, items, processes=2) == [
            _type_name(item) for item in items
        ]

    def test_serial_path_never_builds_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("serial path constructed a Pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert parallel_map(_cube, [3], processes=8) == [27]
        assert parallel_map(_cube, [3, 4], processes=1) == [27, 64]

    def test_workers_see_parent_state_at_call_time(self, monkeypatch):
        assert parallel_map(_read_state, [0, 1], processes=2) == [1, 1]
        monkeypatch.setitem(_STATE, "value", 2)
        assert parallel_map(
            _read_state, [0, 1], processes=2
        ) == parallel_map(_read_state, [0, 1], processes=1)

    def test_no_worker_outlives_the_call(self):
        parallel_map(_cube, [1, 2, 3, 4], processes=2)
        assert multiprocessing.active_children() == []

    def test_default_processes_bounds(self):
        assert default_processes(0) == 1
        assert default_processes(1) == 1
        assert default_processes(10_000) >= 1


def _seeded(config, seeds):
    return [replace(config, seed=seed) for seed in seeds]


class TestSweepDeterminism:
    def test_fig2_parallel_matches_serial(self):
        seeds = (0, 1, 2)
        configs = _seeded(SMALL_FIG2, seeds)
        serial = parallel_map(run_figure2, configs, processes=1)
        parallel = parallel_map(run_figure2, configs, processes=3)
        assert [r.config.seed for r in parallel] == list(seeds)
        assert [r.table() for r in serial] == [
            r.table() for r in parallel
        ]
        assert [r.steady_state() for r in serial] == [
            r.steady_state() for r in parallel
        ]

    def test_fig4_parallel_matches_serial(self):
        configs = _seeded(SMALL_FIG4, (0, 1, 2))
        serial = parallel_map(run_figure4, configs, processes=1)
        parallel = parallel_map(run_figure4, configs, processes=3)
        assert [r.table() for r in serial] == [
            r.table() for r in parallel
        ]

    def test_chaos_run_many_parallel_matches_serial(self):
        run = partial(chaos_summary, faults=1)
        serial = parallel_map(run, range(3), processes=1)
        parallel = parallel_map(run, range(3))
        assert serial == parallel
        assert not any(r["violations"] for r in parallel)


# Captured at import: under fork-based pools the children see a
# different os.getpid(), so _fails_only_in_pool distinguishes a
# pool-side failure from the parent's serial retry.
_PARENT_PID = os.getpid()


def _fails_only_in_pool(value):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError(f"pool-only failure on {value}")
    return value * 10


def _fails_everywhere(value):
    if value == 3:
        raise ValueError(f"bad item {value}")
    return value * 10


class TestWorkerRetry:
    def test_pool_failure_retried_serially_and_succeeds(self, caplog):
        items = [1, 2, 3, 4]
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            results = parallel_map(_fails_only_in_pool, items, processes=2)
        assert results == [10, 20, 30, 40]
        # Every item's pool failure was logged with the item itself.
        retried = [
            record for record in caplog.records
            if "retrying serially once" in record.getMessage()
        ]
        assert len(retried) == len(items)
        assert "RuntimeError" in retried[0].getMessage()
        assert "(1)" in retried[0].getMessage()

    def test_persistent_failure_raises_with_item_attached(self):
        with pytest.raises(WorkerItemError) as exc_info:
            parallel_map(_fails_everywhere, [1, 2, 3, 4], processes=2)
        error = exc_info.value
        assert error.item == 3
        assert error.index == 2
        assert "bad item 3" in str(error)
        # Chained to the underlying worker exception.
        assert isinstance(error.__cause__, ValueError)

    def test_serial_path_raises_worker_exception_directly(self):
        # With processes=1 there is no pool to trap in: the worker's
        # own exception propagates, as a plain loop would.
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_fails_everywhere, [3], processes=1)

    def test_successful_items_before_failure_still_computed(self):
        # The failing item aborts the sweep, but only after the pool
        # pass completed — no partial-kill of other workers mid-run.
        with pytest.raises(WorkerItemError):
            parallel_map(_fails_everywhere, [1, 3], processes=2)
