"""Tests for the event-loop profiler."""

import pytest

from repro.sim.engine import Simulator
from repro.trace.profiler import CallbackStats, EventLoopProfiler
from repro.trace.profiler import event_label


def _named(name):
    def callback():
        pass

    callback.__qualname__ = name
    return callback


class TestEventLabel:
    def test_explicit_name_wins(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, lambda: None, name="tick")
        sim.run()
        profiler.detach()
        assert set(profiler.callbacks) == {"tick"}

    def test_qualname_fallback(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, _named("Claim._announce"))
        sim.run()
        profiler.detach()
        assert set(profiler.callbacks) == {"Claim._announce"}


class TestProfiling:
    def test_counts_every_event(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        for t in range(5):
            sim.schedule(float(t + 1), _named("work"))
        sim.run()
        profiler.detach()
        assert profiler.events == 5
        assert profiler.callbacks["work"].count == 5
        assert profiler.callbacks["work"].total_seconds >= 0.0

    def test_queue_depth_tracked_on_sim_time(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, _named("work"))
        sim.run()
        profiler.detach()
        assert profiler.max_queue_depth == 2
        assert list(profiler.queue_depth.times) == [1.0, 2.0, 3.0]
        assert list(profiler.queue_depth.values) == [2.0, 1.0, 0.0]

    def test_detach_stops_recording(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, _named("work"))
        sim.run()
        profiler.detach()
        sim.schedule(2.0, _named("work"))
        sim.run()
        assert profiler.events == 1

    def test_summary_shape(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, _named("work"))
        sim.run()
        profiler.detach()
        summary = profiler.summary()
        assert summary["events"] == 1
        assert summary["wall_seconds"] > 0.0
        assert summary["events_per_second"] > 0.0
        stats = summary["callbacks"]["work"]
        assert stats["count"] == 1
        assert stats["p50_s"] >= 0.0
        assert stats["p99_s"] >= stats["p50_s"]

    def test_deterministic_snapshot_has_no_wall_time(self):
        sim = Simulator()
        profiler = EventLoopProfiler().attach(sim)
        sim.schedule(1.0, _named("work"))
        sim.run()
        profiler.detach()
        snapshot = profiler.deterministic_snapshot()
        assert snapshot == {
            "events": 1,
            "max_queue_depth": 0,
            "callback_counts": {"work": 1},
            "final_queue_depth": 0.0,
            "mean_queue_depth": 0.0,
        }

    def test_deterministic_snapshot_identical_across_runs(self):
        def run():
            sim = Simulator()
            profiler = EventLoopProfiler().attach(sim)

            def fanout():
                sim.schedule(1.0, _named("leaf"))
                sim.schedule(2.0, _named("leaf"))

            sim.schedule(1.0, fanout, name="fanout")
            sim.run()
            profiler.detach()
            return profiler.deterministic_snapshot()

        assert run() == run()


class TestCallbackQuantile:
    """A quantile is a bucket bound, so it depends on the bucket counts
    alone; past the last bound it is the longest sample."""

    BOUNDS = CallbackStats.BOUNDS

    def stats(self, *samples):
        stats = CallbackStats("work")
        for seconds in samples:
            stats.record(seconds)
        return stats

    def test_bounds_are_geometric(self):
        assert len(self.BOUNDS) == 32
        assert self.BOUNDS[:3] == (1e-7, 2e-7, 4e-7)
        assert list(self.BOUNDS) == sorted(self.BOUNDS)

    def test_record_fills_buckets(self):
        stats = self.stats(0.5e-7, 1e-7, 3e-7, 1000.0)
        assert stats.count == 4
        assert stats.buckets[0] == 2  # a sample on a bound is in it
        assert stats.buckets[2] == 1
        assert stats.buckets[-1] == 1  # overflow
        assert stats.longest == 1000.0

    def test_quantile_returns_bucket_bound(self):
        stats = self.stats(0.5e-7, 1.5e-7, 3e-7, 6e-7)
        assert stats.quantile(0.25) == self.BOUNDS[0]
        assert stats.quantile(0.5) == self.BOUNDS[1]
        assert stats.quantile(1.0) == self.BOUNDS[3]

    def test_quantile_zero_fraction(self):
        assert self.stats(1.5e-7).quantile(0.0) == self.BOUNDS[1]

    def test_quantile_all_overflow_returns_longest(self):
        assert self.stats(1000.0).quantile(0.5) == 1000.0
        assert self.stats(3000.0, 1000.0).quantile(0.5) == 3000.0

    def test_quantile_past_last_bound_returns_longest(self):
        stats = self.stats(1e-7, 500.0, 600.0)
        assert self.BOUNDS[-1] < 500.0
        assert stats.quantile(0.3) == self.BOUNDS[0]
        assert stats.quantile(0.99) == 600.0

    def test_quantile_empty_raises(self):
        with pytest.raises(IndexError):
            CallbackStats("idle").quantile(0.5)

    def test_quantile_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            self.stats(0.5e-7).quantile(1.5)

    def test_summary_quantiles_come_from_the_buckets(self):
        record = self.stats(0.5e-7, 1.5e-7, 3e-7, 6e-7).to_dict()
        assert record["p50_s"] == self.BOUNDS[1]
        assert record["p99_s"] == self.BOUNDS[3]
