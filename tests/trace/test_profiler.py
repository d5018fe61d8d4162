"""Tests for the event-loop profiler."""

from repro.sim.engine import Simulator
from repro.trace.profiler import EventLoopProfiler
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
