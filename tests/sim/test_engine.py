"""Tests for the discrete-event simulator."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(5.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, True)
        sim.run()
        assert fired == [True]
        assert sim.now == 12.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_processed_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed == 1

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_pending_zero_when_all_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        for event in events:
            event.cancel()
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0


class TestRunBounds:
    def test_until_stops_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_event_at_until_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.run() == 3
        assert sim.run() == 0

    def test_run_count_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.run() == 1

    def test_max_events_exit_still_advances_to_until(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        executed = sim.run(until=10.0, max_events=2)
        assert executed == 2
        assert fired == [0, 1]
        assert sim.now == 10.0
        # Leftover events still fire on the next run, without the
        # clock moving backwards.
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 10.0

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "cancelled").cancel()
        sim.schedule(1.0, fired.append, "a")
        assert sim.run(max_events=1) == 1
        assert fired == ["a"]
        assert sim.run(max_events=1) == 0

    def test_clear(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.clear()
        sim.run()
        assert fired == []
        assert sim.pending == 0


class TestObservers:
    def test_observer_sees_every_executed_event(self):
        sim = Simulator()
        seen = []
        sim.add_observer(lambda event: seen.append(event.time))
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_observer_runs_after_the_callback(self):
        sim = Simulator()
        order = []
        sim.add_observer(lambda event: order.append("observer"))
        sim.schedule(1.0, lambda: order.append("callback"))
        sim.run()
        assert order == ["callback", "observer"]

    def test_observer_skips_cancelled_events(self):
        sim = Simulator()
        seen = []
        sim.add_observer(lambda event: seen.append(event.time))
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [2.0]

    def test_observer_fires_on_step(self):
        sim = Simulator()
        seen = []
        sim.add_observer(seen.append)
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        assert len(seen) == 1

    def test_remove_observer(self):
        sim = Simulator()
        seen = []
        observer = lambda event: seen.append(event.time)  # noqa: E731
        sim.add_observer(observer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.remove_observer(observer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [1.0]
        sim.remove_observer(observer)  # no-op when absent

    def test_duplicate_registration_fires_once(self):
        sim = Simulator()
        seen = []
        observer = lambda event: seen.append(event.time)  # noqa: E731
        sim.add_observer(observer)
        sim.add_observer(observer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [1.0]

    def test_observer_removing_itself_mid_notification(self):
        # The snapshot iterated by _notify is only refreshed when the
        # observer list mutates, so an observer unregistering itself
        # (or a sibling) mid-notification sees a stable iteration:
        # every observer registered at event time still fires once.
        sim = Simulator()
        seen = []

        def one_shot(event):
            seen.append("one-shot")
            sim.remove_observer(one_shot)

        sim.add_observer(one_shot)
        sim.add_observer(lambda event: seen.append("steady"))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == ["one-shot", "steady", "steady"]

    def test_observer_added_mid_notification_waits_one_event(self):
        sim = Simulator()
        seen = []
        late = lambda event: seen.append("late")  # noqa: E731

        def recruiter(event):
            seen.append("recruiter")
            sim.add_observer(late)

        sim.add_observer(recruiter)
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        assert seen == ["recruiter"]
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        assert seen == ["recruiter", "recruiter", "late"]

    def test_observer_exception_aborts_the_run(self):
        sim = Simulator()

        def tripwire(event):
            raise RuntimeError("invariant broken")

        sim.add_observer(tripwire)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_observers_fire_in_registration_order(self):
        sim = Simulator()
        order = []
        sim.add_observer(lambda event: order.append("first"))
        sim.add_observer(lambda event: order.append("second"))
        sim.add_observer(lambda event: order.append("third"))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_removing_one_observer_keeps_the_others(self):
        sim = Simulator()
        seen = []
        keep = lambda event: seen.append("keep")  # noqa: E731
        drop = lambda event: seen.append("drop")  # noqa: E731
        sim.add_observer(keep)
        sim.add_observer(drop)
        sim.remove_observer(drop)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == ["keep"]

    def test_reregistration_after_removal_fires_again(self):
        sim = Simulator()
        seen = []
        observer = lambda event: seen.append(event.time)  # noqa: E731
        sim.add_observer(observer)
        sim.remove_observer(observer)
        sim.add_observer(observer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [1.0]


class TestProfilerHook:
    class _Recorder:
        def __init__(self):
            self.begun = 0
            self.records = []

        def begin(self):
            self.begun += 1
            return 123.0

        def record(self, event, token, queue_depth):
            self.records.append((event.time, token, queue_depth))

    def test_profiler_brackets_every_event(self):
        sim = Simulator()
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert profiler.begun == 2
        assert [r[0] for r in profiler.records] == [1.0, 2.0]
        assert all(r[1] == 123.0 for r in profiler.records)

    def test_profiler_sees_queue_depth_after_pop(self):
        sim = Simulator()
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert [r[2] for r in profiler.records] == [2, 1, 0]

    def test_profiler_detached_by_none(self):
        sim = Simulator()
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.set_profiler(None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert profiler.begun == 1

    def test_profiler_runs_before_observers(self):
        sim = Simulator()
        order = []

        class Probe:
            def begin(self):
                return 0.0

            def record(self, event, token, queue_depth):
                order.append("profiler")

        sim.set_profiler(Probe())
        sim.add_observer(lambda event: order.append("observer"))
        sim.schedule(1.0, lambda: order.append("callback"))
        sim.run()
        assert order == ["callback", "profiler", "observer"]

    def test_profiler_skips_cancelled_events(self):
        sim = Simulator()
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        sim.run()
        assert [r[0] for r in profiler.records] == [2.0]
