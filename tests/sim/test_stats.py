"""Tests for time series and seeded random streams."""

import pytest

from repro.sim.stats import TimeSeries


class TestTimeSeries:
    def test_record_and_iterate(self):
        series = TimeSeries("util")
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(series) == 2

    def test_rejects_backwards_time(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        series.record(5.0, 2.0)
        assert len(series) == 2

    def test_last(self):
        series = TimeSeries()
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.last() == (2.0, 20.0)

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()

    def test_value_at_step_semantics(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        assert series.value_at(0.0) == 1.0
        assert series.value_at(9.9) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(50.0) == 2.0

    def test_value_at_before_first_raises(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(4.0)

    def test_window(self):
        series = TimeSeries("x")
        for t in range(10):
            series.record(float(t), float(t))
        clipped = series.window(3.0, 6.0)
        assert list(clipped.times) == [3.0, 4.0, 5.0, 6.0]

    def test_mean_and_max(self):
        series = TimeSeries()
        for value in (1.0, 3.0, 5.0):
            series.record(0.0 if not len(series) else series.times[-1] + 1,
                          value)
        assert series.mean() == 3.0
        assert series.max() == 5.0


class TestRandomStreams:
    def test_deterministic_per_seed(self):
        from repro.sim.randomness import RandomStreams

        a = RandomStreams(42).stream("demand").random()
        b = RandomStreams(42).stream("demand").random()
        assert a == b

    def test_streams_independent(self):
        from repro.sim.randomness import RandomStreams

        streams = RandomStreams(42)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_same_stream_returned(self):
        from repro.sim.randomness import RandomStreams

        streams = RandomStreams(1)
        assert streams.stream("x") is streams["x"]

    def test_fork_differs(self):
        from repro.sim.randomness import RandomStreams

        streams = RandomStreams(42)
        forked = streams.fork("child")
        assert (
            forked.stream("demand").random()
            != RandomStreams(42).stream("demand").random()
        )


class TestTimeSeriesEmptyAggregates:
    # max()/mean() must fail like last(): a consistent, messaged
    # IndexError instead of whatever the underlying builtin raises.
    def test_max_empty_raises_index_error(self):
        with pytest.raises(IndexError, match="empty time series"):
            TimeSeries().max()

    def test_mean_empty_raises_index_error(self):
        with pytest.raises(IndexError, match="empty time series"):
            TimeSeries().mean()

    def test_window_of_empty_range_aggregates_raise(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        clipped = series.window(5.0, 6.0)
        with pytest.raises(IndexError):
            clipped.max()
        with pytest.raises(IndexError):
            clipped.mean()


class TestValueAtExactTimes:
    def test_exact_hit_on_every_recorded_time(self):
        series = TimeSeries()
        points = [(0.0, 1.0), (2.5, 2.0), (7.25, 3.0)]
        for t, v in points:
            series.record(t, v)
        for t, v in points:
            assert series.value_at(t) == v

    def test_exact_hit_with_duplicate_times_returns_latest(self):
        series = TimeSeries()
        series.record(1.0, 10.0)
        series.record(1.0, 20.0)
        assert series.value_at(1.0) == 20.0
