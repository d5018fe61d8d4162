"""Time series sampled against the simulation clock: the curves in
the paper's figures (utilization and G-RIB size over time)."""

from __future__ import annotations

from typing import List, Sequence, Tuple


class TimeSeries:
    """An append-only (time, value) series."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample. Times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time went backwards: {time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> Sequence[float]:
        """Sample times."""
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        """Sample values."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    def last(self) -> Tuple[float, float]:
        """The most recent (time, value) sample."""
        if not self._times:
            raise IndexError("empty time series")
        return self._times[-1], self._values[-1]

    def decimate(self, keep_every: int = 2) -> None:
        """Drop all but every ``keep_every``-th sample (first kept).

        Deterministic downsampling for bounded-memory recorders: the
        surviving samples depend only on sample indexes, never on wall
        time, so two same-seed runs decimate identically.
        """
        if keep_every < 2:
            raise ValueError(f"keep_every must be >= 2: {keep_every}")
        self._times = self._times[::keep_every]
        self._values = self._values[::keep_every]

    def value_at(self, time: float) -> float:
        """Step-function lookup: the last recorded value at or before
        ``time``."""
        if not self._times or time < self._times[0]:
            raise ValueError(f"no sample at or before t={time}")
        lo, hi = 0, len(self._times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._times[mid] <= time:
                lo = mid
            else:
                hi = mid - 1
        return self._values[lo]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with start <= time <= end."""
        clipped = TimeSeries(self.name)
        for time, value in self:
            if start <= time <= end:
                clipped.record(time, value)
        return clipped

    def max(self) -> float:
        """Maximum sampled value."""
        if not self._values:
            raise IndexError("empty time series")
        return max(self._values)

    def mean(self) -> float:
        """Mean of sampled values (unweighted by time)."""
        if not self._values:
            raise IndexError("empty time series")
        return sum(self._values) / len(self._values)
