"""Statistics collection.

Time series sampled against the simulation clock, simple counters, and
summary statistics used by the experiment drivers to report the curves
in the paper's figures (utilization over time, G-RIB size over time,
path-length ratios).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


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

    def summary(self) -> "SummaryStats":
        """Summary statistics over the sampled values."""
        return summarize(self._values)

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


class Counter:
    """A named monotonic event counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.count += amount

    def __int__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.count})"


class Gauge:
    """A named instantaneous value (queue depth, table size, leases
    held) — the last write wins, unlike a :class:`Counter`."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta`` (may be negative)."""
        self.value += delta

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value:g})"


class Histogram:
    """A fixed-bucket histogram with deterministic quantile estimates.

    Buckets are defined by a sorted tuple of upper bounds chosen at
    construction; a sample lands in the first bucket whose bound is
    >= the sample, or in the overflow bucket past the last bound.
    Because the bounds are fixed and the per-bucket counts are exact
    integers, two same-seed runs produce identical histograms — and
    :meth:`quantile` reports a bucket *bound*, not an interpolated
    sample, so its output is a deterministic function of the counts.
    """

    DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
        1e-6 * (2.0 ** i) for i in range(32)
    )

    def __init__(
        self,
        name: str = "",
        bounds: Optional[Sequence[float]] = None,
    ):
        chosen = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if list(chosen) != sorted(chosen):
            raise ValueError(f"bucket bounds must be sorted: {chosen}")
        self.name = name
        self.bounds = chosen
        self.counts = [0] * len(chosen)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @classmethod
    def geometric(
        cls,
        name: str = "",
        start: float = 1e-6,
        factor: float = 2.0,
        buckets: int = 32,
    ) -> "Histogram":
        """A histogram with geometrically-spaced bucket bounds
        ``start, start*factor, ...`` — the right shape for durations
        spanning several orders of magnitude."""
        if start <= 0 or factor <= 1 or buckets < 1:
            raise ValueError(
                f"bad geometric spec: start={start} factor={factor} "
                f"buckets={buckets}"
            )
        return cls(name, tuple(start * factor ** i for i in range(buckets)))

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[lo] += 1

    def mean(self) -> float:
        """Mean of all observed samples."""
        if not self.count:
            raise IndexError("empty histogram")
        return self.total / self.count

    def quantile(self, fraction: float) -> float:
        """The bucket upper bound at which the cumulative count first
        reaches ``fraction`` of all samples (overflow reports the max
        observed sample)."""
        if not self.count:
            raise IndexError("empty histogram")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        target = fraction * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= target and cumulative > 0:
                return bound
        return self.maximum

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic export form; empty buckets are elided."""
        record: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
        }
        if self.count:
            record["min"] = self.minimum
            record["max"] = self.maximum
            record["mean"] = self.total / self.count
            record["p50"] = self.quantile(0.50)
            record["p99"] = self.quantile(0.99)
            record["buckets"] = [
                [bound, n]
                for bound, n in zip(self.bounds, self.counts)
                if n
            ]
            if self.overflow:
                record["overflow"] = self.overflow
        return record

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class SummaryStats:
    """min / max / mean / median / stddev of a sample."""

    __slots__ = ("count", "minimum", "maximum", "mean", "median", "stddev")

    def __init__(
        self,
        count: int,
        minimum: float,
        maximum: float,
        mean: float,
        median: float,
        stddev: float,
    ):
        self.count = count
        self.minimum = minimum
        self.maximum = maximum
        self.mean = mean
        self.median = median
        self.stddev = stddev

    def __repr__(self) -> str:
        return (
            f"SummaryStats(n={self.count}, min={self.minimum:.4g}, "
            f"max={self.maximum:.4g}, mean={self.mean:.4g}, "
            f"median={self.median:.4g}, stddev={self.stddev:.4g})"
        )


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute summary statistics. Raises ValueError on an empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("cannot summarize an empty sample")
    count = len(data)
    mean = sum(data) / count
    if count % 2:
        median = data[count // 2]
    else:
        median = (data[count // 2 - 1] + data[count // 2]) / 2
    variance = sum((x - mean) ** 2 for x in data) / count
    return SummaryStats(
        count=count,
        minimum=data[0],
        maximum=data[-1],
        mean=mean,
        median=median,
        stddev=math.sqrt(variance),
    )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile, ``fraction`` in [0, 1]."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    position = fraction * (len(data) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return data[low]
    weight = position - low
    return data[low] * (1 - weight) + data[high] * weight


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """The registry key for a labelled metric: ``name`` alone when
    unlabelled, else ``name{k=v,...}`` with keys sorted — the same
    labels always produce the same key regardless of call order."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class StatRegistry:
    """A bag of named metrics for one simulation run.

    Metrics are created on first use and identified by name plus
    optional labels (``registry.counter("updates_sent", router="A")``),
    so one registry can hold the per-layer, per-entity counters that
    used to live as ad-hoc attributes on protocol objects.
    :meth:`snapshot` / :meth:`to_json` export everything in one
    deterministic, key-sorted structure.
    """

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def series(self, name: str, **labels: Any) -> TimeSeries:
        """The series for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        found = self._series.get(key)
        if found is None:
            found = TimeSeries(key)
            self._series[key] = found
        return found

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = Counter(key)
            self._counters[key] = found
        return found

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = Gauge(key)
            self._gauges[key] = found
        return found

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``name`` (+labels), created on first use
        (``bounds`` only applies at creation)."""
        key = metric_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = Histogram(key, bounds)
            self._histograms[key] = found
        return found

    def all_series(self) -> Dict[str, TimeSeries]:
        """All series by key."""
        return dict(self._series)

    def all_counters(self) -> Dict[str, Counter]:
        """All counters by key."""
        return dict(self._counters)

    def all_gauges(self) -> Dict[str, Gauge]:
        """All gauges by key."""
        return dict(self._gauges)

    def merge_counts(self, counts: Dict[str, int], **labels: Any) -> None:
        """Absorb a ``{name: count}`` mapping (the shape the protocol
        layers expose ad-hoc counters in) as labelled counters."""
        for name in sorted(counts):
            self.counter(name, **labels).increment(counts[name])

    def snapshot(self) -> Dict[str, Any]:
        """Everything in the registry as one deterministic structure:
        keys sorted, series reduced to count/last/min/max/mean."""
        series_out: Dict[str, Any] = {}
        for key in sorted(self._series):
            ts = self._series[key]
            entry: Dict[str, Any] = {"count": len(ts)}
            if len(ts):
                time, value = ts.last()
                entry["last_time"] = time
                entry["last_value"] = value
                entry["min"] = min(ts.values)
                entry["max"] = ts.max()
                entry["mean"] = ts.mean()
            series_out[key] = entry
        return {
            "counters": {
                key: self._counters[key].count
                for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key].value
                for key in sorted(self._gauges)
            },
            "histograms": {
                key: self._histograms[key].to_dict()
                for key in sorted(self._histograms)
            },
            "series": series_out,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`snapshot` as canonical (key-sorted) JSON."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)
