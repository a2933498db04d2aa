"""Metric registry: counters, gauges and fixed-bucket histograms.

The registry is the single store behind every counter the engine
exposes — ``QueryMetrics``/``BusMetrics`` in
:mod:`repro.exastream.metrics` are views over instruments created
here.  Three properties shape the design:

* **Hot-path writes are attribute arithmetic.**  An instrument is a
  tiny mutable object (``Counter.value += n`` under the hood); callers
  bind instruments once at registration time and increment bound
  references, never paying a name/label lookup per window.
* **Snapshots are plain picklable data.**  :meth:`MetricRegistry.snapshot`
  materializes every instrument into a :class:`RegistrySnapshot` of
  primitive tuples/dicts that crosses fork-worker pipes unchanged.
* **Merge semantics are declared per instrument.**  Counters sum,
  gauges take the max, histograms sum their buckets — except wall-clock
  counters (``mode="max"``), whose per-shard values overlap in time and
  merge as the true elapsed maximum (see ``QueryMetrics.merge``).
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RegistrySnapshot",
    "CounterField",
    "bind_counters",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Upper bounds (seconds) for latency-shaped histograms: 100µs .. ~100s
#: in roughly powers of ~3, a good spread for per-window pipeline work.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

_SUM = "sum"
_MAX = "max"


class Counter:
    """A monotonically growing count (or accumulated float total).

    ``mode`` declares how two shards' values combine: ``"sum"`` for
    true counts, ``"max"`` for wall-clock totals whose per-shard values
    measure the *same* elapsed interval.
    """

    __slots__ = ("name", "labels", "mode", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple, mode: str = _SUM) -> None:
        if mode not in (_SUM, _MAX):
            raise ValueError(f"unknown counter merge mode {mode!r}")
        self.name = name
        self.labels = labels
        self.mode = mode
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def sample(self) -> tuple:
        return (self.kind, self.mode, self.value)


class Gauge:
    """A point-in-time level (queue depth, load, watermark).

    Merging takes the max — the only order-free combination that never
    understates a high-water mark across shards.
    """

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> tuple:
        return (self.kind, _MAX, self.value)


class Histogram:
    """A fixed-bucket histogram with O(log buckets) observes.

    ``bounds`` are inclusive upper bounds; one implicit +Inf bucket
    catches the tail.  Alongside the bucket counts it tracks count,
    sum, min and max, so percentile estimates and exact means both come
    out of one snapshot.  Two histograms over the same bounds merge by
    summing buckets — shard-safe by construction.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple,
                 bounds: tuple[float, ...]) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile: the upper bound of the bucket holding
        the q-th observation (the tail bucket reports the true max)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def sample(self) -> tuple:
        return (self.kind, _SUM, (self.bounds, tuple(self.counts),
                                  self.count, self.sum, self.min, self.max))


class RegistrySnapshot:
    """Picklable point-in-time copy of a registry, with merge rules.

    ``series`` maps ``(name, labels)`` — labels a sorted tuple of
    ``(key, value)`` string pairs — to a ``(kind, mode, data)`` sample
    tuple.  Everything is primitive, so snapshots survive pickling
    across fork-worker pipes byte-identically.
    """

    def __init__(self, series: dict | None = None) -> None:
        self.series: dict = dict(series or {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, RegistrySnapshot)
                and self.series == other.series)

    def __len__(self) -> int:
        return len(self.series)

    def value(self, name: str, **labels) -> float | None:
        """Counter/gauge value for one series, ``None`` if absent."""
        sample = self.series.get((name, _label_key(labels)))
        if sample is None or sample[0] == "histogram":
            return None
        return sample[2]

    def histogram(self, name: str, **labels) -> Histogram | None:
        """Rehydrate one histogram series (for quantile queries)."""
        sample = self.series.get((name, _label_key(labels)))
        if sample is None or sample[0] != "histogram":
            return None
        return _histogram_from_sample(name, _label_key(labels), sample)

    def total(self, name: str) -> float:
        """Sum of every counter/gauge series sharing ``name``."""
        return sum(
            sample[2] for (series_name, _), sample in self.series.items()
            if series_name == name and sample[0] != "histogram"
        )

    def labels_for(self, name: str) -> list[tuple]:
        return sorted(
            labels for (series_name, labels) in self.series
            if series_name == name
        )

    def merge(self, other: RegistrySnapshot) -> RegistrySnapshot:
        """Combine two snapshots per each series' declared mode."""
        merged = dict(self.series)
        for key, sample in other.series.items():
            mine = merged.get(key)
            merged[key] = sample if mine is None else _merge_sample(
                key, mine, sample
            )
        return RegistrySnapshot(merged)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _merge_sample(key: tuple, a: tuple, b: tuple) -> tuple:
    kind_a, mode_a, data_a = a
    kind_b, mode_b, data_b = b
    if kind_a != kind_b or mode_a != mode_b:
        raise ValueError(f"conflicting series {key!r}: {a[:2]} vs {b[:2]}")
    if kind_a != "histogram":
        if mode_a == _MAX:
            return (kind_a, mode_a, max(data_a, data_b))
        return (kind_a, mode_a, data_a + data_b)
    bounds_a, counts_a, count_a, sum_a, min_a, max_a = data_a
    bounds_b, counts_b, count_b, sum_b, min_b, max_b = data_b
    if bounds_a != bounds_b:
        raise ValueError(f"histogram {key!r} bucket bounds differ")
    counts = tuple(x + y for x, y in zip(counts_a, counts_b))
    return (kind_a, mode_a, (bounds_a, counts, count_a + count_b,
                             sum_a + sum_b, min(min_a, min_b),
                             max(max_a, max_b)))


def _histogram_from_sample(name: str, labels: tuple,
                           sample: tuple) -> Histogram:
    bounds, counts, count, total, low, high = sample[2]
    histogram = Histogram(name, labels, bounds)
    histogram.counts = list(counts)
    histogram.count = count
    histogram.sum = total
    histogram.min = low
    histogram.max = high
    return histogram


class MetricRegistry:
    """Get-or-create instrument store with snapshot/merge semantics.

    One registry per engine; an engine of several nodes gives each node
    its own registry and merges their snapshots (fork workers ship a
    pickled snapshot back over the worker pipe).
    """

    def __init__(self) -> None:
        self._instruments: dict = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def counter(self, name: str, mode: str = _SUM, **labels) -> Counter:
        return self._get(Counter, name, labels, mode)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels, tuple(bounds))

    def _get(self, factory, name: str, labels: dict, *args):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[1], *args)
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def instruments(self) -> list:
        return list(self._instruments.values())

    def snapshot(self) -> RegistrySnapshot:
        return RegistrySnapshot({
            key: instrument.sample()
            for key, instrument in sorted(self._instruments.items())
        })


class CounterField:
    """Attribute-style access to one counter of a view class bound with
    :func:`bind_counters`: ``view.tuples_in += n`` reads and writes the
    registry instrument."""

    __slots__ = ("key",)

    def __set_name__(self, owner, name: str) -> None:
        self.key = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._bound[self.key].value

    def __set__(self, obj, value) -> None:
        obj._bound[self.key].value = value


def bind_counters(view, registry: MetricRegistry | None, **labels) -> None:
    """Bind ``view``'s ``_SERIES`` table — attribute name -> ``(series
    name, merge mode)`` — to counters of ``registry`` carrying
    ``labels``.  Without a registry the view gets a private one, so a
    standalone view behaves like a plain record of numbers."""
    view.registry = registry if registry is not None else MetricRegistry()
    view._bound = {
        attr: view.registry.counter(series, mode=mode, **labels)
        for attr, (series, mode) in view._SERIES.items()
    }
