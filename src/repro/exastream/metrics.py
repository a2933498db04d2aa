"""Execution metrics: throughput, latency and per-query counters.

The demo's performance scenario (S2) monitors "the throughput and
progress of parallel query execution"; these counters are what the
dashboards and benchmarks read.

Since the observability layer landed, every class here is a *view*
over a :class:`repro.obs.MetricRegistry`: attribute reads and writes
(``metrics.tuples_in += n``) go straight to bound registry
instruments, so the same numbers come out of ``engine.metrics`` and
out of registry snapshots / Prometheus exports without double
bookkeeping.  A view constructed without a registry gets a private
one — standalone ``QueryMetrics()`` in tests behaves exactly as the
old dataclass did.

Wall-clock counters register with ``mode="max"``: per-shard wall
times measure the *same* elapsed interval, so merging across shards
takes the maximum (true elapsed time), never the sum — summing
overstated elapsed time N-fold and deflated ``throughput`` under
sharding.
"""

from __future__ import annotations

import time

from ..obs.registry import CounterField, MetricRegistry, bind_counters

__all__ = ["QueryMetrics", "EngineMetrics", "BusMetrics", "Stopwatch"]


class Stopwatch:
    """A tiny perf_counter wrapper used by the engine's hot loops."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start


class QueryMetrics:
    """Counters for one registered continuous query.

    Field → registry series (all labelled ``query=<name>``):
    ``windows_processed`` → ``query_windows_total``, ``tuples_in`` →
    ``query_tuples_in_total``, and so on per ``_SERIES`` below.
    """

    #: attribute name -> (registry series name, counter merge mode).
    #: Merge folds *shards*: window counters (every shard executes the
    #: same window ids) and wall clocks (overlapping intervals) take the
    #: max, per-shard work items (tuples, panes, MQO hits) sum.
    _SERIES = {
        "windows_processed": ("query_windows_total", "max"),
        "tuples_in": ("query_tuples_in_total", "sum"),
        "tuples_out": ("query_tuples_out_total", "sum"),
        "wall_seconds": ("query_wall_seconds", "max"),
        "windows_incremental": ("query_windows_incremental_total", "max"),
        "windows_pane_join": ("query_windows_pane_join_total", "max"),
        "panes_built": ("query_panes_built_total", "sum"),
        "pane_pairs_built": ("query_pane_pairs_built_total", "sum"),
        "mqo_partial_hits": ("query_mqo_partial_hits_total", "sum"),
        "mqo_relation_hits": ("query_mqo_relation_hits_total", "sum"),
    }

    windows_processed = CounterField()
    tuples_in = CounterField()
    tuples_out = CounterField()
    #: total wall-clock spent executing this query's windows (merge: max)
    wall_seconds = CounterField()
    #: windows answered by combining cached pane partials (no recompute)
    windows_incremental = CounterField()
    #: subset of ``windows_incremental`` assembled from symmetric-hash
    #: pane-pair join partials (two-stream PANE_JOIN plans)
    windows_pane_join = CounterField()
    #: pane pipelines executed (each pane is evaluated at most once)
    panes_built = CounterField()
    #: pane-pair join partials computed (each live pane pair at most once)
    pane_pairs_built = CounterField()
    #: pane/edge partial states served by another query's shared pipeline
    mqo_partial_hits = CounterField()
    #: joined pane/window relations served by another query's pipeline
    mqo_relation_hits = CounterField()

    def __init__(self, query_name: str = "",
                 registry: MetricRegistry | None = None) -> None:
        self.query_name = query_name
        bind_counters(self, registry, query=query_name)

    @property
    def throughput(self) -> float:
        """Input tuples per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.tuples_in / self.wall_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(
            f"{attr}={getattr(self, attr)}" for attr in self._SERIES
        )
        return f"QueryMetrics({self.query_name!r}, {counts})"


class BusMetrics:
    """Counters for one gateway's event-bus fan-out."""

    _SERIES = {
        "results_published": ("bus_results_published_total", "sum"),
        "fanout_deliveries": ("bus_fanout_deliveries_total", "sum"),
        "results_dropped": ("bus_results_dropped_total", "sum"),
        "peak_subscribers": ("bus_peak_subscribers", "max"),
        "backpressure_deferrals": ("bus_backpressure_deferrals_total",
                                   "sum"),
    }

    #: window results published to a live topic (once per result, not
    #: per subscriber — queries with no subscribers publish nothing)
    results_published = CounterField()
    #: result deliveries into subscriber queues (published × fan-out)
    fanout_deliveries = CounterField()
    #: results evicted from ``drop_oldest`` subscriber queues
    results_dropped = CounterField()
    #: high-water mark of concurrent subscriptions across all topics
    peak_subscribers = CounterField()
    #: window executions deferred because a ``block``-policy
    #: subscriber's queue was full (the push-side back-pressure signal)
    backpressure_deferrals = CounterField()

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        bind_counters(self, registry)

    @property
    def fanout(self) -> float:
        """Mean deliveries per published result."""
        if not self.results_published:
            return 0.0
        return self.fanout_deliveries / self.results_published


class EngineMetrics:
    """Aggregated counters for one engine run."""

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.per_query: dict[str, QueryMetrics] = {}
        self._wall = self.registry.counter("engine_wall_seconds", mode="max")

    @property
    def wall_seconds(self) -> float:
        return self._wall.value

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self._wall.value = value

    def query(self, name: str) -> QueryMetrics:
        metrics = self.per_query.get(name)
        if metrics is None:
            metrics = QueryMetrics(query_name=name, registry=self.registry)
            self.per_query[name] = metrics
        return metrics

    @property
    def total_tuples_in(self) -> int:
        return sum(m.tuples_in for m in self.per_query.values())

    @property
    def throughput(self) -> float:
        """Total input tuples per second of engine wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_tuples_in / self.wall_seconds
