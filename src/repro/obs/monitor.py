"""Live monitoring surface: per-query tables over snapshots and traces.

Two inputs, one rendering idiom (fixed-width text tables, like the
Siemens dashboard):

* a :class:`~repro.obs.registry.RegistrySnapshot` — the registry view,
  rendered by :func:`render_query_table` (throughput, latency
  percentiles, MQO hits, backpressure);
* a list of :class:`~repro.obs.tracing.Span` — the trace view,
  summarized by :func:`trace_summary` / :func:`render_trace_report`
  (where did each query's pulse time go, by span name).

:class:`Monitor` binds the registry view to a live source — anything
with a ``metrics_snapshot()`` (a ``GatewayServer``, a ``Session``, an
``OptiquePlatform``) — so dashboards re-render per step without
touching engine internals.
"""

from __future__ import annotations

__all__ = [
    "Monitor",
    "MetricsReport",
    "render_query_table",
    "trace_summary",
    "render_trace_report",
]

_QUERY_COUNTERS = {
    "windows": "query_windows_total",
    "tuples_in": "query_tuples_in_total",
    "tuples_out": "query_tuples_out_total",
    "wall_seconds": "query_wall_seconds",
    "incremental": "query_windows_incremental_total",
    "pane_join": "query_windows_pane_join_total",
    "panes_built": "query_panes_built_total",
    "mqo_partial_hits": "query_mqo_partial_hits_total",
    "mqo_relation_hits": "query_mqo_relation_hits_total",
}


def _query_names(snapshot) -> list[str]:
    names = set()
    for (series, labels) in snapshot.series:
        if series.startswith("query_"):
            names.update(v for k, v in labels if k == "query")
    return sorted(names)


def query_stats(snapshot, name: str) -> dict:
    """One query's registry series, flattened into a plain dict."""
    stats = {
        key: snapshot.value(series, query=name) or 0
        for key, series in _QUERY_COUNTERS.items()
    }
    stats["query"] = name
    stats["throughput"] = (
        stats["tuples_in"] / stats["wall_seconds"]
        if stats["wall_seconds"] > 0 else 0.0
    )
    stats["mqo_hits"] = (
        stats["mqo_partial_hits"] + stats["mqo_relation_hits"]
    )
    latency = snapshot.histogram("window_latency_seconds", query=name)
    stats["p50_seconds"] = latency.quantile(0.5) if latency else 0.0
    stats["p95_seconds"] = latency.quantile(0.95) if latency else 0.0
    return stats


def render_query_table(snapshot) -> str:
    """The per-query progress table (S2's monitoring view)."""
    header = (
        f"{'task':<24} {'windows':>8} {'tuples in':>10} {'out':>7} "
        f"{'tup/s':>9} {'p50 ms':>7} {'p95 ms':>7} {'mqo':>5}"
    )
    lines = [header, "-" * len(header)]
    for name in _query_names(snapshot):
        stats = query_stats(snapshot, name)
        lines.append(
            f"{name:<24} {int(stats['windows']):>8} "
            f"{int(stats['tuples_in']):>10} {int(stats['tuples_out']):>7} "
            f"{stats['throughput']:>9.0f} "
            f"{stats['p50_seconds'] * 1000:>7.2f} "
            f"{stats['p95_seconds'] * 1000:>7.2f} "
            f"{int(stats['mqo_hits']):>5}"
        )
    lines.append("-" * len(header))
    published = snapshot.total("bus_results_published_total")
    deliveries = snapshot.total("bus_fanout_deliveries_total")
    dropped = snapshot.total("bus_results_dropped_total")
    deferrals = snapshot.total("bus_backpressure_deferrals_total")
    lines.append(
        f"bus: published={int(published)} deliveries={int(deliveries)} "
        f"dropped={int(dropped)} backpressure_deferrals={int(deferrals)}"
    )
    lines.append(
        "statics: materialised="
        f"{int(snapshot.total('static_relations_materialised_total'))} "
        f"shared={int(snapshot.total('static_relations_shared_total'))} "
        f"rows_held={int(snapshot.total('static_relation_rows'))}"
    )
    return "\n".join(lines)


class MetricsReport:
    """What ``Session.metrics()`` returns: a snapshot plus the tables."""

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot

    @property
    def queries(self) -> list[str]:
        return _query_names(self.snapshot)

    def query(self, name: str) -> dict:
        return query_stats(self.snapshot, name)

    def render(self) -> str:
        return render_query_table(self.snapshot)

    def to_prometheus(self) -> str:
        from .export import to_prometheus
        return to_prometheus(self.snapshot)


class Monitor:
    """Re-renderable registry view over a live metrics source."""

    def __init__(self, source) -> None:
        if not hasattr(source, "metrics_snapshot"):
            raise TypeError(
                "Monitor source must expose metrics_snapshot() "
                f"(got {type(source).__name__})"
            )
        self.source = source

    def report(self) -> MetricsReport:
        return MetricsReport(self.source.metrics_snapshot())

    def render(self) -> str:
        return self.report().render()


# -- trace-side summaries ----------------------------------------------------


def _percentile(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def trace_summary(spans) -> dict:
    """Per-query pulse statistics plus a time breakdown by span name.

    Returns ``{query: {"pulses", "p50_seconds", "p95_seconds",
    "total_seconds", "by_span": {name: seconds}}}``.
    """
    summary: dict = {}
    for span in spans:
        if span.query is None or span.end is None:
            continue
        entry = summary.setdefault(span.query, {
            "pulses": 0, "total_seconds": 0.0,
            "_pulse_durations": [], "by_span": {},
        })
        by_span = entry["by_span"]
        by_span[span.name] = by_span.get(span.name, 0.0) + span.duration
        if span.parent_id is None:
            entry["pulses"] += 1
            entry["total_seconds"] += span.duration
            entry["_pulse_durations"].append(span.duration)
    for entry in summary.values():
        durations = entry.pop("_pulse_durations")
        entry["p50_seconds"] = _percentile(durations, 0.5)
        entry["p95_seconds"] = _percentile(durations, 0.95)
    return summary


def render_trace_report(spans) -> str:
    """Text report over a span list (the ``repro.obs`` CLI's view)."""
    summary = trace_summary(spans)
    header = (
        f"{'task':<24} {'pulses':>7} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'total s':>8}  hot spans"
    )
    lines = [header, "-" * len(header)]
    for query in sorted(summary):
        entry = summary[query]
        hot = sorted(
            ((name, seconds) for name, seconds in entry["by_span"].items()
             if name != "pulse"),
            key=lambda pair: -pair[1],
        )[:3]
        hot_text = " ".join(
            f"{name}={seconds * 1000:.1f}ms" for name, seconds in hot
        )
        lines.append(
            f"{query:<24} {entry['pulses']:>7} "
            f"{entry['p50_seconds'] * 1000:>8.2f} "
            f"{entry['p95_seconds'] * 1000:>8.2f} "
            f"{entry['total_seconds']:>8.3f}  {hot_text}"
        )
    lines.append("-" * len(header))
    lines.append(f"spans: {len(spans)}")
    return "\n".join(lines)
