"""End-to-end observability: metric registry, tracing, monitoring.

The package answers S2's monitoring question — "the throughput and
progress of parallel query execution" — with three pieces:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms with picklable snapshot/merge semantics (shard- and
  fork-worker-safe).  ``QueryMetrics``/``BusMetrics`` in
  :mod:`repro.exastream.metrics` are views over this registry.
* :mod:`repro.obs.tracing` — per-pulse span trees, off by default,
  exported as JSONL; :mod:`repro.obs.export` renders registry
  snapshots in Prometheus text format.
* :mod:`repro.obs.monitor` — per-query throughput / latency-percentile
  / MQO-hit / backpressure tables over a live gateway or a trace file;
  ``python -m repro.obs`` is the CLI.

:class:`Observability` bundles one registry + one tracer and is what
the engine components carry; ``Observability(enabled=False)`` turns
off the detailed recording (histograms, per-operator stats) for
overhead baselines, while the core ``QueryMetrics`` counters stay on.

The per-operator rows-in/rows-out counters recorded here
(``operator_rows_in_total``/``operator_rows_out_total`` labelled by
query and operator) are the substrate for the ROADMAP's cost-based
planner: observed selectivity and output cardinality per plan stage,
ready for a cardinality estimator to consume.
"""

from __future__ import annotations

from .export import parse_prometheus, to_prometheus
from .monitor import (
    MetricsReport,
    Monitor,
    render_query_table,
    render_trace_report,
    trace_summary,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    RegistrySnapshot,
)
from .tracing import (
    TRACE_ENV,
    CollectingExporter,
    JsonlExporter,
    Span,
    Tracer,
    read_spans,
    tracer_from_env,
)

__all__ = [
    "Observability",
    "MetricRegistry",
    "RegistrySnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "Span",
    "JsonlExporter",
    "CollectingExporter",
    "read_spans",
    "tracer_from_env",
    "TRACE_ENV",
    "to_prometheus",
    "parse_prometheus",
    "Monitor",
    "MetricsReport",
    "render_query_table",
    "render_trace_report",
    "trace_summary",
]


class Observability:
    """One registry + one tracer, carried by an engine.

    ``attrs`` are merged into every span opened through :meth:`span`
    (an engine of several nodes tags each node's spans with its shard
    id).  ``enabled=False`` keeps the registry (core counters are views
    over it) but skips the detailed recording — histograms and
    per-operator stats — and forces the tracer off; it exists for
    overhead baselines.
    """

    def __init__(self, registry: MetricRegistry | None = None,
                 tracer: Tracer | None = None, enabled: bool = True,
                 attrs: dict | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else (
            tracer_from_env() if enabled else Tracer()
        )
        self.enabled = enabled
        if not enabled:
            self.tracer.disable()
        self.attrs = dict(attrs or {})

    def span(self, name: str, query: str | None = None, **attrs):
        """Open a span with this bundle's standing attrs merged in."""
        if self.attrs:
            attrs.update(self.attrs)
        return self.tracer.span(name, query, **attrs)

    def shard_view(self, shard: int) -> Observability:
        """A per-shard bundle: own registry (merged at snapshot time),
        the coordinator's tracer (spans nest under coordinator spans),
        spans tagged with the shard id."""
        return Observability(
            registry=MetricRegistry(), tracer=self.tracer,
            enabled=self.enabled, attrs={**self.attrs, "shard": shard},
        )

    def forked(self) -> Observability:
        """The child-process view after a fork-worker fork.

        A *fresh* registry — the inherited one carries pre-fork counts
        that the parent still reports, so the child counts only its own
        post-fork work and ships that delta back over the worker pipe
        for the coordinator to merge.  Tracing is cut: the parent's
        exporter file handle must not be shared across processes.
        """
        return Observability(
            registry=MetricRegistry(), tracer=Tracer(),
            enabled=self.enabled, attrs=self.attrs,
        )
