"""Definitions the whole ledger agrees on: workloads, sizes, metrics.

``BENCHMARK.json`` at the repo root is the driver's view of the same
tables (``test_ledger_smoke`` asserts they agree).  Sizes live here and
not in ``BENCHMARK.json`` because that file's key set is fixed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass

__all__ = [
    "WORKLOADS",
    "Sizes",
    "SCALES",
    "Metric",
    "END_TO_END",
    "DRIVER_END_TO_END",
    "PER_LAYER",
    "HIGHER_IS_BETTER",
    "LEDGER_ONLY",
    "metrics_for",
    "percentile",
    "summarize",
]

#: name -> the one-line reason the workload exists
WORKLOADS: dict[str, str] = {
    "siemens_catalog": (
        "the paper's demo: 20 STARQL tasks as text through every layer, "
        "recompute tier does most of the execute work"
    ),
    "pane_hot": (
        "two SQL(+) pane aggregates over one synthetic stream: pane tier "
        "does the work, STARQL/rewriting/unfolding are bypassed"
    ),
    "register_churn": (
        "52 sessions x 20 tasks on one deployment, half translation-cache "
        "hits: registration and deregistration do the work, execution little"
    ),
    "siemens_ops": (
        "siemens_catalog with shards=2, serve(), 4 bus consumers per task, "
        "checkpoint/32 and a mid-run recover: the operational layers' price"
    ),
}
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Sizes:
    """Every size a workload reads; one instance per ``--scale``."""

    # Siemens workloads (catalog, ops)
    turbines: int
    plants: int
    sensors_per_turbine: int  # streamed sensors drawn per turbine
    stream_seconds: int
    # pane_hot
    pane_seconds: int
    pane_sensors: int
    pane_hz: int
    # register_churn (its own, smaller fleet: see README "sizes")
    churn_turbines: int
    churn_sessions: int
    churn_live: int
    churn_stream_seconds: int
    # siemens_ops
    shards: int
    consumers: int
    consumer_capacity: int
    checkpoint_interval: int
    stop_share: float
    # harness
    min_passes: int  # timed passes per run (register_churn always 1)
    warmup: bool
    setup_samples: int  # extra set-ups per run, beyond one per pass

    def as_dict(self) -> dict:
        return asdict(self)

    def inputs(self) -> dict:
        """The sizes that shape inputs (what a golden is valid for)."""
        harness = ("min_passes", "warmup", "setup_samples")
        return {k: v for k, v in asdict(self).items() if k not in harness}


SCALES: dict[str, Sizes] = {
    # calibrated on the 2-core build container; see README "sizes"
    "full": Sizes(
        turbines=10, plants=4, sensors_per_turbine=6, stream_seconds=150,
        pane_seconds=2600, pane_sensors=60, pane_hz=4,
        churn_turbines=3, churn_sessions=52, churn_live=3,
        churn_stream_seconds=30,
        shards=2, consumers=4, consumer_capacity=64,
        checkpoint_interval=32, stop_share=0.6,
        min_passes=5, warmup=True, setup_samples=10,
    ),
    # seconds, for test_ledger_smoke: same code paths, tiny inputs
    "quick": Sizes(
        turbines=2, plants=2, sensors_per_turbine=6, stream_seconds=40,
        pane_seconds=120, pane_sensors=12, pane_hz=4,
        churn_turbines=2, churn_sessions=4, churn_live=3,
        churn_stream_seconds=30,
        shards=2, consumers=4, consumer_capacity=64,
        checkpoint_interval=32, stop_share=0.6,
        min_passes=1, warmup=False, setup_samples=0,
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # share of the base value it may worsen by
    workloads: tuple[str, ...]
    definition: str


_OPS = ("siemens_ops",)
_CHURN = ("register_churn",)

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, ALL,
           "data generation + deploy()/engine build + stream and static "
           "attach, up to the first registration"),
    Metric("register_total_ms", "ms", "lower", 0.25, ALL,
           "sum over the pass's registrations of text -> handle REGISTERED "
           "(prepare + submit, or register(sql))"),
    Metric("register_ms_p50", "ms", "lower", 0.15, _CHURN,
           "per-registration latency, median"),
    Metric("register_ms_p99", "ms", "lower", 0.20, _CHURN,
           "per-registration latency, p99 (10 samples beyond: task-5 class)"),
    Metric("tuples_per_s", "tuples/s", "higher", 0.25, ALL,
           "source tuples with ts <= the last delivered window end, over "
           "wall from first pulse to last delivery"),
    Metric("window_ms_p50", "ms", "lower", 0.25, ALL,
           "gap between consecutive result deliveries in the closed loop "
           "(first of a round from the step call), median"),
    Metric("window_ms_p99", "ms", "lower", 0.25, ALL, "same, p99"),
    Metric("recovery_ms", "ms", "lower", 0.20, _OPS,
           "recover(dir, engine) call to a steppable gateway, on a freshly "
           "built deployment"),
    Metric("checkpoint_bytes_per_epoch", "bytes", "lower", 0.05, _OPS,
           "checkpoint log bytes written / epochs"),
    Metric("peak_rss_mb", "MB", "lower", 0.20, ALL,
           "ru_maxrss of the workload process after the timed passes"),
    Metric("ops_attempted", "count", "higher", None, ALL,
           "registrations + windows expected by the oracle"),
    Metric("failed_share", "ratio", "lower", 0.0, ALL,
           "(registrations that raised + windows missing or not byte-equal "
           "to the oracle) / ops_attempted"),
)

#: the end-to-end metrics the driver contract can carry: it wants every
#: one on every workload, bounded and never 0.  ops_attempted and
#: failed_share travel as the result line's ``attempted`` / ``failed``.
DRIVER_END_TO_END = tuple(
    m.name for m in END_TO_END if m.workloads == ALL and m.bound
)
#: end-to-end metrics defined on one workload only: bounded by
#: compare.py, reported to the driver among ``per_layer`` (0 elsewhere)
LEDGER_ONLY = tuple(m.name for m in END_TO_END if m.workloads != ALL)

#: per-layer metric -> unit (layer = module name; traced pass only)
PER_LAYER: dict[str, str] = {
    # registration side
    "starql.parse.calls": "count",
    "starql.parse.busy_ms": "ms",
    "rewriting.perfectref.calls": "count",
    "rewriting.perfectref.busy_ms": "ms",
    "rewriting.perfectref.ucq_disjuncts": "count",
    "mappings.unfold.calls": "count",
    "mappings.unfold.busy_ms": "ms",
    "mappings.unfold.sql_disjuncts": "count",
    "starql.translate.self_ms": "ms",
    "starql.translate.cache_hit_ratio": "ratio",
    "planner.plan_sql.calls": "count",
    "planner.plan_sql.busy_ms": "ms",
    "analysis.check.busy_ms": "ms",
    "engine.bind.calls": "count",
    "engine.bind.busy_ms": "ms",
    "relational.query.calls": "count",
    "relational.query.busy_ms": "ms",
    "relational.query.rows": "count",
    "scheduler.place.busy_ms": "ms",
    "gateway.register.self_ms": "ms",
    "gateway.deregister.calls": "count",
    "gateway.deregister.busy_ms": "ms",
    # execution side
    "gateway.step.rounds": "count",
    "gateway.step.self_s": "s",
    "gateway.deliver.busy_s": "s",
    "engine.execute.calls": "count",
    "engine.execute.busy_s": "s",
    "engine.pane.windows": "count",
    "engine.pane.busy_s": "s",
    "engine.pane.served_ratio": "ratio",
    "engine.recompute.windows": "count",
    "engine.recompute.busy_s": "s",
    "engine.tuples_in": "count",
    "engine.tuples_out": "count",
    "engine.panes_built": "count",
    "engine.top_task_share": "ratio",
    "wcache.window.calls": "count",
    "wcache.window.busy_s": "s",
    "wcache.pane_view.calls": "count",
    "wcache.pane_view.busy_s": "s",
    "wcache.hit_ratio": "ratio",
    "wcache.pane_hit_ratio": "ratio",
    "mqo.hit_ratio": "ratio",
    "mqo.pipelines": "count",
    "sharded.execute.busy_s": "s",
    "sharded.merge.self_s": "s",
    "sharded.skew": "ratio",
    "bus.publish.calls": "count",
    "bus.publish.busy_s": "s",
    "bus.deliveries": "count",
    "bus.dropped": "count",
    "bus.backpressure_deferrals": "count",
    "durability.checkpoint.epochs": "count",
    "durability.checkpoint.busy_s": "s",
    "durability.checkpoint.bytes": "bytes",
    "durability.recover.busy_ms": "ms",
    # the harness's own
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_share": "ratio",
}


#: per-layer metrics where more is better (useful outcomes per attempt);
#: every other one is work or time, where less is better
HIGHER_IS_BETTER = frozenset({
    "starql.translate.cache_hit_ratio",
    "engine.pane.served_ratio",
    "wcache.hit_ratio",
    "wcache.pane_hit_ratio",
    "mqo.hit_ratio",
})


def metrics_for(workload: str) -> list[Metric]:
    """The end-to-end metrics defined on ``workload``."""
    return [m for m in END_TO_END if workload in m.workloads]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float], metric: Metric) -> dict:
    """One metric's headline ``value`` plus median, IQR, n and raw values.

    The headline is the **best pass** (least time, most throughput):
    interference from the host only ever adds time, and on the shared
    2-core build container consecutive passes of identical work differ
    by an IQR of 10-14 % while the best pass repeats within a few per
    cent (README, "Steadiness").  ``setup_s`` keeps the median, as the
    driver contract asks.
    """
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    median = statistics.median(values)
    if metric.name == "setup_s":
        value = median
    else:
        value = max(values) if metric.better == "higher" else min(values)
    return {
        "value": value,
        "median": median,
        "iqr": iqr,
        "n": len(values),
        "values": list(values),
    }
