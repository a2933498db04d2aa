"""E3 (§3, S2): up to 1,024 concurrent diagnostic tasks in real time.

Two measurements:

* **real engine**: register 1 -> 64 concurrent continuous queries over a
  shared stream and measure per-query window cost — wCache sharing must
  keep the marginal cost of an extra query far below the first one's;
* **calibrated simulator**: extend the sweep to 1,024 tasks on a 16-node
  deployment (the demo's setting), asserting per-window latency stays
  flat (real-time processing is preserved).

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""

import pytest

from repro.exastream import (
    ClusterParameters,
    ClusterSimulator,
    GatewayServer,
    Stopwatch,
    StreamEngine,
    calibrate,
)
from repro.relational import Column, SQLType
from repro.streams import ListSource, Stream, StreamSchema, WindowSpec, pane_plan

SPEC = WindowSpec(10, 5)


def _engine(n_seconds=60, n_sensors=20):
    schema = StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sid", SQLType.INTEGER),
            Column("val", SQLType.REAL),
        ),
        time_column="ts",
    )
    rows = [
        (float(t), s, 50.0 + ((t * 7 + s * 13) % 23))
        for t in range(n_seconds)
        for s in range(n_sensors)
    ]
    engine = StreamEngine()
    engine.register_stream(ListSource(Stream("S", schema), rows))
    return engine


def _run_concurrent(num_queries: int) -> tuple[float, StreamEngine]:
    engine = _engine()
    gateway = GatewayServer(engine)
    for index in range(num_queries):
        threshold = 40 + (index % 20)
        gateway.register(
            f"SELECT w.sid AS s, AVG(w.val) AS m "
            f"FROM timeSlidingWindow(S, "
            f"{SPEC.range_seconds:g}, {SPEC.slide_seconds:g}) AS w "
            f"WHERE w.val > {threshold} GROUP BY w.sid",
            name=f"q{index}",
        )
    for query in gateway.queries:
        query.sink.limit(8)  # keep only the most recent windows
    watch = Stopwatch()
    while gateway.step():
        pass
    return watch.elapsed(), engine


def _assert_shared_windowing(engine: StreamEngine, num_queries: int) -> None:
    """Sharing invariants derived from the run itself (no magic rates).

    Every query reads the same window grid through one shared reader, so
    the expected cache traffic is fully determined by the number of
    queries, the windows each processed, and the spec's pane shape:

    * each window is sliced into panes exactly once (``pane_misses == 0``
      — queries 2..N never repeat the materialisation work);
    * each query's window touches its ``panes_per_window`` panes plus the
      window's edge slice;
    * the batch store sees exactly one end-of-stream probe per query and
      nothing else (no per-query re-materialisation).
    """
    stats = engine.cache.stats
    per_query = engine.metrics.per_query.values()
    window_reads = sum(m.windows_incremental for m in per_query)
    assert window_reads > 0, "expected pane-incremental execution"
    reads_per_window = pane_plan(SPEC).panes_per_window + 1  # panes + edge
    assert stats.pane_misses == 0, "a shared pane was sliced twice"
    assert stats.pane_hits == window_reads * reads_per_window
    assert stats.misses <= num_queries  # end-of-stream probes only
    assert stats.materialised_tuples == 0  # no batch was ever assembled


@pytest.mark.parametrize("num_queries", [1, 8, 32, 64])
def test_real_engine_concurrency(benchmark, num_queries):
    seconds, engine = benchmark.pedantic(
        _run_concurrent, args=(num_queries,), rounds=1, iterations=1
    )
    per_query = seconds / num_queries
    print(
        f"\n{num_queries} queries: {seconds:.3f}s total, "
        f"{per_query * 1000:.1f}ms/query, "
        f"pane hit rate {engine.cache.stats.pane_hit_rate:.0%}"
    )
    _assert_shared_windowing(engine, num_queries)


def test_marginal_query_cost_sublinear():
    single, _ = _run_concurrent(1)
    many, engine = _run_concurrent(32)
    # The windowing + pane-slicing work happened once, not 32 times —
    # that is the sharing claim, proven exactly by the cache counters
    # (wall-clock ratios at millisecond scale were flaky; incremental
    # execution shrank the shared portion below timing noise).
    _assert_shared_windowing(engine, 32)
    # Wall-clock sanity bound only: 32 queries must not cost more than
    # 32 isolated single-query runs (generous margin for CI noise).
    assert many < single * 32 * 1.25, (single, many)


def test_simulated_1024_tasks(benchmark):
    service = calibrate(500_000)  # conservative single-node calibration
    simulator = ClusterSimulator(
        ClusterParameters(nodes=16, tuple_service_seconds=service)
    )

    def sweep():
        rows = []
        for tasks in (1, 16, 128, 512, 1024):
            result = simulator.run(
                num_queries=tasks, windows_per_query=20, tuples_per_window=1000
            )
            rows.append(
                (tasks, result.throughput,
                 result.simulated_seconds / result.windows_processed)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\ntasks  tuples/s  sec/window")
    for tasks, throughput, per_window in rows:
        print(f"{tasks:>5} {throughput:>12,.0f} {per_window:.6f}")
    latencies = [r[2] for r in rows]
    # real-time claim: window latency does not blow up with 1024 tasks
    assert latencies[-1] < latencies[0] * 3
