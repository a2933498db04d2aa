"""E4 (§3, S2): throughput scaling from 1 to 128 nodes.

The demo processes "up to 1,024 complex Siemens diagnostic tasks with
the throughput of up to 10,000,000 tuples/sec by executing the tasks in
parallel on a highly distributed environment with up to 128 nodes".

We calibrate the cluster simulator with the *measured* single-node
engine throughput and sweep 1 -> 128 nodes.  Shape assertions: speedup
near-linear over the first doublings, flattening toward 128 (the serial
coordinator), and double-digit-millions tuples/sec at full scale.

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""


from repro.exastream import (
    ClusterParameters,
    ClusterSimulator,
    GatewayServer,
    Stopwatch,
    StreamEngine,
    calibrate,
)
from repro.relational import Column, SQLType
from repro.streams import ListSource, Stream, StreamSchema

NODE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128]


def _measure_single_node() -> float:
    schema = StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sid", SQLType.INTEGER),
            Column("val", SQLType.REAL),
        ),
        time_column="ts",
    )
    rows = [
        (float(t), s, float((t * s) % 29)) for t in range(120) for s in range(40)
    ]
    engine = StreamEngine()
    engine.register_stream(ListSource(Stream("S", schema), rows))
    gateway = GatewayServer(engine)
    gateway.register(
        "SELECT w.sid AS s, AVG(w.val) AS m "
        "FROM timeSlidingWindow(S, 10, 5) AS w GROUP BY w.sid",
        name="probe",
    )
    for query in gateway.queries:
        query.sink.limit(8)  # keep only the most recent windows
    watch = Stopwatch()
    while gateway.step():
        pass
    return engine.metrics.total_tuples_in / watch.elapsed()


def test_node_scaling_shape(benchmark):
    throughput_1 = _measure_single_node()
    service = calibrate(throughput_1)
    simulator = ClusterSimulator(
        ClusterParameters(nodes=1, tuple_service_seconds=service)
    )

    results = benchmark.pedantic(
        simulator.sweep_nodes,
        args=(NODE_COUNTS, 256, 50, 2000),
        rounds=1,
        iterations=1,
    )
    base = results[0].throughput
    print(f"\nmeasured single-node engine: {throughput_1:,.0f} tuples/s")
    print("nodes  tuples/s      speedup  utilisation")
    for result in results:
        print(
            f"{result.nodes:>5} {result.throughput:>13,.0f} "
            f"{result.throughput / base:>8.1f}x "
            f"{result.utilisation:>10.0%}"
        )

    speedups = [r.throughput / base for r in results]
    # monotone increase across the sweep
    assert speedups == sorted(speedups)
    # near-linear early: 8 nodes give at least 5x
    assert speedups[3] > 5.0
    # flattening late: 128 nodes give clearly less than 128x
    assert speedups[-1] < 128
    # the headline number: >= 10M tuples/sec somewhere in the sweep
    assert max(r.throughput for r in results) >= 10_000_000


def test_efficiency_declines_with_scale():
    service = calibrate(1_000_000)
    simulator = ClusterSimulator(
        ClusterParameters(nodes=1, tuple_service_seconds=service)
    )
    results = simulator.sweep_nodes([8, 128], 256, 50, 2000)
    efficiency_8 = results[0].throughput / (8 * 1)
    efficiency_128 = results[1].throughput / (128 * 1)
    assert efficiency_128 < efficiency_8
