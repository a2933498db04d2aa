"""Session lifecycle baseline: incremental ``poll()`` throughput and
``step()`` fairness across 8 concurrent query handles.

Later async-gateway / multi-tenant-scheduling PRs change how handles are
driven; this benchmark pins today's cooperative executor behaviour:

* **poll throughput** — results per second delivered through bounded
  ring-buffer sinks while stepping, versus the batch ``run()`` path;
* **fairness** — after interleaved ``step()`` rounds, the per-handle
  window counts must stay within one window of each other;
* **prepared reuse** — 8 handles over one STARQL text translate once.
"""

import pytest

from repro.exastream import GatewayServer, StreamEngine
from repro.relational import Column, SQLType
from repro.siemens import deploy, diagnostic_catalog
from repro.streams import ListSource, Stream, StreamSchema

HANDLES = 8


def _engine(n_seconds=120, n_sensors=20):
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


def test_session_poll_throughput_and_fairness(benchmark, small_fleet, smoke):
    """8 handles over one prepared STARQL task, stepped and polled."""
    duration = 10 if smoke else 30

    def run():
        deployment = deploy(fleet=small_fleet, stream_duration=duration)
        session = deployment.session(sink_capacity=16)
        prepared = session.prepare(diagnostic_catalog()[0].starql)
        handles = [
            session.submit(prepared, name=f"h{i}") for i in range(HANDLES)
        ]
        polled = 0
        while session.step(1):
            for handle in handles:
                polled += len(handle.poll(max_results=4))
        for handle in handles:
            polled += len(handle.poll())
        return deployment, handles, polled

    deployment, handles, polled = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    executed = [h.windows_executed for h in handles]
    assert max(executed) - min(executed) <= 1  # step() fairness
    assert polled == sum(executed)  # every result delivered exactly once
    # translated exactly once: 8 submissions reuse one prepared query
    # without even consulting the cache again
    assert deployment.translator.cache_misses == 1
    assert deployment.translator.cache_hits == 0
    seconds = max(benchmark.stats.stats.mean, 1e-9)
    print(
        f"\n{HANDLES} handles: {sum(executed)} windows, "
        f"{polled} results polled in {seconds:.3f}s "
        f"({polled / seconds:,.0f} results/s), "
        f"window spread {max(executed) - min(executed)}"
    )


@pytest.mark.parametrize("mode", ["batch_run", "step_poll"])
def test_incremental_vs_batch_overhead(benchmark, mode, smoke):
    """step()+poll() must not cost materially more than batch run()."""
    sql = (
        "SELECT w.sid AS s, AVG(w.val) AS m "
        "FROM timeSlidingWindow(S, 10, 5) AS w GROUP BY w.sid"
    )
    n_seconds = 40 if smoke else 120

    def run():
        engine = _engine(n_seconds=n_seconds)
        gateway = GatewayServer(engine)
        queries = [
            gateway.register(sql, name=f"q{i}", sink_capacity=16)
            for i in range(HANDLES)
        ]
        polled = 0
        if mode == "batch_run":
            for query in queries:
                query.sink.limit(8)  # keep only the most recent windows
            while gateway.step():
                pass
            polled = sum(len(q.results()) for q in queries)
        else:
            while gateway.step(1):
                for query in queries:
                    polled += len(query.poll(max_results=4))
            for query in queries:
                polled += len(query.poll())
        return engine, polled

    engine, polled = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = max(benchmark.stats.stats.mean, 1e-9)
    print(
        f"\n[{mode}] {polled} results, "
        f"{engine.metrics.total_tuples_in} tuples in {seconds:.3f}s "
        f"({engine.metrics.total_tuples_in / seconds:,.0f} tuples/s)"
    )
    assert polled > 0
