"""The observability layer: registry, tracing, exporters, monitoring.

Covers the PR-9 acceptance criteria:

* byte-identical engine output with tracing on vs off over the full
  Siemens catalog, shards 1 and 2;
* histogram/counter merge correctness across shards and fork workers
  (wall clocks and window counters as max, work counters as sums);
* Prometheus and JSONL exporters round-tripping through golden files;
* span-tree invariants under ``REPRO_AUDIT=1``;
* ``scheduler.load_report()`` as the read API over placement state.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from cqgen import build_engine, measurement_rows
from repro.exastream import GatewayServer, Scheduler
from repro.exastream.sharded import fork_available
from repro.obs import (
    CollectingExporter,
    Counter,
    Histogram,
    JsonlExporter,
    MetricRegistry,
    MetricsReport,
    Monitor,
    Observability,
    Span,
    Tracer,
    parse_prometheus,
    read_spans,
    render_query_table,
    to_prometheus,
    trace_summary,
    tracer_from_env,
)
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet

GOLDEN = Path(__file__).parent / "golden"

SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS m, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
    "WHERE w.sid = t.sid AND t.kind = 'temp' GROUP BY w.sid"
)


def canonical(results):
    return [
        (r.query, r.window_id, r.window_end, tuple(r.columns),
         tuple(tuple(row) for row in r.rows))
        for r in results
    ]


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(FleetConfig(turbines=4, plants=2, correlated_pairs=2))


# ---------------------------------------------------------------------------
# registry units


class TestRegistry:
    def test_counter_modes_and_values(self):
        registry = MetricRegistry()
        c = registry.counter("hits", query="q")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert registry.counter("hits", query="q") is c  # get-or-create
        with pytest.raises(ValueError):
            Counter("bad", (), mode="median")

    def test_gauge_and_histogram(self):
        registry = MetricRegistry()
        g = registry.gauge("depth")
        g.set(7)
        assert g.value == 7
        h = registry.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 5
        assert h.counts == [1, 2, 1, 1]
        assert h.min == 0.05 and h.max == 50.0
        assert h.mean == pytest.approx(56.05 / 5)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 50.0  # tail bucket reports the true max
        assert Histogram("empty", (), (1.0,)).quantile(0.5) == 0.0

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            MetricRegistry().histogram("h", bounds=(1.0, 1.0, 2.0))

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labels_are_order_insensitive(self):
        registry = MetricRegistry()
        a = registry.counter("c", query="q", operator="f")
        b = registry.counter("c", operator="f", query="q")
        assert a is b


class TestSnapshotMerge:
    def _registry(self, wall, tuples):
        registry = MetricRegistry()
        registry.counter("query_wall_seconds", mode="max", query="q").inc(wall)
        registry.counter("query_tuples_in_total", query="q").inc(tuples)
        h = registry.histogram("lat", bounds=(1.0, 10.0), query="q")
        h.observe(wall)
        return registry

    def test_sum_and_max_modes(self):
        merged = self._registry(2.0, 100).snapshot().merge(
            self._registry(3.0, 50).snapshot()
        )
        # wall is max (the shards ran concurrently), work sums
        assert merged.value("query_wall_seconds", query="q") == 3.0
        assert merged.value("query_tuples_in_total", query="q") == 150
        h = merged.histogram("lat", query="q")
        assert h.count == 2 and h.min == 2.0 and h.max == 3.0

    def test_merge_is_symmetric_and_pickles(self):
        a, b = self._registry(2.0, 100).snapshot(), self._registry(3.0, 50).snapshot()
        assert a.merge(b) == b.merge(a)
        restored = pickle.loads(pickle.dumps(a.merge(b)))
        assert restored == a.merge(b)

    def test_conflicting_series_kinds_refuse_to_merge(self):
        a = MetricRegistry()
        a.counter("x")
        b = MetricRegistry()
        b.gauge("x")
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())

    def test_histogram_bounds_mismatch_refuses(self):
        a = MetricRegistry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b = MetricRegistry()
        b.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())

    def test_total_and_labels_for(self):
        registry = MetricRegistry()
        registry.counter("c", query="a").inc(1)
        registry.counter("c", query="b").inc(2)
        snapshot = registry.snapshot()
        assert snapshot.total("c") == 3
        assert snapshot.labels_for("c") == [
            (("query", "a"),), (("query", "b"),)
        ]
        assert snapshot.value("c", query="missing") is None


# ---------------------------------------------------------------------------
# tracer units


class TestTracer:
    def test_disabled_tracer_is_noop(self):
        tracer = Tracer()
        handle = tracer.span("window", "q")
        assert handle is tracer.span("other")  # the shared no-op object
        with handle as span:
            assert span is None
        assert tracer.spans_opened == 0

    def test_parenting_and_query_inheritance(self):
        exporter = CollectingExporter()
        tracer = Tracer(exporter, enabled=True)
        with tracer.span("pulse", "q") as pulse:
            with tracer.span("window") as window:
                assert window.parent_id == pulse.span_id
                assert window.trace_id == pulse.trace_id
                assert window.query == "q"
        # children export before parents
        assert [s.name for s in exporter.spans] == ["window", "pulse"]
        assert tracer.audit_violations() == []

    def test_audit_catches_unclosed_and_unattributed(self):
        tracer = Tracer(CollectingExporter(), enabled=True)
        tracer.span("pulse", "q").__enter__()  # never closed
        assert any("still open" in v for v in tracer.audit_violations())
        tracer2 = Tracer(CollectingExporter(), enabled=True)
        with tracer2.span("orphan"):  # root without a query
            pass
        assert any(
            "no query attribution" in v for v in tracer2.audit_violations()
        )

    def test_enable_requires_exporter(self):
        with pytest.raises(ValueError):
            Tracer().enable()

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlExporter(path), enabled=True)
        with tracer.span("pulse", "q", window=3):
            with tracer.span("window"):
                pass
        tracer.close()
        spans = read_spans(path)
        assert [s.name for s in spans] == ["window", "pulse"]
        assert spans[1].attrs == {"window": 3}
        assert all(s.end is not None for s in spans)

    def test_tracer_from_env(self, tmp_path):
        assert tracer_from_env({}).enabled is False
        path = str(tmp_path / "t.jsonl")
        tracer = tracer_from_env({"REPRO_TRACE": path})
        assert tracer.enabled and tracer.exporter.path == path

    def test_observability_bundle(self):
        obs = Observability(enabled=False)
        assert obs.tracer.enabled is False
        shard = obs.shard_view(1)
        assert shard.registry is not obs.registry
        assert shard.tracer is obs.tracer
        assert shard.attrs == {"shard": 1}
        forked = obs.forked()
        assert forked.registry is not obs.registry  # post-fork delta only
        assert forked.tracer.enabled is False


# ---------------------------------------------------------------------------
# exporter golden files


def _golden_registry() -> MetricRegistry:
    registry = MetricRegistry()
    registry.counter("query_tuples_in_total", query="temp").inc(1234)
    registry.counter("query_tuples_in_total", query="vibration").inc(56)
    registry.counter("query_wall_seconds", mode="max", query="temp").inc(1.5)
    registry.gauge("scheduler_balance").set(1.25)
    h = registry.histogram(
        "window_latency_seconds", bounds=(0.001, 0.01, 0.1), query="temp"
    )
    for value in (0.0005, 0.002, 0.002, 0.05, 2.0):
        h.observe(value)
    return registry


class TestPrometheusExporter:
    def test_matches_golden_file(self):
        text = to_prometheus(_golden_registry().snapshot())
        assert text == (GOLDEN / "registry.prom").read_text()

    def test_round_trip_is_identity(self):
        text = to_prometheus(_golden_registry().snapshot())
        assert to_prometheus(parse_prometheus(text)) == text

    def test_parse_back_values(self):
        snapshot = parse_prometheus(
            to_prometheus(_golden_registry().snapshot())
        )
        assert snapshot.value("query_tuples_in_total", query="temp") == 1234
        assert snapshot.value("scheduler_balance") == 1.25
        h = snapshot.histogram("window_latency_seconds", query="temp")
        assert h.count == 5
        assert h.counts == [1, 2, 1, 1]
        assert h.sum == pytest.approx(2.0545)

    def test_label_escaping_round_trips(self):
        registry = MetricRegistry()
        registry.counter("c", query='we"ird\\na\nme').inc(3)
        text = to_prometheus(registry.snapshot())
        assert parse_prometheus(text).value(
            "c", query='we"ird\\na\nme'
        ) == 3


class TestTraceGolden:
    def _trace(self) -> list[Span]:
        clock_state = {"now": 0.0}

        def clock() -> float:
            clock_state["now"] += 0.25
            return clock_state["now"]

        exporter = CollectingExporter()
        tracer = Tracer(exporter, enabled=True, clock=clock)
        with tracer.span("pulse", "temp", window=0):
            with tracer.span("window", path="recompute"):
                pass
            with tracer.span("deliver"):
                pass
        return exporter.spans

    def test_matches_golden_file(self):
        import json

        lines = [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self._trace()
        ]
        golden = (GOLDEN / "trace.jsonl").read_text().splitlines()
        assert lines == golden

    def test_summary_over_golden_spans(self):
        summary = trace_summary(self._trace())
        assert summary["temp"]["pulses"] == 1
        assert summary["temp"]["total_seconds"] == pytest.approx(1.25)
        assert summary["temp"]["by_span"]["window"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# engine integration: snapshots, shard merge, fork workers


def _run_query(shards=1, sql=SQL, **engine_kwargs):
    engine = build_engine(
        measurement_rows(80, 6), shards=shards, **engine_kwargs
    )
    gateway = GatewayServer(engine)
    registered = gateway.register(sql, name="q", sink_capacity=None)
    while gateway.step():
        pass
    results = canonical(registered.results())
    snapshot = gateway.metrics_snapshot()
    gateway.deregister("q")
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    return results, snapshot


class TestEngineSnapshots:
    def test_single_node_snapshot_matches_metrics(self):
        engine = build_engine(measurement_rows(80, 6))
        gateway = GatewayServer(engine)
        gateway.register(SQL, name="q", sink_capacity=None)
        while gateway.step():
            pass
        snapshot = gateway.metrics_snapshot()
        metrics = engine.metrics.query("q")
        assert snapshot.value(
            "query_tuples_in_total", query="q"
        ) == metrics.tuples_in > 0
        assert snapshot.value(
            "query_windows_total", query="q"
        ) == metrics.windows_processed > 0
        latency = snapshot.histogram("window_latency_seconds", query="q")
        assert latency.count == metrics.windows_processed

    def test_per_operator_stats_recorded(self):
        # recompute path with a stream-side filter: every stage records
        sql = SQL.replace("WHERE ", "WHERE w.val > 50 AND ")
        _, snapshot = _run_query(incremental=False, sql=sql)
        operators = {
            dict(labels)["operator"]
            for (series, labels) in snapshot.series
            if series == "operator_rows_in_total"
        }
        assert "filter:w" in operators
        assert "aggregate" in operators
        join_ops = [op for op in operators if op.startswith("join:")]
        assert join_ops
        for op in operators:
            rows_in = snapshot.value(
                "operator_rows_in_total", query="q", operator=op
            )
            rows_out = snapshot.value(
                "operator_rows_out_total", query="q", operator=op
            )
            assert rows_in >= 0 and rows_out >= 0

    def test_shard_merge_counts_each_window_once(self):
        single, single_snap = _run_query(shards=1)
        sharded, sharded_snap = _run_query(shards=2)
        assert sharded == single  # the execution differential
        for series in ("query_windows_total", "query_tuples_in_total",
                       "query_tuples_out_total"):
            assert sharded_snap.value(series, query="q") == \
                single_snap.value(series, query="q")
        # every shard contributes its own latency observations
        assert sharded_snap.histogram(
            "window_latency_seconds", query="q"
        ).count == 2 * single_snap.value("query_windows_total", query="q")

    @pytest.mark.skipif(not fork_available(), reason="fork start method")
    def test_fork_workers_ship_snapshot_deltas(self):
        single, single_snap = _run_query(shards=1)
        forked, forked_snap = _run_query(shards=2, parallel="fork")
        assert forked == single
        for series in ("query_windows_total", "query_tuples_in_total"):
            assert forked_snap.value(series, query="q") == \
                single_snap.value(series, query="q")

    def test_disabled_bundle_skips_detailed_series(self):
        engine = build_engine(
            measurement_rows(40, 4), obs=Observability(enabled=False)
        )
        gateway = GatewayServer(engine)
        gateway.register(SQL, name="q", sink_capacity=None)
        while gateway.step():
            pass
        snapshot = gateway.metrics_snapshot()
        # core counters stay on; histograms and per-operator stats are off
        assert snapshot.value("query_tuples_in_total", query="q") > 0
        assert snapshot.histogram("window_latency_seconds", query="q") is None
        assert not any(
            series == "operator_rows_in_total"
            for (series, _) in snapshot.series
        )

    def test_checkpoint_flush_histogram(self, tmp_path):
        from repro.exastream.durability import CheckpointManager

        engine = build_engine(measurement_rows(40, 4))
        gateway = GatewayServer(engine)
        CheckpointManager(gateway, tmp_path, interval=2)
        gateway.register(SQL, name="q", sink_capacity=None)
        while gateway.step():
            pass
        h = gateway.metrics_snapshot().histogram("checkpoint_flush_seconds")
        assert h is not None and h.count > 0

    def test_bus_delivery_histogram(self):
        engine = build_engine(measurement_rows(40, 4))
        gateway = GatewayServer(engine)
        gateway.register(SQL, name="q", sink_capacity=None)
        while gateway.step():
            pass
        h = gateway.metrics_snapshot().histogram(
            "bus_delivery_seconds", query="q"
        )
        assert h is not None and h.count > 0


class TestSchedulerReport:
    def test_load_report_over_placements(self):
        engine = build_engine(measurement_rows(40, 4))
        scheduler = Scheduler(3)
        gateway = GatewayServer(engine, scheduler=scheduler)
        gateway.register(SQL, name="q", sink_capacity=None)
        gateway.step(4)
        report = scheduler.load_report()
        assert len(report.workers) == 3
        assert report.query_costs.keys() >= {"q"}
        assert report.placements_of("q")
        assert all(
            placement[0] == "q" for placement in report.placements_of("q")
        )
        assert report.balance >= 1.0
        assert len(report.loads) == 3
        # the report is a snapshot, not a live view
        frozen = report.query_costs["q"]
        gateway.step(4)
        assert report.query_costs["q"] == frozen

    def test_scheduler_gauges_in_snapshot(self):
        engine = build_engine(measurement_rows(40, 4))
        gateway = GatewayServer(engine, scheduler=Scheduler(2))
        gateway.register(SQL, name="q", sink_capacity=None)
        gateway.step(4)
        snapshot = gateway.metrics_snapshot()
        assert snapshot.value("scheduler_balance") >= 1.0
        assert len(snapshot.labels_for("scheduler_worker_load")) == 2


# ---------------------------------------------------------------------------
# the monitoring surface


class TestMonitorSurface:
    def test_monitor_requires_snapshot_source(self):
        with pytest.raises(TypeError):
            Monitor(object())

    def test_report_and_table(self):
        _, snapshot = _run_query()
        report = MetricsReport(snapshot)
        assert report.queries == ["q"]
        stats = report.query("q")
        assert stats["windows"] > 0 and stats["throughput"] > 0
        table = report.render()
        assert "q" in table and "tup/s" in table and "bus:" in table
        assert render_query_table(snapshot) == table
        assert "query_tuples_in_total" in report.to_prometheus()

    def test_session_metrics_and_handle_stats(self, small_fleet):
        deployment = deploy(fleet=small_fleet, stream_duration=20)
        session = deployment.session(sink_capacity=None)
        handle = session.submit(
            diagnostic_catalog()[0].starql, name="monotonic"
        )
        while session.step(4):
            pass
        report = session.metrics()
        assert "monotonic" in report.queries
        stats = handle.stats()
        assert stats["windows"] == handle.windows_executed > 0
        monitor = Monitor(deployment)
        assert "monotonic" in monitor.render()
        session.close()

    def test_explain_surfaces_observed_operator_stats(self, small_fleet):
        deployment = deploy(fleet=small_fleet, stream_duration=20)
        session = deployment.session(sink_capacity=None)
        task = diagnostic_catalog()[0]
        session.submit(task.starql, name="monotonic")
        while session.step(4):
            pass
        report = session.explain(task.starql, name="monotonic")
        observed = [d for d in report.infos if d.code == "ANA040"]
        assert observed
        assert any("selectivity" in d.message for d in observed)
        session.close()

    def test_cli_trace_mode(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlExporter(path), enabled=True)
        with tracer.span("pulse", "q"):
            with tracer.span("window"):
                pass
        tracer.close()
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "q" in out and "pulses" in out
        assert main([str(tmp_path / "missing.jsonl")]) == 2


# ---------------------------------------------------------------------------
# the acceptance differential: tracing on vs off, byte-identical output


class TestTracingDifferential:
    def _run_catalog(self, fleet, shards, trace):
        deployment = deploy(fleet=fleet, stream_duration=20, shards=shards)
        exporter = CollectingExporter()
        if trace:
            deployment.engine.obs.tracer.enable(exporter)
        session = deployment.session(sink_capacity=None)
        handles = {}
        for index, task in enumerate(diagnostic_catalog()):
            name = f"task{index:02d}"
            handles[name] = session.submit(task.starql, name=name)
        while deployment.step():
            pass
        results = {
            name: canonical(handle.registered.results())
            for name, handle in handles.items()
        }
        tracer = deployment.engine.obs.tracer
        session.close()
        return results, exporter.spans, tracer

    @pytest.mark.parametrize("shards", [1, 2])
    def test_catalog_byte_identical_with_tracing(self, small_fleet, shards):
        baseline, _, _ = self._run_catalog(small_fleet, shards, trace=False)
        traced, spans, tracer = self._run_catalog(
            small_fleet, shards, trace=True
        )
        assert traced == baseline  # tracing only observes
        assert any(len(results) > 0 for results in baseline.values())
        assert spans
        # span-tree invariants: closed, parented, attributed
        assert tracer.audit_violations() == []
        ids = {span.span_id for span in spans}
        names = {f"task{i:02d}" for i in range(len(diagnostic_catalog()))}
        for span in spans:
            assert span.end is not None
            assert span.parent_id is None or span.parent_id in ids
            assert span.query in names
        roots = [span for span in spans if span.parent_id is None]
        assert roots and all(span.name == "pulse" for span in roots)
        if shards == 2:
            assert any(span.attrs.get("shard") is not None for span in spans)

    def test_audit_mode_verifies_span_balance(self, small_fleet, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        results, spans, tracer = self._run_catalog(
            small_fleet, shards=1, trace=True
        )
        # deploy + full drain under REPRO_AUDIT ran verify_gateway at
        # every quiescent point with the tracer audit wired in
        assert spans and tracer.audit_violations() == []
