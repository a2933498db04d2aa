"""Tests for the session-based query lifecycle: bounded sinks, the
cooperative step() executor, handle lifecycle, prepared-query caching and
shared-reader release on deregister."""

import pytest

from repro.exastream import (
    BoundedResultSink,
    GatewayServer,
    QueryState,
    StreamEngine,
)
from repro.relational import Column, SQLType
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.streams import ListSource, Stream, StreamSchema


def measurement_stream(rows, name="S_Msmt"):
    schema = StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sid", SQLType.INTEGER),
            Column("val", SQLType.REAL),
        ),
        time_column="ts",
    )
    return ListSource(Stream(name, schema), rows)


def engine_with_data(n_seconds=12):
    rows = []
    for t in range(n_seconds):
        rows.append((float(t), 1, 50.0 + t))
        rows.append((float(t), 2, 60.0 - (t % 3)))
    engine = StreamEngine()
    engine.register_stream(measurement_stream(rows))
    return engine


SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS m "
    "FROM timeSlidingWindow(S_Msmt, 2, 2) AS w GROUP BY w.sid"
)


class TestBoundedResultSink:
    def test_unbounded_by_default(self):
        sink = BoundedResultSink()
        for i in range(100):
            assert sink.offer(i)
        assert len(sink) == 100
        assert sink.dropped == 0

    def test_drop_oldest_keeps_most_recent(self):
        sink = BoundedResultSink(capacity=3)
        for i in range(10):
            assert sink.offer(i)
        assert sink.snapshot() == [7, 8, 9]
        assert sink.dropped == 7
        assert sink.accepted == 10

    def test_block_refuses_when_full(self):
        sink = BoundedResultSink(capacity=2, policy=BoundedResultSink.BLOCK)
        assert sink.offer(1) and sink.offer(2)
        assert sink.would_block()
        assert not sink.offer(3)
        assert sink.snapshot() == [1, 2]
        sink.poll(1)
        assert not sink.would_block()
        assert sink.offer(3)

    def test_poll_is_incremental_and_fifo(self):
        sink = BoundedResultSink(capacity=5)
        for i in range(5):
            sink.offer(i)
        assert sink.poll(2) == [0, 1]
        assert sink.poll(2) == [2, 3]
        assert sink.poll() == [4]
        assert sink.poll() == []

    def test_capacity_zero_discards_all(self):
        sink = BoundedResultSink(capacity=0)
        assert sink.offer(1)
        assert len(sink) == 0
        assert sink.dropped == 1

    def test_limit_tightens_never_loosens(self):
        sink = BoundedResultSink()
        for i in range(10):
            sink.offer(i)
        sink.limit(4)
        assert sink.snapshot() == [6, 7, 8, 9]
        assert sink.dropped == 6
        sink.limit(8)  # no-op: never loosens
        assert sink.capacity == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedResultSink(capacity=-1)
        with pytest.raises(ValueError):
            BoundedResultSink(policy="teleport")


class TestGatewayStep:
    def test_step_round_robin_interleaves(self):
        gateway = GatewayServer(engine_with_data())
        a = gateway.register(SQL, name="a")
        b = gateway.register(SQL, name="b")
        gateway.step(3)
        assert a.next_window == 3
        assert b.next_window == 3

    def test_step_is_reentrant_and_matches_run(self):
        stepped = GatewayServer(engine_with_data())
        q1 = stepped.register(SQL, name="q")
        total = 0
        while True:
            n = stepped.step(2)
            if n == 0:
                break
            total += n
        ran = GatewayServer(engine_with_data())
        q2 = ran.register(SQL, name="q")
        while ran.step():
            pass
        assert total == q1.next_window == q2.next_window
        assert [r.rows for r in q1.results()] == [r.rows for r in q2.results()]

    def test_lifecycle_pause_resume_cancel(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q")
        other = gateway.register(SQL, name="other")
        assert q.state is QueryState.REGISTERED
        gateway.step()
        assert q.state is QueryState.RUNNING
        q.pause()
        gateway.step(2)
        assert q.state is QueryState.PAUSED
        assert q.next_window == 1  # paused: no progress
        assert other.next_window == 3  # others unaffected
        q.resume()
        gateway.step()
        assert q.state is QueryState.RUNNING
        assert q.next_window == 2
        q.cancel()
        gateway.step(3)
        assert q.state is QueryState.CANCELLED
        assert q.next_window == 2

    def test_terminal_states_reject_pause_resume(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q")
        q.cancel()
        with pytest.raises(ValueError):
            q.pause()
        with pytest.raises(ValueError):
            q.resume()
        q.cancel()  # idempotent

    def test_completed_at_stream_end(self):
        gateway = GatewayServer(engine_with_data(n_seconds=6))
        q = gateway.register(SQL, name="q")
        while gateway.step():
            pass
        assert q.state is QueryState.COMPLETED

    def test_window_limit_completes_query(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q", window_limit=2)
        while gateway.step():
            pass
        assert q.state is QueryState.COMPLETED
        assert q.next_window == 2

    def test_window_limit_completes_immediately(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q", window_limit=3)
        gateway.step(3)
        # status is accurate the moment the last window executed, not
        # one step() visit later
        assert q.state is QueryState.COMPLETED

    def test_subscribe_same_callback_idempotent(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q")
        seen = []

        def callback(result):
            seen.append(result.window_id)

        q.subscribe(callback)
        q.subscribe(callback)
        gateway.step(2)
        assert seen == [0, 1]  # delivered once despite double subscribe

    def test_block_policy_backpressures_producer(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(
            SQL, name="q", sink_capacity=2,
            sink_policy=BoundedResultSink.BLOCK,
        )
        other = gateway.register(SQL, name="other")
        gateway.step(4)
        assert q.next_window == 2  # stalled when the sink filled
        assert other.next_window == 4  # unaffected by q's back-pressure
        assert q.state is QueryState.RUNNING  # not terminal, just waiting
        assert len(q.poll(1)) == 1
        gateway.step(1)
        assert q.next_window == 3  # resumed after the consumer drained

    def test_drop_oldest_bounds_memory(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q", sink_capacity=3)
        while gateway.step():
            pass
        assert len(q.sink) == 3
        assert q.sink.dropped == q.next_window - 3
        retained = [r.window_id for r in q.results()]
        assert retained == list(range(q.next_window - 3, q.next_window))

    def test_subscribe_replaces_global_hook(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q")
        gateway.register(SQL, name="other")
        seen = []
        q.subscribe(lambda r: seen.append(r.window_id))
        gateway.step(3)
        assert seen == [0, 1, 2]  # only q's results, incrementally

    def test_keep_results_false_retains_bounded_tail(self):
        gateway = GatewayServer(engine_with_data(n_seconds=30))
        q = gateway.register(SQL, name="q")
        tail = 8
        q.sink.limit(tail)
        while gateway.step():
            pass
        assert q.next_window > tail
        results = q.results()
        assert 0 < len(results) <= tail
        assert q.sink.dropped > 0  # the degradation is observable
        assert results[-1].window_id == q.next_window - 1

    def test_deregister_unknown_name_raises(self):
        gateway = GatewayServer(engine_with_data())
        with pytest.raises(KeyError):
            gateway.deregister("ghost")

    def test_deregister_releases_shared_readers_on_last_query(self):
        gateway = GatewayServer(engine_with_data())
        gateway.register(SQL, name="a")
        gateway.register(SQL, name="b")
        assert gateway.shared_reader_count == 1  # same stream + grid shared
        gateway.deregister("a")
        assert gateway.shared_reader_count == 1  # b still reads it
        gateway.deregister("b")
        assert gateway.shared_reader_count == 0  # last reference released

    def test_auto_names_deduplicate(self):
        gateway = GatewayServer(engine_with_data())
        from repro.exastream import plan_sql

        plan = plan_sql(SQL, gateway.engine, name="shared")
        from dataclasses import replace

        first = gateway.register(replace(plan))
        second = gateway.register(replace(plan))
        assert first.name == "shared"
        assert second.name != "shared"
        with pytest.raises(ValueError):
            gateway.register(replace(plan), name="shared")


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(FleetConfig(turbines=4, plants=2, correlated_pairs=2))


@pytest.fixture()
def deployment(small_fleet):
    return deploy(fleet=small_fleet, stream_duration=25)


class TestSessionAPI:
    def test_prepare_caches_translations(self, deployment):
        session = deployment.session()
        text = diagnostic_catalog()[0].starql
        first = session.prepare(text)
        second = session.prepare("\n  " + "  ".join(text.split()) + " \n")
        assert first.translation is second.translation
        assert deployment.translator.cache_misses == 1
        assert deployment.translator.cache_hits == 1

    def test_normalize_preserves_string_literals(self, deployment):
        normalize = deployment.translator.normalize_text
        # whitespace outside literals is insignificant...
        assert normalize('A  B  "x y"  C') == normalize('A B "x y" C')
        # ...but whitespace inside a quoted literal is significant
        assert normalize('START = "10:00:00 CET"') != normalize(
            'START = "10:00:00  CET"'
        )

    def test_cache_shared_across_sessions(self, deployment):
        text = diagnostic_catalog()[0].starql
        deployment.session().prepare(text)
        deployment.session().prepare(text)
        assert deployment.translator.cache_misses == 1
        assert deployment.translator.cache_hits == 1

    def test_submit_same_prepared_twice(self, deployment):
        session = deployment.session()
        prepared = session.prepare(diagnostic_catalog()[0].starql)
        h1 = session.submit(prepared, max_windows=4)
        h2 = session.submit(prepared, max_windows=4)
        assert h1.name != h2.name
        while session.step():
            pass
        assert h1.windows_executed == h2.windows_executed == 4
        assert h1.state is QueryState.COMPLETED

    def test_eight_handles_over_one_prepared_query(self, deployment):
        """Stepped fairly, polled exactly once each, translated once."""
        session = deployment.session(sink_capacity=16)
        prepared = session.prepare(diagnostic_catalog()[0].starql)
        handles = [session.submit(prepared, name=f"h{i}") for i in range(8)]
        polled = [[] for _ in handles]
        while session.step(1):
            executed = [h.windows_executed for h in handles]
            assert max(executed) - min(executed) <= 1  # step() fairness
            for handle, seen in zip(handles, polled):
                seen.extend(r.window_id for r in handle.poll(max_results=4))
        for handle, seen in zip(handles, polled):
            seen.extend(r.window_id for r in handle.poll())
            # every result delivered exactly once, in order, none dropped
            assert seen == list(range(handle.windows_executed))
            assert handle.sink.dropped == 0
        assert handles[0].windows_executed > 16  # more than a sink holds
        # 8 submissions reuse one prepared query without consulting the
        # translation cache again
        assert deployment.translator.cache_misses == 1
        assert deployment.translator.cache_hits == 0

    def test_poll_bounded_and_incremental(self, deployment):
        session = deployment.session(sink_capacity=4)
        handle = session.submit(diagnostic_catalog()[0].starql, name="fig1")
        polled = 0
        while session.step(3):
            assert len(handle.sink) <= 4  # memory bounded while running
            polled += len(handle.poll(max_results=2))
            assert polled <= handle.windows_executed
        polled += len(handle.poll())
        assert polled > 0
        assert handle.windows_executed > 4  # more windows ran than the cap

    def test_two_sessions_interleave(self, deployment):
        s1 = deployment.session(name="tenant1")
        s2 = deployment.session(name="tenant2")
        h1 = s1.submit(diagnostic_catalog()[0].starql, name="t1q")
        h2 = s2.submit(diagnostic_catalog()[1].starql, name="t2q")
        for _ in range(5):
            s1.step()  # either session's step advances both, round-robin
            assert abs(h1.windows_executed - h2.windows_executed) <= 1
        s2.step()
        assert h1.windows_executed >= 5
        assert h2.windows_executed >= 5

    def test_handle_lifecycle_and_alerts(self, deployment):
        session = deployment.session()
        handle = session.submit(diagnostic_catalog()[0].starql, name="life")
        session.step(2)
        handle.pause()
        assert handle.state is QueryState.PAUSED
        session.step(2)
        assert handle.windows_executed == 2
        handle.resume()
        session.step(8)
        assert handle.windows_executed == 10
        alerts = handle.alerts()
        assert isinstance(alerts, list)
        handle.cancel()
        assert handle.state is QueryState.CANCELLED

    def test_subscribe_callback(self, deployment):
        session = deployment.session()
        handle = session.submit(diagnostic_catalog()[0].starql, name="sub")
        seen = []
        handle.subscribe(lambda r: seen.append(r.window_id))
        session.step(3)
        assert seen == [0, 1, 2]

    def test_close_deregisters_handles(self, deployment):
        with deployment.session() as session:
            handle = session.submit(diagnostic_catalog()[0].starql, name="tmp")
            assert "tmp" in deployment.gateway
        assert "tmp" not in deployment.gateway
        assert handle.state is QueryState.CANCELLED


class TestPlatformSessionFacade:
    def test_platform_session_updates_dashboard(self, small_fleet):
        from repro.optique import OptiquePlatform
        from repro.siemens import build_siemens_mappings, build_siemens_ontology
        from repro.siemens.deployment import FAILURE_MACRO, MONOTONIC_MACRO

        platform = OptiquePlatform(
            ontology=build_siemens_ontology(),
            mappings=build_siemens_mappings(),
        )
        platform.attach_database("plant", small_fleet.plant_db)
        platform.register_stream(
            small_fleet.measurement_source(
                small_fleet.sensor_ids[:8] + small_fleet.ramp_sensors[:1],
                duration_seconds=20,
            )
        )
        platform.register_macro(MONOTONIC_MACRO)
        platform.register_macro(FAILURE_MACRO)

        session = platform.session(sink_capacity=8)
        handle = session.submit(
            diagnostic_catalog()[0].starql, name="fig1", max_windows=18
        )
        while platform.step(4):
            pass
        assert handle.state is QueryState.COMPLETED
        # the dashboard observed every window through the handle subscriber
        assert platform.dashboard.panel("fig1").windows_seen == 18
        # ...while the sink retained only its bounded tail
        assert len(handle.sink) <= 8
