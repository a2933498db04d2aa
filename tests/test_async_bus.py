"""Tests for the asyncio event-bus runtime: ``serve()`` vs ``step()``
differential identity across the Siemens task suite, per-subscriber
backpressure (``block`` vs ``drop_oldest``) under slow async consumers,
topic refcount release on cancellation mid-iteration (under audit),
exactly-once terminal transitions when a subscriber callback closes the
session mid-delivery, pulse accounting, and the ``repro.errors``
hierarchy with its deprecation shims."""

import asyncio
import warnings

import pytest

from repro import errors
from repro.analysis import verify_gateway
from repro.errors import QueryNotFound, ReproError, SinkOverflow
from repro.exastream import (
    BoundedResultSink,
    EventBus,
    GatewayServer,
    QueryState,
    Scheduler,
    StreamEngine,
    plan_sql,
)
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from test_session import SQL, engine_with_data


def canonical(results):
    """Byte-comparable view of a result sequence (content + order)."""
    return [
        (r.query, r.window_id, r.window_end, tuple(r.columns),
         tuple(tuple(row) for row in r.rows))
        for r in results
    ]


# ---------------------------------------------------------------------------
# EventBus / Topic / Subscription units


class TestEventBusUnit:
    def test_topic_created_on_subscribe_dropped_on_close(self):
        bus = EventBus()
        assert bus.topic("q") is None
        sub = bus.subscribe("q")
        assert bus.topic("q") is not None
        assert bus.topic_refcounts == {"q": 1}
        sub.close()
        assert bus.topics == {}
        sub.close()  # idempotent

    def test_publish_without_topic_is_noop(self):
        bus = EventBus()
        bus.publish("nobody", object())  # must not raise
        assert bus.metrics.results_published == 0

    def test_fanout_delivers_to_every_subscriber(self):
        bus = EventBus()
        a = bus.subscribe("q")
        b = bus.subscribe("q")
        bus.publish("q", "r0")
        bus.publish("q", "r1")
        assert list(a._queue) == list(b._queue) == ["r0", "r1"]
        assert bus.metrics.results_published == 2
        assert bus.metrics.fanout_deliveries == 4
        assert bus.metrics.fanout == 2.0
        assert bus.metrics.peak_subscribers == 2

    def test_drop_oldest_evicts_and_counts(self):
        bus = EventBus()
        sub = bus.subscribe("q", capacity=2)
        for i in range(5):
            bus.publish("q", i)
        assert list(sub._queue) == [3, 4]
        assert sub.dropped == 3
        assert bus.metrics.results_dropped == 3

    def test_capacity_zero_discards_everything(self):
        bus = EventBus()
        sub = bus.subscribe("q", capacity=0)
        bus.publish("q", "r")
        assert len(sub) == 0
        assert sub.dropped == 1

    def test_block_policy_would_block_and_force_offer_raises(self):
        bus = EventBus()
        sub = bus.subscribe("q", capacity=1, policy=BoundedResultSink.BLOCK)
        assert not bus.would_block("q")
        bus.publish("q", "r0")
        assert sub.would_block()
        assert bus.would_block("q")
        with pytest.raises(SinkOverflow):
            bus.publish("q", "r1")
        assert list(sub._queue) == ["r0"]

    def test_subscription_validation(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.subscribe("q", capacity=-1)
        with pytest.raises(ValueError):
            bus.subscribe("q", policy="teleport")

    def test_subscribe_after_finish_ends_immediately(self):
        bus = EventBus()
        keeper = bus.subscribe("q")  # keeps the topic alive past finish
        bus.finish("q")
        late = bus.topic("q").subscribe()
        with pytest.raises(StopAsyncIteration):
            asyncio.run(late.__anext__())
        assert late.closed
        keeper.close()
        assert bus.topics == {}

    def test_iteration_drains_then_stops_and_get_returns_none(self):
        bus = EventBus()
        sub = bus.subscribe("q")
        bus.publish("q", "r0")
        bus.publish("q", "r1")
        bus.finish("q")

        async def consume():
            items = [item async for item in sub]
            return items, await sub.get()

        items, tail = asyncio.run(consume())
        assert items == ["r0", "r1"]
        assert tail is None
        assert sub.delivered == 2
        assert sub.closed
        assert bus.topics == {}

    def test_async_context_manager_closes(self):
        bus = EventBus()

        async def use():
            async with bus.subscribe("q") as sub:
                bus.publish("q", "r0")
                assert await sub.get() == "r0"
            return sub

        sub = asyncio.run(use())
        assert sub.closed
        assert bus.topics == {}

    def test_wait_timeout_backstop(self):
        bus = EventBus()

        async def park():
            await bus.wait(timeout=0.001)  # nobody wakes: must return
            bus.wake()
            await bus.wait(timeout=None)  # pre-set wake: returns at once

        asyncio.run(park())


# ---------------------------------------------------------------------------
# serve() differential identity against the step() oracle


class TestServeStepDifferential:
    def run_oracle(self, n_seconds=12):
        gateway = GatewayServer(engine_with_data(n_seconds))
        a = gateway.register(SQL, name="a", sink_capacity=None)
        b = gateway.register(SQL, name="b", sink_capacity=None)
        while gateway.step():
            pass
        return {"a": canonical(a.results()), "b": canonical(b.results())}

    def test_serve_matches_step_two_queries(self):
        oracle = self.run_oracle()

        async def run_async():
            gateway = GatewayServer(engine_with_data())
            a = gateway.register(SQL, name="a", sink_capacity=None)
            b = gateway.register(SQL, name="b", sink_capacity=None)
            streams = {"a": a.stream(), "b": b.stream()}

            async def collect(sub):
                return [result async for result in sub]

            tasks = {
                name: asyncio.create_task(collect(sub))
                for name, sub in streams.items()
            }
            await gateway.serve()
            streamed = {name: await task for name, task in tasks.items()}
            sinks = {"a": a.results(), "b": b.results()}
            return streamed, sinks

        streamed, sinks = asyncio.run(run_async())
        for name in ("a", "b"):
            assert canonical(streamed[name]) == oracle[name]
            assert canonical(sinks[name]) == oracle[name]

    def test_serve_fans_out_to_many_subscribers_per_query(self):
        """One registered query per task, many viewers: every bus
        subscriber receives the polled oracle's sequence, and the topics
        are gone once the last one drains."""
        oracle = self.run_oracle()
        viewers = 40

        async def run_async():
            gateway = GatewayServer(engine_with_data())
            queries = {
                name: gateway.register(SQL, name=name, sink_capacity=None)
                for name in ("a", "b")
            }

            async def collect(sub):
                return [result async for result in sub]

            # subscribe *before* serving: no pulse precedes anyone
            tasks = {
                name: [
                    asyncio.create_task(collect(query.stream()))
                    for _ in range(viewers)
                ]
                for name, query in queries.items()
            }
            await gateway.serve()
            streamed = {
                name: [await task for task in consumers]
                for name, consumers in tasks.items()
            }
            return gateway, streamed

        gateway, streamed = asyncio.run(run_async())
        for name in ("a", "b"):
            assert len(streamed[name]) == viewers
            for received in streamed[name]:
                assert canonical(received) == oracle[name]
        assert gateway.bus.topics == {}
        metrics = gateway.bus.metrics
        assert metrics.peak_subscribers == 2 * viewers
        assert metrics.results_dropped == 0
        assert metrics.fanout == viewers
        verify_gateway(gateway)

    def test_serve_matches_step_across_siemens_suite(self, small_fleet):
        """The acceptance differential: every catalog task, bus delivery
        byte-identical (content and per-query order) to the sync oracle."""
        tasks = diagnostic_catalog()

        oracle_dep = deploy(fleet=small_fleet, stream_duration=25)
        oracle_session = oracle_dep.session(sink_capacity=None)
        oracle_handles = {}
        for index, task in enumerate(tasks):
            name = f"task{index:02d}"
            oracle_handles[name] = oracle_session.submit(task.starql, name=name)
        while oracle_dep.step():
            pass
        oracle = {
            name: canonical(handle.registered.results())
            for name, handle in oracle_handles.items()
        }

        async_dep = deploy(fleet=small_fleet, stream_duration=25)

        async def run_async():
            session = async_dep.async_session(sink_capacity=None)
            handles = {}
            for index, task in enumerate(tasks):
                name = f"task{index:02d}"
                handles[name] = session.submit(task.starql, name=name)
            streams = {
                name: handle.stream() for name, handle in handles.items()
            }

            async def collect(sub):
                return [result async for result in sub]

            collectors = {
                name: asyncio.create_task(collect(sub))
                for name, sub in streams.items()
            }
            await session.serve()
            streamed = {name: await c for name, c in collectors.items()}
            sinks = {
                name: handle.registered.results()
                for name, handle in handles.items()
            }
            return streamed, sinks

        streamed, sinks = asyncio.run(run_async())
        assert set(streamed) == set(oracle)
        for name in oracle:
            assert canonical(streamed[name]) == oracle[name], name
            assert canonical(sinks[name]) == oracle[name], name
        assert sum(len(r) for r in oracle.values()) > 0

    def test_serve_respects_per_call_window_limit(self):
        async def run():
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(SQL, name="q", sink_capacity=None)
            executed = await gateway.serve(window_limit=2)
            return q, executed

        q, executed = asyncio.run(run())
        assert executed == 2
        assert q.next_window == 2
        assert q.state is QueryState.RUNNING  # still runnable beyond the cap


# ---------------------------------------------------------------------------
# backpressure under slow async consumers


class TestBackpressure:
    def test_block_policy_defers_producer_for_slow_consumer(self):
        async def run():
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(SQL, name="q", sink_capacity=None)
            sub = q.stream(capacity=1, policy=BoundedResultSink.BLOCK)
            received = []
            peak = 0

            async def slow_consumer():
                nonlocal peak
                async for result in sub:
                    peak = max(peak, len(sub) + 1)
                    received.append(result.window_id)
                    await asyncio.sleep(0.005)  # slower than the producer

            consumer = asyncio.create_task(slow_consumer())
            executed = await gateway.serve(drain_poll=0.005)
            await consumer
            return gateway, q, received, peak, executed

        gateway, q, received, peak, executed = asyncio.run(run())
        assert q.state is QueryState.COMPLETED
        assert received == list(range(q.next_window))  # nothing lost
        assert peak <= 1  # the bound held: producer deferred, never dropped
        assert gateway.bus.metrics.backpressure_deferrals > 0
        assert gateway.bus.metrics.results_dropped == 0

    def test_drop_oldest_keeps_tail_and_never_stalls(self):
        async def run():
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(SQL, name="q", sink_capacity=None)
            sub = q.stream(capacity=2, policy=BoundedResultSink.DROP_OLDEST)
            executed = await gateway.serve()  # consumer never once drained
            remaining = [result.window_id async for result in sub]
            return gateway, q, sub, remaining, executed

        gateway, q, sub, remaining, executed = asyncio.run(run())
        assert executed == q.next_window
        assert remaining == [q.next_window - 2, q.next_window - 1]
        assert sub.dropped == q.next_window - 2
        assert gateway.bus.metrics.backpressure_deferrals == 0

    def test_block_sink_drained_by_pull_side_poll_under_serve(self):
        """The drain_poll backstop: sink.poll() has no wake channel, yet
        a serve() loop parked behind a full BLOCK sink must notice."""

        async def run():
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(
                SQL, name="q", sink_capacity=2,
                sink_policy=BoundedResultSink.BLOCK,
            )
            polled = []

            async def puller():
                while not q.state.is_terminal:
                    polled.extend(r.window_id for r in q.poll())
                    await asyncio.sleep(0.002)
                polled.extend(r.window_id for r in q.poll())

            pull = asyncio.create_task(puller())
            executed = await gateway.serve(drain_poll=0.002)
            await pull
            return q, polled, executed

        q, polled, executed = asyncio.run(run())
        assert q.state is QueryState.COMPLETED
        assert polled == list(range(q.next_window))
        assert executed == q.next_window


# ---------------------------------------------------------------------------
# cancellation, topic refcounts, audit-mode bookkeeping


class TestCancellationRefcounts:
    def test_cancel_mid_iteration_releases_topic_ref(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")

        async def run():
            gateway = GatewayServer(engine_with_data())
            assert gateway.audit
            q = gateway.register(SQL, name="q", sink_capacity=None)
            sub_a = q.stream()
            sub_b = q.stream()
            assert gateway.bus.topic_refcounts == {"q": 2}
            gateway.step(2)  # two results queued on both subscriptions
            a_results = []

            async def consume_a():
                async for result in sub_a:
                    a_results.append(result.window_id)

            task_a = asyncio.create_task(consume_a())
            await asyncio.sleep(0)  # drains both queued, parks in __anext__
            assert a_results == [0, 1]
            task_a.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task_a
            # cancellation mid-iteration released the topic reference
            assert sub_a.closed
            assert gateway.bus.topic_refcounts == {"q": 1}
            verify_gateway(gateway)

            collector = asyncio.create_task(
                self._collect_ids(sub_b)
            )
            await gateway.serve()
            b_results = await collector
            verify_gateway(gateway)
            return gateway, q, a_results, b_results

        gateway, q, a_results, b_results = asyncio.run(run())
        assert q.state is QueryState.COMPLETED
        assert b_results == list(range(q.next_window))  # b saw everything
        assert gateway.bus.topics == {}  # last drain dropped the topic

    @staticmethod
    async def _collect_ids(sub):
        return [result.window_id async for result in sub]

    def test_deregister_finishes_live_subscriptions(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")

        async def run():
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(SQL, name="q", sink_capacity=None)
            sub = q.stream()
            gateway.step(2)
            gateway.deregister("q")  # audit runs here: topic must be finished
            return gateway, [r.window_id async for r in sub]

        gateway, drained = asyncio.run(run())
        assert drained == [0, 1]  # buffered results survive the deregister
        assert gateway.bus.topics == {}


# ---------------------------------------------------------------------------
# re-entrant close mid-delivery: terminal transition exactly once


class TestReentrantClose:
    def test_session_close_inside_callback_terminal_once(self, deployment):
        session = deployment.session(sink_capacity=None)
        handle = session.submit(diagnostic_catalog()[0].starql, name="reent")
        bus = deployment.gateway.bus
        sub = handle.stream()  # live topic: finish() becomes observable
        finishes = []
        original_finish = bus.finish

        def counting_finish(name):
            finishes.append(name)
            original_finish(name)

        bus.finish = counting_finish
        try:
            handle.subscribe(lambda result: session.close())
            deployment.step(3)  # close fires inside the first delivery
        finally:
            bus.finish = original_finish
        assert finishes.count("reent") == 1  # exactly one terminal transition
        assert handle.state is QueryState.CANCELLED
        assert "reent" not in deployment.gateway
        assert session.handles == []
        session.close()  # idempotent
        # the in-flight window was delivered before the topic finished
        drained = asyncio.run(self._drain_ids(sub))
        assert drained == [0]
        verify_gateway(deployment.gateway)

    @staticmethod
    async def _drain_ids(sub):
        return [result.window_id async for result in sub]

    def test_handle_is_a_context_manager(self, deployment):
        session = deployment.session()
        with session.submit(diagnostic_catalog()[0].starql, name="ctx") as h:
            deployment.step(2)
            assert h.windows_executed == 2
        assert h.state is QueryState.CANCELLED
        assert "ctx" not in deployment.gateway
        h.close()  # idempotent


# ---------------------------------------------------------------------------
# serve() as a long-lived runtime + AsyncSession facade


class TestAsyncSessionRuntime:
    def test_serve_parks_then_picks_up_late_registration(self):
        async def run():
            gateway = GatewayServer(engine_with_data())
            server = asyncio.create_task(
                gateway.serve(stop_when_idle=False, drain_poll=0.01)
            )
            await asyncio.sleep(0.02)  # server is parked: nothing registered
            q = gateway.register(SQL, name="late", sink_capacity=None)
            got = [r.window_id async for r in q.stream()]
            server.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server
            return q, got

        q, got = asyncio.run(run())
        assert q.state is QueryState.COMPLETED
        assert got == list(range(q.next_window))
        assert q.next_window > 0

    def test_async_session_context_and_drain(self, deployment):
        async def run():
            async with deployment.async_session(sink_capacity=None) as session:
                handle = session.submit(
                    diagnostic_catalog()[0].starql, name="dash", max_windows=4
                )
                drainer = asyncio.create_task(session.drain(handle))
                await asyncio.sleep(0)  # let the drainer subscribe first
                executed = await session.serve()
                results = await drainer
                state_inside = handle.state
            return handle, results, executed, state_inside

        handle, results, executed, state_inside = asyncio.run(run())
        assert state_inside is QueryState.COMPLETED
        assert [r.window_id for r in results] == [0, 1, 2, 3]
        assert executed >= 4
        # leaving the async-with closed the session's handles
        assert "dash" not in deployment.gateway

    def test_handle_aiter_shorthand(self, deployment):
        async def run():
            session = deployment.async_session(sink_capacity=None)
            handle = session.submit(
                diagnostic_catalog()[1].starql, name="short", max_windows=3
            )

            async def consume():
                return [r.window_id async for r in handle]

            collector = asyncio.create_task(consume())
            await asyncio.sleep(0)  # let the consumer subscribe first
            await session.serve()
            return await collector

        assert asyncio.run(run()) == [0, 1, 2]


# ---------------------------------------------------------------------------
# scheduler pulse accounting


class TestPulseAccounting:
    def test_observe_folds_cost_and_remove_drains(self):
        engine = engine_with_data()
        scheduler = Scheduler(2)
        plan = plan_sql(SQL, engine, name="q")
        scheduler.place(plan)
        before = sum(worker.load for worker in scheduler.workers)
        scheduler.observe("q", seconds=1.0, tuples=1000)
        after = sum(worker.load for worker in scheduler.workers)
        assert after != before  # the EMA folded the observation in
        per_query = sum(
            p.cost for p in scheduler._by_query["q"]
            if not p.operator.startswith("shard[")
        )
        assert after == pytest.approx(per_query)
        scheduler.remove("q")
        assert all(abs(w.load) < 1e-9 for w in scheduler.workers)

    def test_observe_unknown_query_is_noop(self):
        scheduler = Scheduler(2)
        scheduler.observe("ghost", seconds=1.0)
        assert all(w.load == 0 for w in scheduler.workers)

    def test_gateway_pulses_report_and_deregister_drains(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        scheduler = Scheduler(2)
        gateway = GatewayServer(engine_with_data(), scheduler=scheduler)
        gateway.register(SQL, name="q", sink_capacity=None)
        while gateway.step():
            pass
        gateway.deregister("q")  # audit asserts worker loads drained
        assert all(abs(w.load) < 1e-9 for w in scheduler.workers)


# ---------------------------------------------------------------------------
# the repro.errors hierarchy + deprecation shims


class TestErrorsHierarchy:
    def test_deregister_unknown_raises_query_not_found(self):
        gateway = GatewayServer(engine_with_data())
        with pytest.raises(QueryNotFound) as excinfo:
            gateway.deregister("ghost")
        assert isinstance(excinfo.value, KeyError)  # compat base kept
        assert isinstance(excinfo.value, ReproError)
        assert str(excinfo.value) == "query 'ghost' is not registered"
        assert excinfo.value.name == "ghost"

    def test_gateway_query_unknown_raises_query_not_found(self):
        gateway = GatewayServer(engine_with_data())
        with pytest.raises(QueryNotFound):
            gateway.query("ghost")

    def test_session_handle_unknown_raises_query_not_found(self, deployment):
        session = deployment.session()
        with pytest.raises(QueryNotFound):
            session.handle("ghost")

    def test_sink_overflow_bases(self):
        assert issubclass(SinkOverflow, ReproError)
        assert issubclass(SinkOverflow, RuntimeError)

    def test_analysis_errors_reparented_and_reexported(self):
        from repro.analysis import InvariantViolation

        assert errors.InvariantViolation is InvariantViolation
        with pytest.raises(AttributeError):  # strict registration is gone
            errors.StrictAnalysisError
        assert issubclass(InvariantViolation, ReproError)
        assert issubclass(InvariantViolation, AssertionError)  # compat base

    def test_errors_module_rejects_unknown_names(self):
        with pytest.raises(AttributeError):
            errors.NoSuchError


class TestDeprecationShims:
    def test_state_is_the_one_lifecycle_accessor(self, deployment):
        session = deployment.session()
        handle = session.submit(diagnostic_catalog()[0].starql, name="dep")
        assert handle.state is QueryState.REGISTERED
        assert not hasattr(handle, "status")  # the deprecated alias is gone

    def test_step_loop_replaces_the_removed_batch_run(self):
        gateway = GatewayServer(engine_with_data())
        q = gateway.register(SQL, name="q", sink_capacity=None)
        assert not hasattr(gateway, "run")
        while gateway.step():
            pass
        assert q.state is QueryState.COMPLETED

    def test_state_property_does_not_warn(self, deployment):
        session = deployment.session()
        handle = session.submit(diagnostic_catalog()[0].starql, name="clean")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert handle.state is QueryState.REGISTERED


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(FleetConfig(turbines=4, plants=2, correlated_pairs=2))


@pytest.fixture()
def deployment(small_fleet):
    return deploy(fleet=small_fleet, stream_duration=25)
