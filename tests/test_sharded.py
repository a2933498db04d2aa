"""Shard-boundary semantics: partition analysis, N-shard determinism,
merge operators, the shard-assignment scheduler and worker processes."""

import pytest

import cqgen
from repro.exastream import (
    GatewayServer,
    PartitionMode,
    Scheduler,
    ShardedEngine,
    StreamEngine,
    plan_sql,
    stable_hash,
)
from repro.exastream.sharded import fork_available
from repro.relational import Column, SQLType
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.streams import Heartbeat, ListSource, Stream, StreamSchema, WindowSpec
from repro.streams import time_sliding_window

SCHEMA = cqgen.SCHEMA


def measurement_rows(n_seconds=40, n_sensors=12, gap_sensor=None, gap_after=10):
    """This suite's workload shape (12 sensors, trailing per-sensor gap,
    integer-valued floats) over the shared generator.

    ``fraction=0.0`` matters: PARTIAL-mode merges re-add shard sums, so
    bitwise shard-count invariance needs addition-order-insensitive
    values."""
    return cqgen.measurement_rows(
        n_seconds, n_sensors, gap_sensor=gap_sensor,
        gap=(gap_after + 1, n_seconds), fraction=0.0,
    )


def engine_with(rows, cls=StreamEngine, shards=1, **kwargs):
    """``cls`` only labels the call sites: ``ShardedEngine`` is the one
    engine class under its historical name, the width is ``shards``."""
    assert cls is StreamEngine
    return cqgen.build_engine(
        rows, shards=shards, attach_static=False, **kwargs
    )


def run_gateway(engine, sql, **register_kwargs):
    gateway = GatewayServer(engine)
    query = gateway.register(sql, name="q", **register_kwargs)
    while gateway.step():
        pass
    results = [
        (r.window_id, r.window_end, r.columns, r.rows) for r in query.results()
    ]
    gateway.deregister("q")
    return results


PARTITIONED_SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS m, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 12, 4) AS w GROUP BY w.sid"
)
PARTIAL_SQL = (
    "SELECT COUNT(*) AS n, MIN(w.val) AS lo, MAX(w.val) AS hi, AVG(w.val) AS m "
    "FROM timeSlidingWindow(S, 12, 4) AS w"
)
PROJECTION_SQL = (
    "SELECT w.ts AS t, w.val AS v "
    "FROM timeSlidingWindow(S, 4, 4) AS w WHERE w.sid = 3"
)


class TestAnalyzer:
    def test_group_by_stream_key_is_partitioned(self):
        engine = engine_with(measurement_rows())
        decision = plan_sql(PARTITIONED_SQL, engine, name="p").partitioning
        assert decision.mode is PartitionMode.PARTITIONED
        assert decision.key_column == "sid"
        assert decision.stream_keys == {"S": 1}
        assert "aggregate" in decision.partitionable_operators
        assert decision.merge_operators == ("merge[concat]",)

    def test_global_combinable_aggregate_is_partial(self):
        engine = engine_with(measurement_rows())
        decision = plan_sql(PARTIAL_SQL, engine, name="p").partitioning
        assert decision.mode is PartitionMode.PARTIAL
        assert decision.merge_operators == ("merge[combine]",)

    def test_projection_is_singleton(self):
        engine = engine_with(measurement_rows())
        decision = plan_sql(PROJECTION_SQL, engine, name="p").partitioning
        assert decision.mode is PartitionMode.SINGLETON

    def test_sequence_udf_with_key_is_partitioned(self):
        schema = StreamSchema(
            (
                Column("ts", SQLType.REAL),
                Column("sid", SQLType.INTEGER),
                Column("val", SQLType.REAL),
                Column("failure", SQLType.INTEGER),
            ),
            time_column="ts",
        )
        engine = StreamEngine()
        engine.register_stream(
            ListSource(Stream("S", schema), [(0.0, 1, 1.0, 0)])
        )
        sql = (
            "SELECT w.sid AS s, MONOTONIC_HAVING(w.ts, w.val, w.failure) AS a "
            "FROM timeSlidingWindow(S, 10, 1) AS w GROUP BY w.sid"
        )
        decision = plan_sql(sql, engine, name="p").partitioning
        assert decision.mode is PartitionMode.PARTITIONED

    def test_sequence_udf_without_key_is_singleton(self):
        schema = StreamSchema(
            (
                Column("ts", SQLType.REAL),
                Column("sid", SQLType.INTEGER),
                Column("val", SQLType.REAL),
                Column("failure", SQLType.INTEGER),
            ),
            time_column="ts",
        )
        engine = StreamEngine()
        engine.register_stream(
            ListSource(Stream("S", schema), [(0.0, 1, 1.0, 0)])
        )
        sql = (
            "SELECT MONOTONIC_HAVING(w.ts, w.val, w.failure) AS a "
            "FROM timeSlidingWindow(S, 10, 1) AS w"
        )
        decision = plan_sql(sql, engine, name="p").partitioning
        assert decision.mode is PartitionMode.SINGLETON

    def test_static_join_key_reaches_stream_via_equivalence(self):
        """GROUP BY s.sid with w.sid = s.sid partitions the stream on sid."""
        from repro.relational import Database, Schema, Table

        schema = Schema("plant")
        schema.add(
            Table(
                "sensor_info",
                [Column("sid", SQLType.INTEGER), Column("assembly", SQLType.TEXT)],
                primary_key=("sid",),
            )
        )
        db = Database(schema)
        db.insert("sensor_info", [(s, f"a{s % 3}") for s in range(12)])
        engine = engine_with(measurement_rows())
        engine.attach_database("plant", db)
        sql = (
            "SELECT i.sid AS s, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 8, 4) AS w, sensor_info AS i "
            "WHERE w.sid = i.sid GROUP BY i.sid"
        )
        decision = plan_sql(sql, engine, name="p").partitioning
        assert decision.mode is PartitionMode.PARTITIONED
        assert decision.stream_keys == {"S": 1}
        # grouping by a non-key static column cannot stay shard-local
        sql2 = (
            "SELECT i.assembly AS a, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 8, 4) AS w, sensor_info AS i "
            "WHERE w.sid = i.sid GROUP BY i.assembly"
        )
        decision2 = plan_sql(sql2, engine, name="p2").partitioning
        assert decision2.mode is PartitionMode.PARTIAL

    def test_stable_hash_is_value_stable(self):
        assert stable_hash(2) == stable_hash(2.0)
        assert stable_hash("sensor-1") == stable_hash("sensor-1")
        assert stable_hash("a") != stable_hash("b")


class TestDeterminism:
    """shards=N output must equal shards=1 output exactly."""

    @pytest.mark.parametrize("sql", [PARTITIONED_SQL, PARTIAL_SQL, PROJECTION_SQL])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_synthetic_stream_equality(self, sql, shards):
        rows = measurement_rows()
        plain = run_gateway(engine_with(rows), sql)
        sharded = run_gateway(
            engine_with(rows, ShardedEngine, shards=shards), sql, shards=shards
        )
        assert plain == sharded
        assert len(plain) > 0

    def test_sparse_shard_keeps_window_grid(self):
        """A sensor that stops early must not cut its shard's grid short."""
        rows = measurement_rows(n_seconds=60, gap_sensor=5, gap_after=8)
        sql = (
            "SELECT w.sid AS s, COUNT(*) AS n, AVG(w.val) AS m "
            "FROM timeSlidingWindow(S, 30, 5) AS w GROUP BY w.sid"
        )
        plain = run_gateway(engine_with(rows), sql)
        sharded = run_gateway(
            engine_with(rows, ShardedEngine, shards=4), sql, shards=4
        )
        assert plain == sharded

    def test_siemens_generator_streams_equal(self):
        """Windows over the Siemens generator streams: shards=1 == shards=4."""
        fleet = generate_fleet(FleetConfig(turbines=4, plants=2))
        sql = (
            "SELECT w.sid AS s, AVG(w.val) AS m, MAX(w.val) AS mx "
            "FROM timeSlidingWindow(S_Msmt, 10, 5) AS w GROUP BY w.sid"
        )

        def run(shards):
            dep = deploy(fleet=fleet, stream_duration=20, shards=shards)
            gateway = dep.gateway
            query = gateway.register(sql, name="q")
            while gateway.step():
                pass
            return [
                (r.window_id, r.window_end, r.columns, r.rows)
                for r in query.results()
            ]

        one, four = run(1), run(4)
        assert one == four
        assert len(one) > 0

    def test_siemens_starql_session_equal(self):
        """The full STARQL path through sessions agrees at any shard count."""
        fleet = generate_fleet(FleetConfig(turbines=4, plants=2))
        starql = diagnostic_catalog()[0].starql

        def run(shards):
            dep = deploy(fleet=fleet, stream_duration=20, shards=shards)
            with dep.session() as session:
                handle = session.submit(starql, name="t")
                while session.step(1):
                    pass
                return [
                    (r.window_id, r.window_end, r.rows)
                    for r in handle.registered.results()
                ]

        assert run(1) == run(4)

    def test_mixed_shard_counts_share_one_engine(self):
        """Regression: different partition layouts of the same window
        grid must not poison each other's cached batches."""
        rows = measurement_rows()
        plain = run_gateway(engine_with(rows), PARTITIONED_SQL)
        engine = engine_with(rows, ShardedEngine, shards=4)
        gateway = GatewayServer(engine)
        q1 = gateway.register(PARTITIONED_SQL, name="one", shards=1)
        q4 = gateway.register(PARTITIONED_SQL, name="four", shards=4)
        q2 = gateway.register(PARTITIONED_SQL, name="two", shards=2)
        while gateway.step():
            pass
        for query in (q1, q4, q2):
            got = [
                (r.window_id, r.window_end, r.columns, r.rows)
                for r in query.results()
            ]
            assert got == plain, query.name

    def test_two_stream_join_partial_stays_exact(self):
        """Regression: a combinable aggregate over a two-stream equi-join
        must co-partition on the join key (round-robin loses pairs)."""
        rows_a = [(float(t), s, float(s)) for t in range(20) for s in range(5)]
        rows_b = [(float(t), s, float(s * 2)) for t in range(20) for s in range(5)]

        def build(cls=StreamEngine, **kwargs):
            engine = cls(**kwargs)
            engine.register_stream(ListSource(Stream("A", SCHEMA), rows_a))
            engine.register_stream(ListSource(Stream("B", SCHEMA), rows_b))
            return engine

        sql = (
            "SELECT COUNT(*) AS n, MAX(b.val) AS mx "
            "FROM timeSlidingWindow(A, 4, 4) AS a, "
            "timeSlidingWindow(B, 4, 4) AS b WHERE a.sid = b.sid"
        )
        decision = plan_sql(sql, build(), name="j").partitioning
        assert decision.mode is PartitionMode.PARTIAL
        assert decision.stream_keys == {"A": 1, "B": 1}  # co-partitioned
        plain = run_gateway(build(), sql)
        sharded = run_gateway(build(ShardedEngine, shards=2), sql, shards=2)
        assert plain == sharded

    def test_two_stream_cross_join_falls_back_to_singleton(self):
        rows = [(float(t), s, 1.0) for t in range(8) for s in range(2)]
        engine = StreamEngine()
        engine.register_stream(ListSource(Stream("A", SCHEMA), rows))
        engine.register_stream(ListSource(Stream("B", SCHEMA), rows))
        sql = (
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(A, 4, 4) AS a, "
            "timeSlidingWindow(B, 4, 4) AS b"
        )
        decision = plan_sql(sql, engine, name="x").partitioning
        assert decision.mode is PartitionMode.SINGLETON

    def test_shard_count_must_fit_pool(self):
        engine = engine_with(measurement_rows(), ShardedEngine, shards=2)
        gateway = GatewayServer(engine)
        with pytest.raises(ValueError):
            gateway.register(PARTITIONED_SQL, name="q", shards=8)

    def test_plain_engine_rejects_shards(self):
        gateway = GatewayServer(engine_with(measurement_rows()))
        with pytest.raises(ValueError):
            gateway.register(PARTITIONED_SQL, name="q", shards=4)
        # shards=1 is accepted anywhere
        gateway.register(PARTITIONED_SQL, name="q1", shards=1)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestForkWorkers:
    def test_fork_matches_serial(self):
        rows = measurement_rows()
        serial = run_gateway(
            engine_with(rows, ShardedEngine, shards=4), PARTITIONED_SQL, shards=4
        )
        forked = run_gateway(
            engine_with(rows, ShardedEngine, shards=4, parallel="fork"),
            PARTITIONED_SQL,
            shards=4,
        )
        assert serial == forked

    def test_deregister_reaps_worker_processes(self):
        import multiprocessing

        engine = engine_with(
            measurement_rows(), ShardedEngine, shards=2, parallel="fork"
        )
        gateway = GatewayServer(engine)
        gateway.register(PARTITIONED_SQL, name="q")
        gateway.step(2)
        assert any(p.is_alive() for p in multiprocessing.active_children())
        gateway.deregister("q")
        for child in multiprocessing.active_children():
            child.join(timeout=2)
        assert not any(p.is_alive() for p in multiprocessing.active_children())


class TestHeartbeat:
    def test_heartbeat_advances_watermark_without_data(self):
        spec = WindowSpec(2, 1)
        rows = [(0.0,), (1.0,)]
        batches = list(
            time_sliding_window(rows + [Heartbeat(5.0)], spec, 0, start=0.0)
        )
        plain = list(time_sliding_window(rows, spec, 0, start=0.0))
        # heartbeat forces the same drains a tuple at ts=5.0 would
        assert len(batches) > len(plain)
        assert [len(b) for b in batches[:2]] == [len(b) for b in plain[:2]]

    def test_heartbeat_anchor_on_empty_shard(self):
        spec = WindowSpec(2, 1)
        batches = list(time_sliding_window([Heartbeat(3.0)], spec, 0))
        assert all(len(b) == 0 for b in batches)


class TestScheduler:
    def _plan(self, name="p"):
        engine = engine_with(measurement_rows())
        return plan_sql(PARTITIONED_SQL, engine, name=name)

    def test_deregister_releases_all_load(self):
        scheduler = Scheduler(2)
        scheduler.place(self._plan("q1"))
        scheduler.assign_shards("q1", 4)
        assert scheduler.total_load() > 0
        scheduler.remove("q1")
        assert scheduler.total_load() == pytest.approx(0.0)
        assert scheduler.placements_for("q1") == []
        assert all(not w.placements for w in scheduler.workers)

    def test_scan_affinity_released_with_last_query(self):
        """Regression: a departed query must not leave phantom cache
        discounts behind (load drift across register/deregister)."""
        scheduler = Scheduler(2)
        first = scheduler.place(self._plan("q1"))
        full_cost = sum(p.cost for p in first if p.operator.startswith("scan["))
        second = scheduler.place(self._plan("q2"))
        discounted = sum(
            p.cost for p in second if p.operator.startswith("scan[")
        )
        assert discounted == pytest.approx(
            full_cost * Scheduler.CACHED_SCAN_FACTOR
        )
        scheduler.remove("q1")
        scheduler.remove("q2")
        assert scheduler.total_load() == pytest.approx(0.0)
        third = scheduler.place(self._plan("q3"))
        recharged = sum(p.cost for p in third if p.operator.startswith("scan["))
        assert recharged == pytest.approx(full_cost)  # discount is gone

    def test_mid_run_deregister_via_gateway(self):
        scheduler = Scheduler(2)
        engine = engine_with(measurement_rows())
        gateway = GatewayServer(engine, scheduler=scheduler)
        gateway.register(PARTITIONED_SQL, name="a")
        gateway.register(PARTITIONED_SQL, name="b")
        gateway.step(3)  # mid-run
        gateway.deregister("a")
        # b's own (residual) placements plus the shared pipeline prefix
        # remain — b still subscribes to the pipeline, so its operators
        # stay accounted exactly once
        remaining = sum(p.cost for p in scheduler.placements_for("b"))
        shared = sum(
            p.cost
            for w in scheduler.workers
            for p in w.placements
            if p.query.startswith("mqo::")
        )
        assert shared > 0  # a's departure did not tear the pipeline down
        assert scheduler.total_load() == pytest.approx(remaining + shared)
        gateway.deregister("b")
        assert scheduler.total_load() == pytest.approx(0.0)

    def test_shard_assignment_spreads_least_loaded(self):
        scheduler = Scheduler(4)
        workers = scheduler.assign_shards("q", 8, cost_per_shard=1.0)
        assert sorted(set(workers)) == [0, 1, 2, 3]
        assert scheduler.balance() == pytest.approx(1.0)

    def test_observe_and_rebalance_moves_hot_shards(self):
        scheduler = Scheduler(2)
        scheduler.assign_shards("q", 4, cost_per_shard=1.0)
        # shard 0 and 1 land on workers 0/1; make worker 0's shards hot
        assignments = scheduler.shard_assignments("q")
        hot = [s for s, w in assignments.items() if w == 0]
        for shard in hot:
            for _ in range(6):
                scheduler.observe_shard("q", shard, seconds=0.01)
        assert scheduler.balance() > 1.25
        moves = scheduler.rebalance(threshold=1.25)
        assert moves
        assert scheduler.balance() <= 1.25 or len(moves) > 0
        moved_ops = {m[1] for m in moves}
        assert all(op.startswith("shard[") for op in moved_ops)

    def test_sharded_engine_reports_loads(self):
        scheduler = Scheduler(2)
        engine = ShardedEngine(shards=4, scheduler=scheduler)
        engine.register_stream(ListSource(Stream("S", SCHEMA), measurement_rows()))
        plan = plan_sql(PARTITIONED_SQL, engine, name="q")
        results = list(engine.run_continuous(plan))
        assert results
        assignments = scheduler.shard_assignments("q")
        assert len(assignments) == 4
        assert scheduler.total_load() > 0


class TestReaderSharing:
    def test_two_queries_share_shard_readers(self):
        engine = engine_with(measurement_rows(), ShardedEngine, shards=2)
        gateway = GatewayServer(engine)
        gateway.register(PARTITIONED_SQL, name="a")
        gateway.register(PARTITIONED_SQL, name="b")
        while gateway.step():
            pass
        # the second query's windows come from the shard caches (batch
        # hits on the recompute path, pane hits on the incremental path)
        assert any(
            cache.stats.hits + cache.stats.pane_hits > 0
            for cache in engine.caches
        )

    def test_release_reader_on_last_deregister(self):
        engine = engine_with(measurement_rows(), ShardedEngine, shards=2)
        gateway = GatewayServer(engine)
        gateway.register(PARTITIONED_SQL, name="a")
        gateway.register(PARTITIONED_SQL, name="b")
        gateway.step(2)
        gateway.deregister("a")
        assert gateway.shared_reader_count == 2  # one per shard, b's
        gateway.deregister("b")
        assert gateway.shared_reader_count == 0
        assert not any(engine.catalog.values())
