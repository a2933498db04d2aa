"""Tests for the EXASTREAM engine: operators, planner, gateway, scheduler,
UDFs, fusion and the cluster simulator."""

import hashlib
import random

import pytest

from repro.exastream import (
    ClusterParameters,
    ClusterSimulator,
    GatewayServer,
    PlanningError,
    Relation,
    Scheduler,
    StaticTable,
    StreamEngine,
    builtin_registry,
    calibrate,
    compile_expr,
    fuse,
    hash_join,
    hash_join_rows,
    nested_loop_join,
    plan_sql,
)
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.sql import BinOp, Col, Func, Lit, UnaryOp
from repro.streams import ListSource, Stream, StreamSchema

import cqgen
from test_pane_join import assert_join_differential


def measurement_stream(rows, name="S_Msmt"):
    schema = StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sid", SQLType.INTEGER),
            Column("val", SQLType.REAL),
            Column("failure", SQLType.INTEGER),
        ),
        time_column="ts",
    )
    return ListSource(Stream(name, schema), rows)


def info_db():
    schema = Schema("plant")
    schema.add(
        Table(
            "sensor_info",
            [Column("sid", SQLType.INTEGER), Column("assembly", SQLType.TEXT)],
            primary_key=("sid",),
        )
    )
    db = Database(schema)
    db.insert("sensor_info", [(1, "rotor"), (2, "stator"), (3, "burner")])
    return db


def engine_with_data(n_seconds=12):
    rows = []
    for t in range(n_seconds):
        rows.append((float(t), 1, 50.0 + t, 1 if t == 9 else 0))
        rows.append((float(t), 2, 60.0 - (t % 3), 0))
    engine = StreamEngine()
    engine.register_stream(measurement_stream(rows))
    engine.attach_database("plant", info_db())
    return engine


class TestRelationAndExpr:
    def test_colmap_with_fallback(self):
        rel = Relation(["w.ts", "w.val"], [(0.0, 1.0)])
        assert rel.index_of("w.ts") == 0
        assert rel.index_of("val") == 1

    def test_ambiguous_bare_name_not_registered(self):
        rel = Relation(["a.x", "b.x"], [])
        with pytest.raises(KeyError):
            rel.index_of("x")

    def test_compile_arithmetic(self):
        rel = Relation(["v"], [])
        fn = compile_expr(BinOp("+", Col(None, "v"), Lit(2)), rel)
        assert fn((40,)) == 42

    def test_compile_comparison_null_safe(self):
        rel = Relation(["v"], [])
        fn = compile_expr(BinOp(">", Col(None, "v"), Lit(1)), rel)
        assert fn((None,)) is False

    def test_compile_concat(self):
        rel = Relation(["v"], [])
        fn = compile_expr(BinOp("||", Lit("x"), Col(None, "v")), rel)
        assert fn((7,)) == "x7"

    def test_compile_not_and_or(self):
        rel = Relation(["v"], [])
        expr = BinOp(
            "OR",
            UnaryOp("NOT", BinOp("=", Col(None, "v"), Lit(1))),
            BinOp("=", Col(None, "v"), Lit(2)),
        )
        fn = compile_expr(expr, rel)
        assert fn((3,)) and fn((2,)) and not fn((1,))

    def test_compile_in_list(self):
        rel = Relation(["v"], [])
        fn = compile_expr(Func("IN_LIST", (Col(None, "v"), Lit(1), Lit(2))), rel)
        assert fn((1,)) and not fn((3,))

    def test_compile_like(self):
        rel = Relation(["v"], [])
        fn = compile_expr(BinOp("LIKE", Col(None, "v"), Lit("gas%")), rel)
        assert fn(("gas turbine",)) and not fn(("steam",))

    def test_scalar_udf(self):
        rel = Relation(["v"], [])
        registry = builtin_registry()
        fn = compile_expr(Func("C2F", (Col(None, "v"),)), rel, registry)
        assert fn((100.0,)) == 212.0

    def test_unknown_function_raises(self):
        rel = Relation(["v"], [])
        with pytest.raises(ValueError):
            compile_expr(Func("NOPE", (Col(None, "v"),)), rel)


class TestJoins:
    def test_hash_join(self):
        left = Relation(["a.k", "a.x"], [(1, "p"), (2, "q")])
        right = Relation(["b.k", "b.y"], [(1, "r"), (1, "s"), (3, "t")])
        joined = hash_join(left, right, ["a.k"], ["b.k"])
        assert sorted(joined.rows) == [(1, "p", 1, "r"), (1, "p", 1, "s")]
        assert joined.columns == ["a.k", "a.x", "b.k", "b.y"]

    def test_hash_join_builds_on_smaller_side_keeps_order_of_columns(self):
        left = Relation(["a.k"], [(1,), (2,), (3,)])
        right = Relation(["b.k"], [(1,)])
        joined = hash_join(left, right, ["a.k"], ["b.k"])
        assert joined.columns == ["a.k", "b.k"]
        assert joined.rows == [(1, 1)]

    def test_static_table_index_reuse(self):
        static = StaticTable(Relation(["s.k", "s.v"], [(1, "a"), (2, "b")]))
        index1 = static.index_for(["s.k"])
        index2 = static.index_for(["s.k"])
        assert index1 is index2

    def test_static_join_probe(self):
        static = StaticTable(Relation(["s.k", "s.v"], [(1, "a"), (2, "b")]))
        probe = Relation(["w.k"], [(1,), (1,), (9,)])
        joined = static.join_probe(probe, ["w.k"], ["s.k"])
        assert len(joined) == 2


def _random_relation(rng, alias, n_rows, key_domain):
    """``alias.k1``/``alias.k2`` drawn from a small domain (duplicate
    keys on purpose), ``alias.id`` unique so row order is visible."""
    return Relation(
        [f"{alias}.k1", f"{alias}.k2", f"{alias}.id"],
        [
            (rng.randrange(key_domain), rng.randrange(key_domain),
             f"{alias}{i}")
            for i in range(n_rows)
        ],
    )


def _naive_three_way(left, right, static, join_idx, static_idx):
    """Every (left, right, static) row triple that agrees on the keys,
    straight from the definition (order-free)."""
    rows = []
    for l_row in left.rows:
        for r_row in right.rows:
            if any(l_row[i] != r_row[i] for i in join_idx):
                continue
            pair = l_row + r_row
            for s_row in static.rows:
                if all(pair[p] == s_row[q] for p, q in static_idx):
                    rows.append(pair + s_row)
    return rows


class TestStreamedStaticProbe:
    """A static probe reading a stream-stream join as it is produced
    gives exactly the rows, in exactly the order, of probing the
    materialised join."""

    #: (probe columns, static columns): keyed from both inputs, from the
    #: left only, from the right only, and with two columns of one side
    STATIC_KEYS = [
        (["a.k2", "b.k2"], ["s.x", "s.y"]),
        (["b.k2", "a.k2"], ["s.x", "s.y"]),
        (["a.k2"], ["s.x"]),
        (["b.k1"], ["s.y"]),
        (["a.k1", "a.k2", "b.k2"], ["s.x", "s.y", "s.x"]),
    ]
    JOIN_KEYS = [
        (["a.k1"], ["b.k1"]),
        (["a.k1", "a.k2"], ["b.k1", "b.k2"]),
        ([], []),  # the cross-join fallback
    ]

    @pytest.mark.parametrize("seed", range(40))
    def test_streamed_equals_materialised(self, seed):
        rng = random.Random(seed)
        domain = rng.choice([1, 2, 4, 9])
        # either build side, and empty inputs
        left = _random_relation(rng, "a", rng.choice([0, 1, 5, 12]), domain)
        right = _random_relation(rng, "b", rng.choice([0, 1, 5, 12]), domain)
        # expansion > 1 (repeated static keys) or no match at all
        shift = rng.choice([0, 0, 0, 100])
        static_rows = [
            (rng.randrange(domain) + shift, rng.randrange(domain) + shift,
             f"s{i}")
            for i in range(rng.choice([0, 3, 20]))
        ]
        for left_keys, right_keys in self.JOIN_KEYS:
            for probe_keys, static_keys in self.STATIC_KEYS:
                static = StaticTable(
                    Relation(["s.x", "s.y", "s.id"], static_rows)
                )
                joined = hash_join(left, right, left_keys, right_keys)
                expected = static.join_probe(joined, probe_keys, static_keys)

                streamed = hash_join_rows(left, right, left_keys, right_keys)
                got = static.join_probe(streamed, probe_keys, static_keys)

                assert got.columns == expected.columns
                assert got.rows == expected.rows  # same rows, same order
                # the join's cardinality, counted as the pairs flowed
                assert len(streamed) == len(joined)
                naive = _naive_three_way(
                    left, right, static.relation,
                    [joined.index_of(k) for k in left_keys],
                    [(joined.index_of(p), static.relation.index_of(q))
                     for p, q in zip(probe_keys, static_keys)],
                )
                assert sorted(got.rows) == sorted(naive)

    def test_probe_major_order_with_static_expansion_last(self):
        left = Relation(["a.k", "a.id"], [(1, "a0"), (1, "a1")])
        right = Relation(["b.k", "b.id"], [(1, "b0"), (1, "b1"), (1, "b2")])
        static = StaticTable(Relation(
            ["s.a", "s.b", "s.id"],
            [("a1", "b0", "s0"), ("a0", "b2", "s1"), ("a1", "b0", "s2")],
        ))
        streamed = hash_join_rows(left, right, ["a.k"], ["b.k"])
        got = static.join_probe(streamed, ["a.id", "b.id"], ["s.a", "s.b"])
        # left is the smaller (build) side: right rows outer, left
        # matches inner, static matches of one pair last
        assert [(r[1], r[3], r[6]) for r in got.rows] == [
            ("a1", "b0", "s0"), ("a1", "b0", "s2"), ("a0", "b2", "s1"),
        ]
        assert len(streamed) == 6

    def test_materialise_is_the_plain_join(self):
        left = Relation(["a.k"], [(1,), (2,), (2,)])
        right = Relation(["b.k"], [(2,), (1,), (2,), (3,)])
        streamed = hash_join_rows(left, right, ["a.k"], ["b.k"])
        assert len(streamed) == 0  # nothing enumerated yet
        relation = streamed.materialise()
        assert relation.rows == hash_join(left, right, ["a.k"], ["b.k"]).rows
        assert len(streamed) == len(relation) == 5

    def test_cross_join_is_left_major(self):
        left = Relation(["a.v"], [(1,), (2,)])
        right = Relation(["b.v"], [("x",), ("y",), ("z",)])
        assert nested_loop_join(left, right).rows == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]
        odd = nested_loop_join(left, right, lambda row: row[0] == 2)
        assert odd.rows == [(2, "x"), (2, "y"), (2, "z")]


#: task 5's shape: two windows over one stream joined on the timestamp,
#: one static relation keyed from both sides (sensor pairs of one kind,
#: each pair three times over via ``z``: static expansion > 1)
T05_SHAPED_SQL = (
    "SELECT p.k AS k, w1.sid AS a, w2.sid AS b, COUNT(*) AS n, "
    "SUM(w1.val * w2.val) AS dot, AVG(w2.val) AS m "
    "FROM timeSlidingWindow(S, 20, 5) AS w1, "
    "timeSlidingWindow(S, 20, 5) AS w2, "
    "(SELECT x.sid AS a, y.sid AS b, x.kind AS k "
    "FROM sensors AS x, sensors AS y, sensors AS z "
    "WHERE x.kind = y.kind AND z.kind = x.kind) AS p "
    "WHERE w1.ts = w2.ts AND w1.sid = p.a AND w2.sid = p.b "
    "GROUP BY p.k, w1.sid, w2.sid"
)


class TestT05ShapedPlan:
    """The streamed probe inside the engine: result bytes and the
    ``join:<stream>``/``join:<static>`` cardinalities are pinned to the
    values the materialised pipeline produced."""

    #: shards -> (sha256 of the result sequence, {operator: (in, out)})
    PINNED = {
        1: ("fe890c6db92d9af3d5831a1bdcf806281d39260e68099dfb9c5061aea81cc57e", {"join:w2": (2664, 7992), "join:p": (8928, 15984)}),
        2: ("27666e8a04823316fc10ab57c67b60351875c8c30dcec0eebbfa832efeface84", {"join:w2": (2664, 7992), "join:p": (9864, 15984)}),
    }

    @pytest.mark.parametrize("shards", [1, 2])
    def test_recompute_rows_and_join_cardinalities(self, shards):
        engine = cqgen.build_engine(
            cqgen.measurement_rows(60, 6), shards=shards,
            incremental=False, mqo=False,
        )
        gateway = GatewayServer(engine)
        query = gateway.register(
            T05_SHAPED_SQL, name="q", sink_capacity=None,
            shards=shards if shards > 1 else None,
        )
        while gateway.step():
            pass
        results = cqgen.snapshot(query)
        assert len(results) == 13
        digest, cardinalities = self.PINNED[shards]
        assert hashlib.sha256(repr(results).encode()).hexdigest() == digest
        snapshot = gateway.metrics_snapshot()
        for operator, (rows_in, rows_out) in cardinalities.items():
            assert snapshot.value(
                "operator_rows_in_total", query="q", operator=operator
            ) == rows_in
            assert snapshot.value(
                "operator_rows_out_total", query="q", operator=operator
            ) == rows_out

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pane_join_tier_agrees(self, shards):
        _, gateway, engine = assert_join_differential(
            T05_SHAPED_SQL, streams={"S": cqgen.measurement_rows(60, 6)},
            shards=shards,
        )
        for node in engine.nodes:  # every shard ran the tier
            metrics = node.metrics.query("q0")
            assert metrics.windows_pane_join == metrics.windows_processed > 0
            assert metrics.pane_pairs_built > 0


class TestFusion:
    def test_fuse_empty_identity(self):
        assert fuse([])(42) == 42

    def test_fuse_composition_order(self):
        stages = [lambda x: x + 1, lambda x: x * 2, lambda x: x - 3]
        assert fuse(stages)(5) == (5 + 1) * 2 - 3

    def test_fuse_many_stages(self):
        stages = [lambda x, i=i: x + i for i in range(10)]
        assert fuse(stages)(0) == sum(range(10))


class TestPlannerAndGateway:
    def test_sql_text_round_trip_through_engine(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT w.sid AS sensor, AVG(w.val) AS m "
            "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w GROUP BY w.sid",
            name="avg",
        )
        while gateway.step():
            pass
        assert len(q.results()) > 0
        first = q.results()[0]
        assert first.columns == ["sensor", "m"]

    def test_stream_static_join(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT s.assembly AS asm, COUNT(*) AS n "
            "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w, sensor_info AS s "
            "WHERE w.sid = s.sid GROUP BY s.assembly",
            name="join",
        )
        while gateway.step(window_limit=3):
            pass
        result = q.results()[2]
        assert dict((r[0], r[1]) for r in result.rows) == {
            "rotor": 5,
            "stator": 5,
        }

    def test_filter_pushdown_semantics(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT w.ts AS t, w.val AS v "
            "FROM timeSlidingWindow(S_Msmt, 2, 2) AS w "
            "WHERE w.sid = 1 AND w.val > 52",
            name="filtered",
        )
        while gateway.step(window_limit=4):
            pass
        values = [row for r in q.results() for row in r.rows]
        assert values and all(v > 52 for _, v in values)

    def test_having(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT w.sid AS s, MAX(w.val) AS mx "
            "FROM timeSlidingWindow(S_Msmt, 4, 4) AS w "
            "GROUP BY w.sid HAVING MAX(w.val) > 56",
            name="hv",
        )
        while gateway.step():
            pass
        for result in q.results():
            for row in result.rows:
                assert row[1] > 56

    def test_aggregate_without_group_by(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(S_Msmt, 2, 2) AS w",
            name="count",
        )
        while gateway.step(window_limit=2):
            pass
        assert q.results()[1].rows[0][0] == 6  # ts in [0,2] x 2 sensors

    def test_sequence_udf_in_sql(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        q = gateway.register(
            "SELECT w.sid AS s, MONOTONIC_HAVING(w.ts, w.val, w.failure) AS a "
            "FROM timeSlidingWindow(S_Msmt, 10, 1) AS w GROUP BY w.sid",
            name="mono",
        )
        while gateway.step(window_limit=10):
            pass
        final = dict(q.results()[9].rows)
        assert final[1] is True and final[2] is False

    def test_planner_rejects_bad_queries(self):
        engine = engine_with_data()
        with pytest.raises(PlanningError):
            plan_sql("SELECT a FROM nowhere", engine)
        with pytest.raises(PlanningError):
            plan_sql("SELECT a FROM sensor_info", engine)  # no stream
        with pytest.raises(PlanningError):
            plan_sql("SELECT S_Msmt.val FROM S_Msmt", engine)  # unwrapped
        with pytest.raises(PlanningError):
            plan_sql(
                "SELECT w.val FROM timeSlidingWindow(S_Msmt, 5, 1) AS w "
                "HAVING COUNT(*) > 1",
                engine,
            )

    def test_duplicate_name_rejected(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        gateway.register(
            "SELECT w.ts AS t FROM timeSlidingWindow(S_Msmt, 2, 2) AS w",
            name="dup",
        )
        with pytest.raises(ValueError):
            gateway.register(
                "SELECT w.ts AS t FROM timeSlidingWindow(S_Msmt, 2, 2) AS w",
                name="dup",
            )

    def test_shared_readers_across_queries(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        sql = (
            "SELECT w.sid AS s, AVG(w.val) AS m "
            "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w GROUP BY w.sid"
        )
        gateway.register(sql, name="a")
        gateway.register(sql, name="b")
        while gateway.step(window_limit=4):
            pass
        # second query hits the cache populated by the first (batch hits
        # on the recompute path, pane hits on the incremental path)
        stats = engine.cache.stats
        assert stats.hits + stats.pane_hits > 0

    def test_metrics_populated(self):
        engine = engine_with_data()
        gateway = GatewayServer(engine)
        gateway.register(
            "SELECT w.ts AS t FROM timeSlidingWindow(S_Msmt, 2, 2) AS w",
            name="m",
        )
        while gateway.step():
            pass
        metrics = engine.metrics.per_query["m"]
        assert metrics.tuples_in > 0
        assert metrics.windows_processed > 0

    def test_deregister_releases_scheduler_load(self):
        engine = engine_with_data()
        scheduler = Scheduler(2)
        gateway = GatewayServer(engine, scheduler=scheduler)
        gateway.register(
            "SELECT w.ts AS t FROM timeSlidingWindow(S_Msmt, 2, 2) AS w",
            name="x",
        )
        assert scheduler.total_load() > 0
        gateway.deregister("x")
        assert scheduler.total_load() == pytest.approx(0.0)


class TestLiftedExpressionKey:
    """``<expression over one window> = other.column`` plans as a
    computed column of that window plus an equi-join — the shape the
    STARQL translator's subject-IRI join has."""

    FROM = (
        "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w, "
        "timeSlidingWindow(S_Msmt, 4, 2) AS v, sensor_info AS s "
    )
    KEY = BinOp("+", Col("w", "sid"), Lit(0))

    def plan(self, where):
        return plan_sql(
            "SELECT s.assembly AS asm, COUNT(*) AS n " + self.FROM
            + f"WHERE {where} GROUP BY s.assembly",
            engine_with_data(),
        )

    @staticmethod
    def computed(plan):
        return {w.alias: [(c.name, c.expr) for c in w.computed]
                for w in plan.windows}

    def test_both_operand_orders(self):
        left = self.plan("(w.sid + 0) = s.sid AND v.sid = s.sid")
        assert self.computed(left) == {"w": [("#0", self.KEY)], "v": []}
        assert left.join_predicates[0] == BinOp(
            "=", Col("w", "#0"), Col("s", "sid")
        )
        right = self.plan("s.sid = (w.sid + 0) AND v.sid = s.sid")
        assert self.computed(right) == self.computed(left)
        assert right.join_predicates[0] == BinOp(
            "=", Col("s", "sid"), Col("w", "#0")
        )
        assert not left.filters and not right.filters

    def test_predicates_sharing_an_expression_share_the_column(self):
        plan = self.plan(
            "(w.sid + 0) = s.sid AND v.sid = (w.sid + 0) "
            "AND (v.sid * 2) = s.sid AND (w.sid - 1) = s.sid"
        )
        assert self.computed(plan) == {
            "w": [("#0", self.KEY),
                  ("#1", BinOp("-", Col("w", "sid"), Lit(1)))],
            "v": [("#0", BinOp("*", Col("v", "sid"), Lit(2)))],
        }
        assert [str(p.left) + "=" + str(p.right)
                for p in plan.join_predicates] == [
            "w.#0=s.sid", "v.sid=w.#0", "v.#0=s.sid", "w.#1=s.sid",
        ]
        # a windowed pair joined on the key pairs up through it
        join = plan.stream_join_keys()
        assert (join.left_keys, join.right_keys) == (("w.#0",), ("v.sid",))

    def test_what_is_not_lifted_stays_a_filter(self):
        for where in (
            "(w.sid + v.sid) = s.sid",  # spans two aliases
            "(s.sid + 0) = w.sid",      # over a static input
            "(w.sid + 0) = w.failure",  # one alias on both sides
            "(w.sid + 0) = 1",          # no other column
            "(w.sid + 0) > s.sid",      # not an equality
            "(w.sid + sid) = s.sid",    # an unqualified column
        ):
            plan = self.plan(f"{where} AND v.sid = s.sid")
            assert len(plan.filters) == 1, where
            assert len(plan.join_predicates) == 1, where
            assert self.computed(plan) == {"w": [], "v": []}, where

    def test_runs_as_the_equi_join_it_is(self):
        def rows(where):
            gateway = GatewayServer(engine_with_data())
            q = gateway.register(
                "SELECT s.assembly AS asm, COUNT(*) AS n, SUM(w.val) AS t "
                "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w, sensor_info AS s "
                f"WHERE {where} GROUP BY s.assembly",
                name="q",
            )
            assert len(q.plan.join_predicates) == 1 and not q.plan.filters
            while gateway.step():
                pass
            return [(r.window_id, r.rows) for r in q.results()]

        plain = rows("w.sid = s.sid")
        assert plain and rows("(w.sid + 0) = s.sid") == plain
        assert rows("s.sid = (w.sid + 0)") == plain

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pane_join_on_a_lifted_key(self, shards):
        """The pane tiers key their tables on the computed column as on
        any other: pane-join and pane-incremental output equals the
        recompute tier's, at either width."""
        join = (
            "SELECT b.sid AS s, COUNT(*) AS n, SUM(a.val + b.val) AS total "
            "FROM timeSlidingWindow(A, 20, 5) AS a, "
            "timeSlidingWindow(B, 20, 5) AS b "
            "WHERE (a.sid + 0) = b.sid GROUP BY b.sid"
        )
        static = (
            "SELECT t.kind AS kind, COUNT(*) AS n, MAX(a.val) AS top "
            "FROM timeSlidingWindow(A, 20, 5) AS a, sensors AS t "
            "WHERE t.sid = (a.sid + 0) GROUP BY t.kind"
        )
        _, _, engine = assert_join_differential([join, static], shards=shards)
        plans = [plan_sql(sql, engine) for sql in (join, static)]
        assert [plan.incremental.mode.name for plan in plans] == [
            "PANE_JOIN", "PANE_INCREMENTAL",
        ]
        assert plans[0].stream_join_keys().left_keys == ("a.#0",)

    def test_duplicate_from_aliases_are_a_planning_error(self):
        with pytest.raises(PlanningError, match="duplicate FROM aliases"):
            plan_sql(
                "SELECT COUNT(*) AS n "
                "FROM timeSlidingWindow(S_Msmt, 4, 2) AS w, sensor_info AS w",
                engine_with_data(),
            )


class TestScheduler:
    def plan(self, name="p", range_s=10.0):
        engine = engine_with_data()
        return plan_sql(
            f"SELECT w.sid AS s, COUNT(*) AS n "
            f"FROM timeSlidingWindow(S_Msmt, {range_s}, 1) AS w GROUP BY w.sid",
            engine,
            name=name,
        )

    def test_balance_across_workers(self):
        scheduler = Scheduler(4)
        for i in range(16):
            scheduler.place(self.plan(name=f"q{i}"))
        assert scheduler.balance() < 1.3

    def test_scan_affinity(self):
        scheduler = Scheduler(4)
        p1 = scheduler.place(self.plan(name="q1"))
        p2 = scheduler.place(self.plan(name="q2"))
        scans1 = [p for p in p1 if p.operator.startswith("scan[")]
        scans2 = [p for p in p2 if p.operator.startswith("scan[")]
        assert scans1[0].worker == scans2[0].worker

    def test_remove(self):
        scheduler = Scheduler(2)
        scheduler.place(self.plan(name="q1"))
        load = scheduler.total_load()
        scheduler.place(self.plan(name="q2"))
        scheduler.remove("q2")
        assert scheduler.total_load() == pytest.approx(load)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scheduler(0)


class TestSimulator:
    def test_throughput_increases_with_nodes(self):
        params = ClusterParameters(nodes=1, tuple_service_seconds=1e-5)
        sim = ClusterSimulator(params)
        results = sim.sweep_nodes([1, 4, 16, 64], 32, 20, 500)
        throughputs = [r.throughput for r in results]
        assert throughputs == sorted(throughputs)
        assert throughputs[-1] > throughputs[0] * 10

    def test_speedup_sublinear_at_scale(self):
        params = ClusterParameters(nodes=1, tuple_service_seconds=1e-6)
        sim = ClusterSimulator(params)
        results = sim.sweep_nodes([1, 128], 256, 10, 1000)
        speedup = results[1].throughput / results[0].throughput
        assert speedup < 128  # the serial coordinator caps scaling

    def test_conservation(self):
        params = ClusterParameters(nodes=8)
        result = ClusterSimulator(params).run(10, 5, 100)
        assert result.tuples_processed == 10 * 5 * 100
        assert result.windows_processed == 50
        assert 0 < result.utilisation <= 1

    def test_calibrate(self):
        assert calibrate(1_000_000) == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            calibrate(0)

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            ClusterParameters(nodes=0)
