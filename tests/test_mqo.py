"""Differential tests: shared-subplan (MQO) execution ≡ private execution.

The MQO subsystem's correctness bar is the same as sharding's and the
pane subsystem's: for every mix of concurrently registered queries, every
shard count and every register/deregister order, executing with
``mqo=True`` must produce **byte-identical** ``WindowResult`` sequences
to fully private execution.  Sharing is memoizing — a miss recomputes
locally — so equality is the single property that proves the subsystem.
"""

import itertools
import random

import pytest

import cqgen
from cqgen import SCHEMA, build_engine, random_family, snapshot
from repro.analysis import analyze_plan, verify_gateway
from repro.exastream import (
    GatewayServer,
    Scheduler,
    StreamEngine,
    plan_sql,
    plan_signature,
)
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.streams import ListSource, Stream


def measurement_rows(n_seconds=120, n_sensors=6):
    """This suite's default workload size over the shared generator."""
    return cqgen.measurement_rows(n_seconds, n_sensors)


def run_concurrently(rows, sqls, mqo, shards=1, incremental=True):
    """Register every query on one gateway, run to exhaustion, snapshot."""
    engine = build_engine(
        rows, mqo=mqo, shards=shards, incremental=incremental
    )
    out, gateway = cqgen.run_concurrently(sqls, engine, shards=shards)
    return out, gateway, engine


def assert_differential(sqls, rows=None, shards=1, incremental=True):
    if rows is None:
        rows = measurement_rows()
    shared, gateway, engine = run_concurrently(
        rows, sqls, True, shards, incremental
    )
    private, _, _ = run_concurrently(rows, sqls, False, shards, incremental)
    assert shared == private
    assert any(len(results) > 0 for results in shared)
    return shared, gateway, engine


AGG = (
    "SELECT w.sid AS s, AVG(w.val * 9 / 5 + 32) AS f, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w, sensors AS t "
    "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51 "
    "GROUP BY w.sid{having}"
)


def variant(r=20, s=5, threshold=None):
    having = f" HAVING AVG(w.val * 9 / 5 + 32) > {threshold}" if threshold else ""
    return AGG.format(r=r, s=s, having=having)


class TestSignature:
    def _sig(self, sql, engine=None):
        engine = engine or build_engine(measurement_rows(20))
        return plan_signature(plan_sql(sql, engine, name="q"))

    def test_having_variants_share_both_tiers(self):
        a = self._sig(variant(threshold=60))
        b = self._sig(variant(threshold=90))
        c = self._sig(variant())
        assert a.relation_key == b.relation_key == c.relation_key
        assert a.aggregate_key == b.aggregate_key == c.aggregate_key
        assert a.aggregate_key is not None

    def test_alias_renaming_is_normalized_away(self):
        a = self._sig(
            "SELECT w.sid AS s, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
            "WHERE w.sid = t.sid GROUP BY w.sid"
        )
        b = self._sig(
            "SELECT x.sid AS s, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 20, 5) AS x, sensors AS meta "
            "WHERE x.sid = meta.sid GROUP BY x.sid"
        )
        assert a.relation_key == b.relation_key
        assert a.aggregate_key == b.aggregate_key

    def test_filter_order_is_normalized_away(self):
        a = self._sig(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(S, 20, 5) AS w "
            "WHERE w.val > 51 AND w.sid < 4"
        )
        b = self._sig(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(S, 20, 5) AS w "
            "WHERE w.sid < 4 AND w.val > 51"
        )
        assert a.relation_key == b.relation_key

    def test_different_filters_do_not_share(self):
        a = self._sig(variant())
        b = self._sig(variant().replace("w.val > 51", "w.val > 52"))
        assert a.relation_key != b.relation_key

    def test_different_window_grids_do_not_share(self):
        assert (
            self._sig(variant(r=20)).relation_key
            != self._sig(variant(r=40)).relation_key
        )

    def test_different_grouping_shares_relation_tier_only(self):
        a = self._sig(variant())
        b = self._sig(
            "SELECT AVG(w.val * 9 / 5 + 32) AS f, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
            "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51"
        )
        assert a.relation_key == b.relation_key
        assert a.aggregate_key != b.aggregate_key

    def test_sequence_udf_has_no_aggregate_tier(self):
        sig = self._sig(
            "SELECT w.sid AS s, SLOPE(w.ts, w.val) AS trend "
            "FROM timeSlidingWindow(S, 20, 5) AS w GROUP BY w.sid"
        )
        assert sig is not None
        assert sig.aggregate_key is None

    def test_two_stream_join_carries_side_signatures(self):
        engine = StreamEngine()
        for name in ("A", "B", "C"):
            engine.register_stream(
                ListSource(Stream(name, SCHEMA), measurement_rows(20))
            )

        def sig(sql):
            return plan_signature(plan_sql(sql, engine, name="j"))

        base = (
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(A, 20, 5) AS a, "
            "timeSlidingWindow(B, 20, 5) AS b WHERE a.sid = b.sid"
        )
        signature = sig(base)
        assert signature is not None
        assert len(signature.sides) == 2
        # per-stream pane-join state interchanges only within one side
        assert signature.sides[0].key != signature.sides[1].key
        # the pane-pair partials are runtime-local: no aggregate tier
        assert signature.aggregate_key is None
        # a query joining A against a *different* partner stream still
        # shares A's side (but not the partner's)
        other = sig(
            base.replace("timeSlidingWindow(B", "timeSlidingWindow(C")
        )
        assert other.relation_key != signature.relation_key
        assert other.sides[0] == signature.sides[0]
        assert other.sides[1] != signature.sides[1]
        # a side filter changes only that side's signature
        filtered = sig(base + " AND a.val > 50")
        assert filtered.sides[0] != signature.sides[0]
        assert filtered.sides[1] == signature.sides[1]

    def test_three_stream_join_is_ineligible(self):
        engine = StreamEngine()
        for name in ("A", "B", "C"):
            engine.register_stream(
                ListSource(Stream(name, SCHEMA), measurement_rows(20))
            )
        plan = plan_sql(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(A, 20, 5) AS a, "
            "timeSlidingWindow(B, 20, 5) AS b, timeSlidingWindow(C, 20, 5) AS c "
            "WHERE a.sid = b.sid AND b.sid = c.sid",
            engine,
            name="j",
        )
        assert plan_signature(plan) is None


class TestDifferential:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_identical_queries(self, shards):
        shared, _, _ = assert_differential([variant()] * 5, shards=shards)
        # every copy produced the same windows
        assert all(results == shared[0] for results in shared)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_having_threshold_variants(self, shards):
        sqls = [variant(threshold=t) for t in (55, 60, 65, 70)] + [variant()]
        assert_differential(sqls, shards=shards)

    def test_sharing_actually_engages(self):
        """Guard against the registry silently never matching."""
        sqls = [variant(threshold=t) for t in (55, 60, 65, 70)]
        shared, gateway, engine = run_concurrently(
            measurement_rows(), sqls, True
        )
        assert gateway.mqo is not None
        assert gateway.mqo.stats.partial_hits > 0
        per_query = [engine.metrics.query(f"q{i}") for i in range(len(sqls))]
        built = [m.panes_built for m in per_query]
        # exactly one subscriber built each pane; the rest were served
        assert sum(1 for b in built if b == 0) == len(sqls) - 1
        assert sum(m.mqo_partial_hits for m in per_query) > 0

    def test_relation_tier_shares_across_groupings(self):
        """Same prefix, different GROUP BY: pane relations interchange."""
        sqls = [
            variant(),
            "SELECT AVG(w.val * 9 / 5 + 32) AS f, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
            "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51",
        ]
        shared, gateway, engine = run_concurrently(
            measurement_rows(), sqls, True
        )
        private, _, _ = run_concurrently(measurement_rows(), sqls, False)
        assert shared == private
        assert gateway.mqo.stats.relation_hits > 0

    def test_alias_variants_interchange_relations(self):
        sqls = [
            "SELECT w.sid AS s, SUM(w.val) AS total "
            "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
            "WHERE w.sid = t.sid GROUP BY w.sid",
            "SELECT x.sid AS s, SUM(x.val) AS total "
            "FROM timeSlidingWindow(S, 20, 5) AS x, sensors AS meta "
            "WHERE x.sid = meta.sid GROUP BY x.sid",
        ]
        shared, gateway, _ = run_concurrently(measurement_rows(), sqls, True)
        private, _, _ = run_concurrently(measurement_rows(), sqls, False)
        assert shared == private
        # different aliases, same canonical signature: full tier-2 sharing
        assert gateway.mqo.stats.partial_hits > 0

    def test_recompute_plans_share_window_relations(self):
        """Sequence-UDF (non-decomposable) variants share the joined
        window relation on the recompute path."""
        base = (
            "SELECT w.sid AS s, SLOPE(w.ts, w.val) AS trend "
            "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
            "WHERE w.sid = t.sid GROUP BY w.sid"
        )
        shared, gateway, _ = run_concurrently(
            measurement_rows(), [base, base], True
        )
        private, _, _ = run_concurrently(measurement_rows(), [base, base], False)
        assert shared == private
        assert shared[0] == shared[1]
        assert gateway.mqo.stats.relation_hits > 0

    def test_incremental_disabled_still_differential(self):
        sqls = [variant(threshold=t) for t in (55, 65)]
        assert_differential(sqls, incremental=False)


class TestRandomizedFamilies:
    """Seeded prefix-sharing CQ families from the shared harness."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_families(self, seed):
        rng = random.Random(4000 + seed)
        sqls = random_family(rng)
        shards = 1 + (seed % 2)
        assert_differential(sqls, shards=shards)


class TestMidFlight:
    """Register and deregister queries while the executor is mid-stream;
    the joiners fold into existing pipelines at the next boundary."""

    def _run(self, mqo):
        rows = measurement_rows()
        engine = build_engine(rows, mqo=mqo)
        gateway = GatewayServer(engine)
        results = {}
        a = gateway.register(variant(threshold=55), name="a")
        b = gateway.register(variant(threshold=65), name="b")
        gateway.step(6)
        # c joins mid-flight and shares the live pipeline from here on
        c = gateway.register(variant(), name="c")
        gateway.step(6)
        results["a"] = snapshot(a)
        gateway.deregister("a")
        gateway.step(4)
        d = gateway.register(variant(threshold=75), name="d")
        while gateway.step():
            pass
        for name, q in (("b", b), ("c", c), ("d", d)):
            results[name] = snapshot(q)
        for name in ("b", "c", "d"):
            gateway.deregister(name)
        return results, gateway

    def test_mid_flight_join_and_leave(self):
        shared, gateway = self._run(True)
        private, _ = self._run(False)
        assert shared == private
        assert all(len(v) > 0 for v in shared.values())
        assert gateway.mqo.pipeline_count == 0  # all released

    def test_mid_flight_sharing_engages(self):
        shared, gateway = self._run(True)
        assert gateway.mqo.stats.partial_hits > 0

    STATIC_JOIN = (
        "SELECT m.kind AS kind, COUNT(*) AS n "
        "FROM timeSlidingWindow(S, 20, 5) AS w, "
        "(SELECT sid, kind FROM sensors) AS m "
        "WHERE w.sid = m.sid GROUP BY m.kind"
    )

    def _run_across_insert(self, mqo):
        """The same SQL registered before and after a static insert."""
        engine = build_engine(
            measurement_rows(60, n_sensors=4), mqo=mqo, attach_static=False
        )
        db = cqgen.static_db(n_sensors=2)  # sensors 2 and 3 unknown so far
        engine.attach_database("meta", db)
        scheduler = Scheduler(2)
        gateway = GatewayServer(engine, scheduler=scheduler)
        before = gateway.register(self.STATIC_JOIN, name="before")
        gateway.step(2)
        db.insert("sensors", [(2, "temp"), (3, "pres")])
        after = gateway.register(self.STATIC_JOIN, name="after")
        verify_gateway(gateway)
        while gateway.step():
            pass
        return snapshot(before), snapshot(after), gateway, scheduler, after

    def test_static_insert_splits_the_shared_pipeline(self):
        """A same-signature query registered after a ``Database.insert``
        probes the new rows, so it must not join a pipeline whose pane
        results were joined against the old ones."""
        shared = self._run_across_insert(True)
        private = self._run_across_insert(False)
        assert shared[:2] == private[:2]
        assert shared[0] != shared[1]  # the insert is visible to "after" only
        _, _, gateway, scheduler, after = shared
        # two materialisations, two pipelines per tier — in the registry
        # and in the scheduler's accounting alike
        assert gateway.mqo.pipeline_count == 4
        pipelines = scheduler.load_report().pipeline_refs
        assert len(pipelines) == 2 and set(pipelines.values()) == {1}
        # the sharing prediction does not name the stale peer
        report = analyze_plan(after.plan, gateway.engine, gateway=gateway)
        assert not [d for d in report if d.code == "ANA030"]
        gateway.deregister("before")
        gateway.deregister("after")
        verify_gateway(gateway)
        assert gateway.mqo.pipeline_count == 0
        assert scheduler.total_load() == pytest.approx(0.0)

    def test_same_static_version_still_shares(self):
        """No write between the registrations: one pipeline, as before."""
        engine = build_engine(measurement_rows(60, n_sensors=4))
        gateway = GatewayServer(engine)
        gateway.register(self.STATIC_JOIN, name="a")
        gateway.step(2)
        peer = gateway.register(self.STATIC_JOIN, name="b")
        assert gateway.mqo.pipeline_count == 2  # relation + aggregate tier
        report = analyze_plan(peer.plan, engine, gateway=gateway)
        assert any(d.code == "ANA030" for d in report)
        while gateway.step():
            pass
        assert gateway.mqo.stats.partial_hits > 0


class TestSiemensDifferential:
    """All 20 deployment diagnostic tasks, registered concurrently."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(turbines=4, plants=2))

    def _run_all(self, fleet, mqo, shards=1):
        dep = deploy(
            fleet=fleet, stream_duration=20, mqo=mqo, shards=shards
        )
        with dep.session() as session:
            handles = [
                session.submit(task.starql, name=f"t{task.task_id}")
                for task in diagnostic_catalog()
            ]
            while session.step(1):
                pass
            return {
                handle.registered.name: snapshot(handle.registered)
                for handle in handles
            }

    @pytest.mark.parametrize("shards", [1, 2])
    def test_all_diagnostic_tasks_equal(self, fleet, shards):
        shared = self._run_all(fleet, True, shards)
        private = self._run_all(fleet, False, shards)
        assert shared.keys() == private.keys()
        for name in shared:
            assert shared[name] == private[name], name
        assert any(len(v) > 0 for v in shared.values())

    def test_duplicate_task_fleet_shares(self, fleet):
        """Concurrent variants of one diagnostic task — the Siemens
        '50 copies of the same task' shape — share one pipeline."""
        dep = deploy(fleet=fleet, stream_duration=20, mqo=True)
        task2 = diagnostic_catalog()[1]
        with dep.session() as session:
            for i in range(6):
                session.submit(task2.starql, name=f"copy{i}")
            while session.step(1):
                pass
        assert dep.gateway.mqo is not None
        assert dep.gateway.mqo.stats.partial_hits > 0


class TestGatewayTeardown:
    """Deregistering shared-pipeline subscribers in every order releases
    pipelines and readers exactly once."""

    def _gateway(self, n=3):
        rows = measurement_rows(60)
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        names = [f"q{i}" for i in range(n)]
        for i, name in enumerate(names):
            gateway.register(variant(threshold=55 + 5 * i), name=name)
        return gateway, names

    def test_every_deregistration_order(self):
        for order in itertools.permutations(range(3)):
            gateway, names = self._gateway(3)
            gateway.step(4)
            for index in order:
                gateway.deregister(names[index])
            assert gateway.mqo.pipeline_count == 0
            assert gateway.shared_reader_count == 0
            assert gateway.queries == []

    def test_unknown_deregister_raises(self):
        gateway, names = self._gateway(2)
        with pytest.raises(KeyError):
            gateway.deregister("nope")
        gateway.deregister(names[0])
        with pytest.raises(KeyError):
            gateway.deregister(names[0])  # exactly once
        gateway.deregister(names[1])
        assert gateway.mqo.pipeline_count == 0

    def test_lone_survivor_keeps_producing(self):
        rows = measurement_rows()
        # reference: the survivor running alone, fully private
        engine = build_engine(rows, mqo=False)
        gateway = GatewayServer(engine)
        solo = gateway.register(variant(threshold=60), name="solo")
        while gateway.step():
            pass
        reference = snapshot(solo)

        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        survivor = gateway.register(variant(threshold=60), name="s")
        others = [
            gateway.register(variant(threshold=t), name=f"o{t}")
            for t in (55, 70)
        ]
        gateway.step(5)
        for other in others:
            gateway.deregister(other.name)
        while gateway.step():
            pass
        assert snapshot(survivor) == reference
        assert gateway.mqo.pipeline_count > 0  # survivor's pipeline lives
        gateway.deregister("s")
        assert gateway.mqo.pipeline_count == 0

    def test_scoped_sharded_pipelines_release(self):
        rows = measurement_rows()
        engine = build_engine(rows, shards=2)
        gateway = GatewayServer(engine)
        a = gateway.register(variant(threshold=55), name="a", shards=2)
        b = gateway.register(variant(threshold=65), name="b", shards=2)
        while gateway.step():
            pass
        assert snapshot(a) and snapshot(b)
        gateway.deregister("a")
        gateway.deregister("b")
        assert gateway.mqo.pipeline_count == 0


class TestSchedulerAccounting:
    def test_shared_pipeline_weighs_once(self):
        rows = measurement_rows(40)
        engine = build_engine(rows)
        scheduler = Scheduler(2)
        gateway = GatewayServer(engine, scheduler=scheduler)
        gateway.register(variant(threshold=55), name="a")
        shared = sum(
            p.cost
            for w in scheduler.workers
            for p in w.placements
            if p.query.startswith("mqo::")
        )
        residual = sum(p.cost for p in scheduler.placements_for("a"))
        assert shared > 0 and residual > 0
        for i, t in enumerate((60, 65, 70)):
            gateway.register(variant(threshold=t), name=f"v{i}")
        # three more subscribers add only residual load: the pipeline
        # prefix weighs on the cluster once, not once per query
        assert scheduler.total_load() == pytest.approx(shared + 4 * residual)
        pipeline_queries = {
            p.query
            for w in scheduler.workers
            for p in w.placements
            if p.query.startswith("mqo::")
        }
        assert len(pipeline_queries) == 1
        for name in ("a", "v0", "v1", "v2"):
            gateway.deregister(name)
        assert scheduler.total_load() == pytest.approx(0.0)

    def test_private_gateway_accounts_per_query(self):
        rows = measurement_rows(40)
        engine = build_engine(rows, mqo=False)  # mqo escape hatch
        scheduler = Scheduler(2)
        gateway = GatewayServer(engine, scheduler=scheduler)
        assert gateway.mqo is None
        gateway.register(variant(threshold=55), name="a")
        one = scheduler.total_load()
        gateway.register(variant(threshold=60), name="b")
        assert scheduler.total_load() > one * 1.5  # full per-query weight
        gateway.deregister("a")
        gateway.deregister("b")
        assert scheduler.total_load() == pytest.approx(0.0)


class TestBatchDemandRefcount:
    PANE_SQL = (
        "SELECT w.sid AS s, SUM(w.val) AS total "
        "FROM timeSlidingWindow(S, 20, 5) AS w GROUP BY w.sid"
    )
    RECOMPUTE_SQL = (  # projection: batch-driven
        "SELECT w.ts AS t, w.val AS v FROM timeSlidingWindow(S, 20, 5) AS w"
    )

    def test_survivor_regains_no_batch_property(self):
        rows = measurement_rows(200)
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        pane = gateway.register(self.PANE_SQL, name="pane")
        gateway.register(self.RECOMPUTE_SQL, name="batchy")
        gateway.step(5)
        reader = next(iter(pane.runtime.readers.values()))
        assert reader.batch_demand == 1  # the recompute query's reference
        gateway.deregister("batchy")
        assert reader.batch_demand == 0  # released through the gateway
        materialised = engine.cache.stats.materialised_tuples
        gateway.step(10)
        # no batch assembly happened for the surviving pane query
        assert engine.cache.stats.materialised_tuples == materialised
        assert pane.sink.accepted > 10

    def test_demand_is_counted_not_latched(self):
        rows = measurement_rows(100)
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        gateway.register(self.PANE_SQL, name="pane")
        r1 = gateway.register(self.RECOMPUTE_SQL, name="r1")
        r2 = gateway.register(self.RECOMPUTE_SQL, name="r2")
        reader = next(iter(r1.runtime.readers.values()))
        assert reader.batch_demand == 2
        gateway.deregister("r1")
        assert reader.batch_demand == 1  # r2 still needs batches
        gateway.deregister("r2")
        assert reader.batch_demand == 0
        assert r2 is not None

    def test_pane_break_reacquires_releasable_demand(self):
        """A permanently broken pane path re-demands batches (so pulses
        assemble + cache again) — and that demand is still released on
        deregistration, not latched forever."""
        from repro.streams import StreamSource

        rows = [(float(t), t % 4, 50.0 + t % 7) for t in range(120)]
        rows[60], rows[68] = rows[68], rows[60]  # genuine late arrival
        reference_rows = list(rows)

        def run(mqo):
            engine = StreamEngine(mqo=mqo)
            engine.register_stream(
                StreamSource(Stream("S", SCHEMA), lambda: iter(rows))
            )
            gateway = GatewayServer(engine)
            q = gateway.register(self.PANE_SQL, name="pane")
            while gateway.step():
                pass
            return snapshot(q), q, gateway

        shared, q, gateway = run(True)
        reader = next(iter(q.runtime.readers.values()))
        assert reader.pane_broken
        assert reader.batch_demand == 1  # reacquired after the break
        gateway.deregister("pane")
        assert reader.batch_demand == 0  # and releasable

        # the broken-pane run still matches a fully private recompute run
        engine = StreamEngine(mqo=False, incremental=False)
        engine.register_stream(
            StreamSource(Stream("S", SCHEMA), lambda: iter(reference_rows))
        )
        gateway = GatewayServer(engine)
        q = gateway.register(self.PANE_SQL, name="pane")
        while gateway.step():
            pass
        assert shared == snapshot(q)


class TestRegistrationCost:
    """Registering the Nth query must not rescan the N-1 live ones."""

    def test_sharing_analysis_is_linear_in_registrations(self, monkeypatch):
        import repro.analysis as analysis
        import repro.analysis.analyzer as analyzer
        import repro.analysis.sharing as sharing
        import repro.exastream.mqo.signature as signature

        calls = dict.fromkeys(("signature", "cq", "sharing", "analyze"), 0)

        def counted(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapper

        # ``plan.signature`` resolves the function through its module
        for module, attr, key in (
            (signature, "plan_signature", "signature"),
            (sharing, "plan_as_cq", "cq"),
            (sharing, "check_sharing", "sharing"),
            (analyzer, "check_sharing", "sharing"),
            (analyzer, "analyze_plan", "analyze"),
            (analysis, "analyze_plan", "analyze"),
        ):
            monkeypatch.setattr(
                module, attr, counted(key, getattr(module, attr))
            )

        n = 12
        gateway = GatewayServer(build_engine())
        for i in range(n):
            r, s = (5, 5) if i % 2 else (20, 5)
            gateway.register(
                f"SELECT w.sid AS s, COUNT(*) AS n FROM"
                f" timeSlidingWindow(S, {r}, {s}) AS w"
                f" WHERE w.val > {40 + (i % 2)} GROUP BY w.sid",
                name=f"q{i}",
            )
        # Registration analyses nothing: one signature per plan — the
        # bind computes it, the scheduler and the runtime read the
        # stored ``plan.signature`` — and no CQ encoding, no sharing
        # check, no analysis.
        assert calls == {"signature": n, "cq": 0, "sharing": 0, "analyze": 0}
        # The diagnostics still fire, on demand: a later same-grid
        # query's sharing peers come from the MQO registry.
        last = gateway.query("q10")
        report = analysis.analyze_plan(last.plan, gateway.engine, gateway=gateway)
        assert any(d.code == "ANA030" for d in report)
