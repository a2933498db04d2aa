"""One engine class whose width is a number.

* One engine of width 2 serves ``shards=1`` and ``shards=2``
  registrations of the same plans side by side, window for window
  byte-identical to two separate engines.
* A width-N engine owns exactly one source registry, one database
  registry, one reader catalog and one ``StaticCatalog``; what is per
  node is a three-field record.
* The engine forgets a deregistered query: no runtime outlives its
  ``close()`` (a ``shards=2`` engine kept every one until PR 15).
* The facades forward engine options to the one constructor, and the
  constructor refuses option values it does not have.
* ``deploy()`` returns the one deployment object, an
  ``OptiquePlatform``, with everything ``benchmarks/ledger/`` drives.
"""

import ast
import asyncio
import gc
import re
import weakref
from pathlib import Path

import pytest

from cqgen import SCHEMA, build_engine, measurement_rows, snapshot, static_db
import repro
from repro.analysis import verify_gateway
from repro.errors import InvalidOption, ReproError
from repro.exastream import (
    GatewayServer,
    IncrementalMode,
    Scheduler,
    StreamEngine,
    durability,
    plan_sql,
)
from repro.exastream.sharded import fork_available
from repro.optique import AsyncSession, OptiquePlatform, Session
from repro.siemens import (
    FleetConfig,
    build_siemens_mappings,
    build_siemens_ontology,
    deploy,
    diagnostic_catalog,
    generate_fleet,
    standard_macros,
)
from repro.streams import ListSource, Stream, StreamSource

STREAMS = {
    "A": measurement_rows(n_seconds=60, fraction=0.0),
    "B": measurement_rows(n_seconds=60, n_sensors=8, fraction=0.0),
}

#: name -> (SQL, the tier its plan runs on)
PLANS = {
    "pane": (
        "SELECT a.sid AS sid, t.kind AS kind, COUNT(*) AS n, "
        "SUM(a.val) AS total "
        "FROM timeSlidingWindow(A, 20, 5) AS a, sensors AS t "
        "WHERE a.sid = t.sid GROUP BY a.sid, t.kind",
        IncrementalMode.PANE_INCREMENTAL,
    ),
    "join": (
        "SELECT a.sid AS s, SUM(a.val * b.val) AS p, COUNT(*) AS n "
        "FROM timeSlidingWindow(A, 20, 5) AS a, "
        "timeSlidingWindow(B, 20, 5) AS b "
        "WHERE a.sid = b.sid GROUP BY a.sid",
        IncrementalMode.PANE_JOIN,
    ),
    "recompute": (
        "SELECT a.sid AS sid, t.kind AS kind, MAX(a.val) AS top "
        "FROM timeSlidingWindow(A, 5, 5) AS a, sensors AS t "
        "WHERE a.sid = t.sid GROUP BY a.sid, t.kind",
        IncrementalMode.RECOMPUTE,
    ),
}


def run_all(gateway, layouts):
    """Register every plan once per layout, drain, snapshot by name."""
    registered = {
        f"{name}@{shards}": gateway.register(
            sql, name=f"{name}@{shards}", shards=shards
        )
        for shards in layouts
        for name, (sql, _tier) in PLANS.items()
    }
    while gateway.step():
        pass
    verify_gateway(gateway)
    return {name: snapshot(query) for name, query in registered.items()}


class TestOneEngineServesEveryLayout:
    def test_plans_run_on_the_tiers_they_name(self):
        engine = build_engine(streams=STREAMS, shards=2)
        for sql, tier in PLANS.values():
            assert plan_sql(sql, engine, name="probe").incremental.mode is tier

    def test_side_by_side_equals_two_separate_engines(self):
        engine = build_engine(streams=STREAMS, shards=2)
        gateway = GatewayServer(engine)
        together = run_all(gateway, layouts=(1, 2))

        narrow = run_all(
            GatewayServer(build_engine(streams=STREAMS)), layouts=(1,)
        )
        wide = run_all(
            GatewayServer(build_engine(streams=STREAMS, shards=2)),
            layouts=(2,),
        )
        assert together == {**narrow, **wide}
        for name in PLANS:  # and the layouts agree with each other
            assert together[f"{name}@1"] == together[f"{name}@2"]
            assert len(together[f"{name}@1"]) > 8

        assert len(engine.static_catalog) == 1
        for name in list(together):
            gateway.deregister(name)
        assert gateway.shared_reader_count == 0
        assert len(engine.static_catalog) == 0
        assert not any(engine.catalog.values())
        verify_gateway(gateway)


    @pytest.mark.parametrize("leaver", [1, 2])
    def test_a_layout_leaves_with_its_own_readers_only(self, leaver):
        # Both layouts window A on the same grid, so the three readers
        # share one sharing key: a per-key count released "from every
        # scope" kept the leaver's readers until the other layout left.
        engine = build_engine(streams=STREAMS, shards=2)
        gateway = GatewayServer(engine)
        sql, _tier = PLANS["pane"]
        for shards in (1, 2):
            gateway.register(sql, name=f"q{shards}", shards=shards)
        assert engine.shared_reader_count == 3
        gateway.step(3)
        gateway.deregister(f"q{leaver}")
        stayer = gateway.query(f"q{3 - leaver}")
        assert engine.shared_reader_count == 3 - leaver
        live = {leaf.scope for leaf in stayer.runtime.leaf_runtimes}
        assert {s for s, readers in engine.catalog.items() if readers} == live
        verify_gateway(gateway)
        gateway.deregister(stayer.name)
        assert engine.shared_reader_count == 0
        verify_gateway(gateway)


class TestOneOfEverything:
    def test_width_is_the_number_of_node_records(self):
        for width in (1, 2, 3):
            engine = StreamEngine(shards=width)
            assert engine.default_shards == width == len(engine.nodes)
            assert engine.caches == [node.cache for node in engine.nodes]
            assert engine.cache is engine.nodes[0].cache
            assert len({id(node.cache) for node in engine.nodes}) == width
            assert len({id(node.obs.registry) for node in engine.nodes}) == width
        with pytest.raises(ValueError):
            StreamEngine(shards=0)

    def test_one_node_counts_into_the_engines_own_bundle(self):
        engine = StreamEngine()
        (node,) = engine.nodes
        assert node.obs is engine.obs
        assert node.metrics is engine.metrics
        assert "shard" not in node.obs.attrs
        wide = StreamEngine(shards=2)
        assert [node.obs.attrs["shard"] for node in wide.nodes] == [0, 1]
        assert all(node.obs.tracer is wide.obs.tracer for node in wide.nodes)
        assert all(node.obs.registry is not wide.obs.registry for node in wide.nodes)

    def test_leaves_read_the_engines_one_of_each(self):
        engine = build_engine(streams=STREAMS, shards=2)
        gateway = GatewayServer(engine)
        leaves = []
        for shards in (1, 2):
            for name, (sql, _tier) in PLANS.items():
                query = gateway.register(
                    sql, name=f"{name}@{shards}", shards=shards
                )
                leaves.extend(query.runtime.leaf_runtimes)
        assert len(leaves) == 9
        assert all(leaf.static_catalog is engine.static_catalog for leaf in leaves)
        assert all(leaf.udfs is engine.udfs for leaf in leaves)
        for leaf in leaves:
            node = engine.nodes[leaf.scope[2]]
            assert leaf.obs is node.obs
            assert leaf.metrics is node.metrics.query(leaf.plan.name)
            for reader in leaf.readers.values():
                assert reader in engine.catalog[leaf.scope].values()
        # every reader of the deployment is in the one catalog
        assert engine.shared_reader_count == len(
            {id(r) for leaf in leaves for r in leaf.readers.values()}
        )

    def test_late_streams_and_databases_reach_every_node(self):
        engine = build_engine(streams={"A": STREAMS["A"]}, attach_static=False)
        wide = build_engine(
            streams={"A": STREAMS["A"]}, attach_static=False, shards=2
        )
        results = []
        for target in (engine, wide):
            gateway = GatewayServer(target)
            first = gateway.register(
                "SELECT a.sid AS sid, COUNT(*) AS n "
                "FROM timeSlidingWindow(A, 20, 5) AS a GROUP BY a.sid",
                name="first", shards=target.default_shards,
            )
            gateway.step(2)
            # registered after a query is bound
            target.register_stream(ListSource(Stream("B", SCHEMA), STREAMS["B"]))
            target.attach_database("meta", static_db())
            late = {
                name: gateway.register(
                    sql, name=name, shards=target.default_shards
                )
                for name, (sql, _tier) in PLANS.items()
            }
            for query in late.values():
                assert len(query.runtime.leaf_runtimes) == target.default_shards
            while gateway.step():
                pass
            verify_gateway(gateway)
            assert len(snapshot(first)) > 8
            results.append({name: snapshot(q) for name, q in late.items()})
        assert results[0] == results[1]

    def test_replacing_a_stream_drops_its_partitioned_slices(self):
        engine = build_engine(streams={"A": STREAMS["A"]}, shards=2)
        sql = (
            "SELECT a.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(A, 20, 5) AS a GROUP BY a.sid"
        )
        before = list(engine.run_continuous(plan_sql(sql, engine), shards=2))
        shorter = STREAMS["A"][: len(STREAMS["A"]) // 2]
        engine.register_stream(
            StreamSource(Stream("A", SCHEMA), lambda: iter(shorter))
        )
        after = list(engine.run_continuous(plan_sql(sql, engine), shards=2))
        assert 0 < len(after) < len(before)


def churn(engine, sessions=3):
    """Register, step and deregister ``sessions`` rounds of every plan
    at the engine's full width; weak references to every runtime."""
    gateway = GatewayServer(engine)
    refs = []
    for round_ in range(sessions):
        names = []
        for name, (sql, _tier) in PLANS.items():
            query = gateway.register(
                sql, name=f"{name}-{round_}", shards=engine.default_shards
            )
            refs.append(weakref.ref(query.runtime))
            refs.extend(weakref.ref(leaf) for leaf in query.runtime.leaf_runtimes)
            names.append(query.name)
            del query
        gateway.step(3)
        for name in names:
            gateway.deregister(name)
    return gateway, refs


class TestDeregisteredQueriesAreForgotten:
    @pytest.mark.parametrize("audit", [False, True])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_runtime_outlives_its_query(self, shards, audit, monkeypatch):
        if audit:
            monkeypatch.setenv("REPRO_AUDIT", "1")
        else:
            monkeypatch.delenv("REPRO_AUDIT", raising=False)
        engine = build_engine(streams=STREAMS, shards=shards)
        gateway, refs = churn(engine)
        assert gateway.audit == audit
        gc.collect()
        assert len(refs) >= 3 * len(PLANS) * shards
        assert [ref() for ref in refs if ref() is not None] == []
        assert len(engine._runtimes) == 0
        assert gateway.shared_reader_count == 0
        assert len(engine.static_catalog) == 0

    def test_siemens_session_churn_retains_nothing(self):
        fleet = generate_fleet(FleetConfig(turbines=4, plants=2, correlated_pairs=2))
        dep = deploy(fleet=fleet, stream_duration=25, shards=2)
        tasks = diagnostic_catalog()[:6]
        for _ in range(5):
            session = dep.session(sink_capacity=8)
            for task in tasks:
                session.submit(task.starql)
            session.step(3)
            session.close()
        gc.collect()
        assert len(dep.engine._runtimes) == 0
        assert dep.gateway.shared_reader_count == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_workers_still_report_and_end_with_the_engine(self):
        sql, _tier = PLANS["pane"]
        with build_engine(streams=STREAMS, shards=2, parallel="fork") as engine:
            gateway = GatewayServer(engine)
            query = gateway.register(sql, name="q", shards=2)
            gateway.step(4)
            # the leaves' post-fork work comes back over the worker pipes
            tuples_in = gateway.metrics_snapshot().value(
                "query_tuples_in_total", query="q"
            )
            assert tuples_in > 0
            workers = list(query.runtime.workers)
        assert not any(worker._process.is_alive() for worker in workers)


ENGINE_OPTIONS = ("default_shards", "parallel", "incremental", "mqo", "adaptive")


def configuration(engine):
    return {name: getattr(engine, name) for name in ENGINE_OPTIONS} | {
        "estimator": engine.estimator is not None,
        "nodes": len(engine.nodes),
    }


class TestFacadesForwardEngineOptions:
    def test_platform_accepts_every_engine_option(self):
        platform = OptiquePlatform(adaptive=True)
        assert platform.engine.estimator is not None
        assert type(platform.engine) is StreamEngine
        assert platform.engine.scheduler is platform.scheduler

        platform = OptiquePlatform(shards=2, parallel="fork")
        assert configuration(platform.engine) == configuration(
            StreamEngine(shards=2, parallel="fork")
        )
        platform = OptiquePlatform(incremental=False, mqo=False)
        assert configuration(platform.engine) == configuration(
            StreamEngine(incremental=False, mqo=False)
        )

    def test_deploy_builds_the_engine_the_constructor_builds(self):
        fleet = generate_fleet(FleetConfig(turbines=2, plants=1, correlated_pairs=1))
        dep = deploy(fleet=fleet, stream_duration=5, adaptive=True, shards=2)
        assert type(dep.engine) is StreamEngine
        assert configuration(dep.engine) == configuration(
            StreamEngine(adaptive=True, shards=2)
        )
        assert isinstance(dep.engine.scheduler, Scheduler)
        assert dep.gateway.scheduler is dep.engine.scheduler

    def test_a_misspelt_option_is_the_constructors_type_error(self):
        with pytest.raises(TypeError, match="adaptve"):
            StreamEngine(adaptve=True)
        with pytest.raises(TypeError, match="adaptve"):
            OptiquePlatform(adaptve=True)
        with pytest.raises(TypeError, match="adaptve"):
            deploy(adaptve=True)
        for dropped in ("prefetch", "layout"):
            with pytest.raises(TypeError):
                StreamEngine(shards=2, **{dropped: 8})

    @pytest.mark.parametrize("build", [StreamEngine, OptiquePlatform, deploy])
    def test_a_misspelt_value_is_an_invalid_option(self, build):
        # "frok" used to be accepted and silently ran the shards serially
        for value in ("frok", "process", ""):
            with pytest.raises(InvalidOption, match="parallel") as refused:
                build(shards=2, parallel=value)
            assert isinstance(refused.value, ValueError)
            assert isinstance(refused.value, ReproError)
        with pytest.raises(InvalidOption, match="shard"):
            build(shards=0)

    @pytest.mark.parametrize("value", [None, "serial"])
    def test_both_serial_spellings_run_in_process(self, value):
        engine = build_engine(streams=STREAMS, shards=2, parallel=value)
        runtime = engine.bind(plan_sql(PLANS["pane"][0], engine, name="q"))
        assert runtime.parallel == "serial"
        runtime.close()

    def test_bind_takes_no_layout_keywords(self):
        engine = build_engine(streams=STREAMS, shards=2)
        plan = plan_sql(PLANS["pane"][0], engine, name="q")
        with pytest.raises(TypeError):
            engine.bind(plan, shards=2, parallel="fork")
        with pytest.raises(TypeError):
            next(engine.run_continuous(plan, shards=2, parallel="fork"))
        assert engine.shared_reader_count == 0


class TestOneDeploymentObject:
    """``deploy()`` is "construct an ``OptiquePlatform``, attach the
    fleet" — the surface ``benchmarks/ledger/`` drives, pinned here so a
    refactor cannot break the benchmark silently."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(
            FleetConfig(turbines=2, plants=1, correlated_pairs=1)
        )

    def test_deploy_returns_a_ready_platform(self, fleet):
        dep = deploy(fleet=fleet, stream_duration=5)
        assert type(dep) is OptiquePlatform
        assert dep.fleet is fleet
        assert isinstance(dep.engine, StreamEngine)
        assert isinstance(dep.gateway, GatewayServer)
        assert dep.gateway.engine is dep.engine
        assert dep.gateway.scheduler is dep.engine.scheduler is dep.scheduler
        # the translator is built inside deploy(): registration (the
        # ledger's register_total_ms) never pays for its construction
        built = dep._translator
        assert built is not None and dep.translator is built
        # primary keys come off the attached schemas
        assert dep.primary_keys == {
            "countries": ("country_id",),
            "plants": ("plant_id",),
            "turbines": ("tid",),
            "assemblies": ("aid",),
            "sensors": ("sid",),
            "weather": ("plant_id", "day"),
            "EQUIP": ("EQ_NO",),
            "MEASPOINT": ("MP_NO",),
            "service_events": ("event_id",),
            "operating_hours": ("tid", "year"),
        }

    def test_sessions_share_the_platform(self, fleet):
        dep = deploy(fleet=fleet, stream_duration=5)
        session = dep.session(sink_capacity=8)
        assert type(session) is Session and session.sink_capacity == 8
        assert dep.session(sink_capacity=None).sink_capacity is None
        streaming = dep.async_session(name="viewer")
        assert type(streaming) is AsyncSession and streaming.name == "viewer"
        for opened in (session, streaming):
            assert opened.gateway is dep.gateway
            assert opened.translator is dep.translator
            assert opened.dashboard is dep.dashboard
        with pytest.raises(TypeError, match="sink_capcity"):
            dep.session(sink_capcity=8)

    def test_platform_runs_and_observes_through_one_object(self, fleet):
        dep = deploy(fleet=fleet, stream_duration=10)
        handle = dep.session().submit(
            diagnostic_catalog()[1].starql, name="t2", max_windows=3
        )
        assert dep.step() == 1
        assert asyncio.run(dep.serve()) == 2
        assert handle.windows_executed == 3
        snapshot_ = dep.metrics_snapshot()
        assert snapshot_.value("query_windows_total", query="t2") == 3
        assert "t2" in dep.monitor().render()

    def test_recover_onto_a_replacement_platform(self, fleet, tmp_path):
        tasks = diagnostic_catalog()[:3]

        def registered(dep):
            session = dep.session(sink_capacity=None)
            return [
                session.submit(task.starql, name=f"t{task.task_id}")
                for task in tasks
            ]

        oracle = deploy(fleet=fleet, stream_duration=10)
        expected = registered(oracle)
        while oracle.step():
            pass
        dep = deploy(fleet=fleet, stream_duration=10)
        registered(dep)
        manager = durability.CheckpointManager(dep.gateway, tmp_path, interval=2)
        dep.step(4)
        manager.close()
        replacement = deploy(fleet=fleet, stream_duration=10)
        restart = replacement.session()
        for task in tasks:  # re-installs the macro UDFs recovery binds
            restart.prepare(task.starql)
        gateway = durability.recover(
            tmp_path, replacement.engine,
            scheduler=replacement.gateway.scheduler,
        )
        assert gateway is not None and gateway.engine is replacement.engine
        while gateway.step():
            pass
        verify_gateway(gateway)
        for handle in expected:
            assert snapshot(gateway.query(handle.name)) == snapshot(
                handle.registered
            )

    def test_deploy_renders_the_sql_a_hand_assembled_platform_renders(
        self, fleet
    ):
        dep = deploy(fleet=fleet, stream_duration=5)
        platform = OptiquePlatform(
            build_siemens_ontology(), build_siemens_mappings()
        )
        platform.attach_database("plant", fleet.plant_db)
        platform.attach_database("legacy", fleet.legacy_db)
        platform.attach_database("history", fleet.history_db)
        platform.register_stream(
            fleet.measurement_source(fleet.sensor_ids[:4], duration_seconds=5)
        )
        platform.register_stream(fleet.event_source(duration_seconds=5))
        platform.macros = standard_macros()
        catalog = diagnostic_catalog()
        assert len(catalog) == 20
        for task in catalog:
            ours = dep.translator.translate_text(task.starql)
            theirs = platform.translator.translate_text(task.starql)
            assert ours.sql == theirs.sql, task.name
            assert ours.fleet_size == theirs.fleet_size
            assert len(ours.enriched) == len(theirs.enriched)

    def test_one_place_wires_a_deployment(self):
        """``OptiquePlatform.__init__`` builds the gateway of a new
        deployment, ``restore_gateway`` that of a recovered one; nothing
        else in ``src/`` constructs one."""
        src = Path(repro.__file__).parent
        sites = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            for _ in re.finditer(r"(?<![\w`])GatewayServer\(", path.read_text())
        )
        assert sites == [
            "exastream/durability/snapshot.py",
            "optique/platform.py",
        ]

    def test_one_place_builds_a_plan(self):
        """``planner.plan_select`` constructs every ``ContinuousPlan`` —
        the STARQL translator hands it the SQL(+) query it emits, and
        ``make_shard_plan`` derives a shard plan with ``replace`` — so
        every plan reaches the engine classified, and the classifiers
        are called from the planner (and the cost model) only."""
        src = Path(repro.__file__).parent

        def sites(pattern):
            return sorted({
                str(path.relative_to(src))
                for path in src.rglob("*.py")
                if re.search(pattern, path.read_text())
            })

        assert sites(r"(?<![\w`])ContinuousPlan\(") == ["exastream/planner.py"]
        assert sites(r"(?<!def )\banalyze_incremental\(") == [
            "exastream/estimator/cost.py", "exastream/planner.py",
        ]
        assert sites(r"(?<!def )\banalyze_partitioning\(") == ["exastream/planner.py"]
        translator = (src / "starql/translator.py").read_text()
        assert "parse_sql" not in translator and "_render_sql" not in translator

    def test_registration_does_not_analyse(self):
        """Registration is plan → bind → place: the gateway takes
        nothing from ``repro.analysis`` but the audit-mode verifier, and
        the MQO scope tag is spelled in one place."""
        src = Path(repro.__file__).parent
        tree = ast.parse((src / "exastream/gateway.py").read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and "analysis" in (node.module or "").split(".")
            for alias in node.names
        }
        assert imported == {"verify_gateway"}
        assert not [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any("analysis" in alias.name for alias in node.names)
        ]
        tags = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "key_column or 'none'" in path.read_text()
        )
        assert tags == ["exastream/engine.py"]
