"""Registration does each piece of work once.

The bind leg: static relations are materialised once per ``(database,
SQL text)`` and shared across queries, aliases, sessions and shards;
a failed bind leaves nothing behind.  The translate leg: block
deduplication, the bounded translation cache, and the count budgets CI
gates on (counts repeat exactly where timings cannot).
"""

import sqlite3
from dataclasses import replace

import pytest

from cqgen import build_engine, measurement_rows, snapshot
from repro.analysis import verify_gateway
from repro.errors import BindError, InvalidOption, ReproError
from repro.exastream import GatewayServer, Scheduler, plan_sql
from repro.exastream.durability import CheckpointManager, recover
from repro.mappings import (
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
    Unfolder,
)
from repro.queries import (
    ClassAtom,
    ConjunctiveQuery,
    PropertyAtom,
    UnionOfConjunctiveQueries,
)
from repro.queries import containment
from repro.rdf import Namespace, Variable
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.sql import print_query
from repro.starql import translator as translator_module

ROWS = measurement_rows(n_seconds=40)

#: two queries reading the same static relation under different aliases
JOIN_T = (
    "SELECT s.sid AS sid, t.kind AS kind, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 10, 5) AS s, sensors AS t "
    "WHERE s.sid = t.sid GROUP BY s.sid, t.kind"
)
JOIN_U = (
    "SELECT s.sid AS sid, u.kind AS kind, MAX(s.val) AS top "
    "FROM timeSlidingWindow(S, 20, 5) AS s, sensors AS u "
    "WHERE s.sid = u.sid GROUP BY s.sid, u.kind"
)
BAD_STATIC = (
    "SELECT w1.sid AS sid, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 7.0, 1.0) AS w1, "
    "(SELECT nosuch AS sid FROM sensors) AS st "
    "WHERE w1.sid = st.sid GROUP BY w1.sid"
)


@pytest.fixture
def static_queries(monkeypatch):
    """Every SQL text ``Database.query_with_names`` is asked to run."""
    seen = []
    real = Database.query_with_names

    def counting(self, sql, params=()):
        seen.append(sql)
        return real(self, sql, params)

    monkeypatch.setattr(Database, "query_with_names", counting)
    return seen


def drain(gateway):
    while gateway.step():
        pass


def solo(sql, shards):
    """``sql`` registered alone on a fresh deployment, run to the end."""
    gateway = GatewayServer(build_engine(list(ROWS), shards=2 if shards else 1))
    registered = gateway.register(sql, name="q", shards=shards or None)
    drain(gateway)
    return snapshot(registered)


# -- sharing -----------------------------------------------------------------


@pytest.mark.parametrize("shards", [0, 1, 2])
def test_queries_and_shards_share_one_materialisation(shards, static_queries):
    # shards=0: a plain StreamEngine; 1/2: layouts of a two-shard pool
    engine = build_engine(list(ROWS), shards=2 if shards else 1)
    gateway = GatewayServer(engine)
    a = gateway.register(JOIN_T, name="a", shards=shards or None)
    b = gateway.register(JOIN_U, name="b", shards=shards or None)
    assert len(static_queries) == 1  # one SQL, whatever the alias or shard
    assert len(engine.static_catalog) == 1
    leaves = a.runtime.leaf_runtimes + b.runtime.leaf_runtimes
    assert sum(engine.static_catalog.refs.values()) == len(leaves)
    tables = [leaf.statics[alias] for leaf, alias in zip(
        leaves,
        ["t"] * len(a.runtime.leaf_runtimes)
        + ["u"] * len(b.runtime.leaf_runtimes),
    )]
    assert all(t.relation.rows is tables[0].relation.rows for t in tables)
    drain(gateway)
    verify_gateway(gateway)
    # rows are shared, hash indexes are each view's own: a query's
    # first probe costs the same whoever probed the relation before it
    assert len({id(t._indexes) for t in tables}) == len(tables)
    assert all(len(t._indexes) == 1 for t in tables)
    del static_queries[:]
    assert snapshot(a) == solo(JOIN_T, shards)
    assert snapshot(b) == solo(JOIN_U, shards)
    gateway.deregister("a")
    assert len(engine.static_catalog) == 1  # b still reads it
    gateway.deregister("b")
    assert len(engine.static_catalog) == 0
    verify_gateway(gateway)


def test_pushdown_filter_stays_private():
    filtered = JOIN_T.replace("WHERE", "WHERE t.kind = 'temp' AND")
    gateway = GatewayServer(build_engine(list(ROWS)))
    plain = gateway.register(JOIN_T, name="plain")
    narrow = gateway.register(filtered, name="narrow")
    shared = plain.runtime.statics["t"]
    private = narrow.runtime.statics["t"]
    assert len(private.relation.rows) < len(shared.relation.rows)
    assert private.relation.rows is not shared.relation.rows
    assert private._indexes is not shared._indexes
    drain(gateway)
    assert snapshot(plain) == solo(JOIN_T, 0)
    assert snapshot(narrow) == solo(filtered, 0)


def small_deployment(**kwargs):
    fleet = generate_fleet(FleetConfig(turbines=2, plants=2, seed=5))
    return deploy(fleet=fleet, stream_duration=20, **kwargs)


def session_results(deployment, tasks, sessions):
    """Every task submitted by each of ``sessions`` sessions; results
    per (session, task) after the run drains."""
    opened = [deployment.session(sink_capacity=None) for _ in range(sessions)]
    handles = {
        (i, task.task_id): session.submit(
            task.starql, name=f"s{i}.t{task.task_id}"
        )
        for i, session in enumerate(opened)
        for task in tasks
    }
    while deployment.step():
        pass
    out = {key: snapshot(h.registered) for key, h in handles.items()}
    return out, opened


@pytest.mark.parametrize("shards", [1, 2])
def test_sessions_share_and_match_solo_deployments(shards, static_queries):
    tasks = [diagnostic_catalog()[i] for i in (0, 1, 6, 7)]
    deployment = small_deployment(shards=shards)
    shared, opened = session_results(deployment, tasks, sessions=2)
    distinct = {
        ref.sql
        for t in tasks
        for ref in deployment.translator.translate_text(t.starql).plan.statics
    }
    assert sorted(static_queries) == sorted(distinct)
    for task in tasks:
        alone, _ = session_results(
            small_deployment(shards=shards), [task], sessions=1
        )
        assert shared[0, task.task_id] == alone[0, task.task_id]
        assert shared[1, task.task_id] == alone[0, task.task_id]
    opened[0].close()
    assert len(deployment.engine.static_catalog) == len(distinct)
    opened[1].close()
    assert len(deployment.engine.static_catalog) == 0
    assert deployment.gateway.shared_reader_count == 0
    verify_gateway(deployment.gateway)


def sensors_db(sids):
    schema = Schema("meta")
    schema.add(Table("sensors", [
        Column("sid", SQLType.INTEGER), Column("kind", SQLType.TEXT),
    ]))
    db = Database(schema)
    db.insert("sensors", [(s, "temp") for s in sids])
    return db


def test_insert_invalidates_for_the_next_registration_only(static_queries):
    def run(sql, db_sids, then_insert=(), then_sql=None):
        engine = build_engine(list(ROWS), attach_static=False)
        db = sensors_db(db_sids)
        engine.attach_database("meta", db)
        gateway = GatewayServer(engine)
        first = gateway.register(sql, name="first")
        second = None
        if then_insert:
            db.insert("sensors", [(s, "temp") for s in then_insert])
            second = gateway.register(then_sql, name="second")
            assert len(engine.static_catalog) == 2  # old rows + new rows
        drain(gateway)
        return snapshot(first), second and snapshot(second)

    # (a different window grid keeps MQO from sharing the two pipelines)
    before, after = run(
        JOIN_T, [0, 1, 2], then_insert=[3, 4, 5], then_sql=JOIN_U
    )
    assert len(static_queries) == 2  # the same SQL text, run again
    assert static_queries[0] == static_queries[1]
    assert before == run(JOIN_T, [0, 1, 2])[0]  # untouched by the insert
    assert after == run(JOIN_U, [0, 1, 2, 3, 4, 5])[0]  # sees the new rows
    assert after != run(JOIN_U, [0, 1, 2])[0]


def test_catalog_empty_after_recover_and_close(tmp_path):
    engine = build_engine(list(ROWS))
    gateway = GatewayServer(engine)
    gateway.register(JOIN_T, name="a")
    gateway.register(JOIN_U, name="b")
    manager = CheckpointManager(gateway, tmp_path, interval=1)
    gateway.step(3)
    manager.close()
    fresh = build_engine(list(ROWS))
    recovered = recover(tmp_path, fresh)
    assert len(fresh.static_catalog) == 1
    verify_gateway(recovered)
    drain(recovered)
    for name in ("a", "b"):
        recovered.deregister(name)
    assert len(fresh.static_catalog) == 0
    verify_gateway(recovered)


def test_run_continuous_releases_its_statics():
    engine = build_engine(list(ROWS))
    results = engine.run_continuous(plan_sql(JOIN_T, engine, name="q"))
    next(results)
    assert len(engine.static_catalog) == 1
    results.close()
    assert len(engine.static_catalog) == 0


# -- a failed bind leaves nothing behind, and says what failed ---------------


@pytest.mark.parametrize("audit", [False, True])
@pytest.mark.parametrize("shards", [0, 2])
def test_failed_bind_leaks_nothing(shards, audit, monkeypatch):
    if audit:
        monkeypatch.setenv("REPRO_AUDIT", "1")
    engine = build_engine(list(ROWS), shards=2 if shards else 1)
    gateway = GatewayServer(engine)
    with pytest.raises(BindError):
        gateway.register(BAD_STATIC, name="bad", shards=shards or None)
    assert "bad" not in gateway
    assert gateway.shared_reader_count == 0
    assert len(engine.static_catalog) == 0
    verify_gateway(gateway)
    # the deployment is as usable as before
    good = gateway.register(JOIN_T, name="good", shards=shards or None)
    with pytest.raises(BindError):
        gateway.register(BAD_STATIC, name="bad", shards=shards or None)
    assert gateway.shared_reader_count == max(shards, 1)
    assert sum(engine.static_catalog.refs.values()) == len(
        good.runtime.leaf_runtimes
    )
    drain(gateway)
    assert snapshot(good) == solo(JOIN_T, shards)
    gateway.deregister("good")
    verify_gateway(gateway)


def test_bind_error_carries_query_alias_and_sql():
    gateway = GatewayServer(build_engine(list(ROWS)))
    with pytest.raises(BindError) as info:
        gateway.register(BAD_STATIC, name="bad")
    error = info.value
    assert isinstance(error, ReproError)
    assert (error.query, error.alias) == ("bad", "st")
    assert "nosuch" in error.sql and "nosuch" in str(error)
    assert isinstance(error.__cause__, sqlite3.OperationalError)


def test_unattached_database_is_a_bind_error():
    planned_on = build_engine(list(ROWS))
    plan = plan_sql(JOIN_T, planned_on, name="q")
    bare = build_engine(list(ROWS), attach_static=False)
    with pytest.raises(BindError) as info:
        bare.bind(plan)
    assert isinstance(info.value, KeyError)  # what it used to be
    assert "not attached" in str(info.value) and info.value.alias == "t"
    assert bare.shared_reader_count == 0


#: static-side filters that only fail when the runtime compiles them —
#: after the statics, the readers and the MQO subscription were taken
LATE_FAILURES = ["NOSUCH(t.kind) = 1", "t.nosuch = 1"]


def engine_state(gateway):
    """Everything a registration can take from the deployment."""
    engine = gateway.engine
    return {
        "queries": sorted(q.name for q in gateway.queries),
        "mqo": gateway.mqo.subscribers(),
        "statics": engine.static_catalog.refs,
        "reader_refs": engine.catalog.refs,
        "demand": {
            (scope, key): (reader.batch_demand, reader.pane_demand)
            for scope, readers in engine.catalog.items()
            for key, reader in readers.items()
        },
    }


@pytest.mark.parametrize("condition", LATE_FAILURES)
@pytest.mark.parametrize("shards", [1, 2])
def test_bind_failing_after_the_mqo_subscription_leaks_nothing(
    shards, condition
):
    gateway = GatewayServer(build_engine(list(ROWS), shards=2))
    live = gateway.register(JOIN_T, name="live", shards=shards)
    assert len(live.runtime.leaf_runtimes) == shards
    gateway.step(2)
    before = engine_state(gateway)
    assert before["mqo"] and before["statics"] and before["demand"]
    bad = JOIN_T.replace("GROUP BY", f"AND {condition} GROUP BY")
    with pytest.raises(BindError) as info:  # same reader, same static
        gateway.register(bad, name="bad", shards=shards)
    assert isinstance(info.value, ReproError)
    assert (info.value.query, info.value.alias) == ("bad", "t")
    assert isinstance(info.value.__cause__, (KeyError, ValueError))
    assert engine_state(gateway) == before
    verify_gateway(gateway)
    drain(gateway)
    assert snapshot(live) == solo(JOIN_T, shards)
    gateway.deregister("live")
    assert engine_state(gateway)["reader_refs"] == {}
    verify_gateway(gateway)


#: stream-side names no input has: a pushed filter, a scalar function,
#: a lifted key expression and an equi-join key.  Each registered fine
#: and raised a bare ``KeyError``/``ValueError`` out of the first
#: ``gateway.step()``, so a healthy query registered after it starved.
UNKNOWN_STREAM_NAMES = [
    "s.nosuch > 3",
    "NOSUCH(s.val) = 1",
    "(s.nosuch || 'x') = t.kind",
    "s.nosuch = t.sid",
]


@pytest.mark.parametrize("audit", [False, True])
@pytest.mark.parametrize("condition", UNKNOWN_STREAM_NAMES)
@pytest.mark.parametrize("shards", [1, 2])
def test_unknown_stream_column_is_a_bind_error_at_register(
    shards, condition, audit, monkeypatch
):
    if audit:
        monkeypatch.setenv("REPRO_AUDIT", "1")
    gateway = GatewayServer(build_engine(list(ROWS), shards=2))
    live = gateway.register(JOIN_T, name="live", shards=shards)
    gateway.step(2)
    before = engine_state(gateway)
    bad = JOIN_T.replace("GROUP BY", f"AND {condition} GROUP BY")
    with pytest.raises(BindError) as info:
        gateway.register(bad, name="bad", shards=shards)
    assert isinstance(info.value, ReproError)
    assert (info.value.query, info.value.alias) == ("bad", "s")
    assert info.value.sql == "S[10.0/5.0]" and "nosuch" in str(info.value).lower()
    assert isinstance(info.value.__cause__, (KeyError, ValueError))
    assert engine_state(gateway) == before
    verify_gateway(gateway)
    # a healthy query registered after the refused one delivers
    late = gateway.register(JOIN_U, name="late", shards=shards)
    drain(gateway)
    assert snapshot(live) == solo(JOIN_T, shards)
    assert snapshot(late) == solo(JOIN_U, shards)


@pytest.mark.parametrize("shards, message", [
    (0, "at least one shard"), (-1, "at least one shard"), (3, "pool of 2"),
])
def test_refused_registration_width_is_an_invalid_option(shards, message):
    gateway = GatewayServer(build_engine(list(ROWS), shards=2))
    with pytest.raises(InvalidOption, match=message) as info:
        gateway.register(JOIN_T, name="q", shards=shards)
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, ValueError)  # what it used to be
    assert "q" not in gateway and gateway.shared_reader_count == 0


# -- what a query takes dies with it -----------------------------------------


def test_gateway_keeps_no_per_query_record_after_deregister():
    gateway = GatewayServer(build_engine(list(ROWS)))
    assert gateway.obs.enabled  # delivery is timed per query

    def record_sizes():
        return {
            attr: len(value)
            for attr, value in vars(gateway).items()
            if hasattr(value, "__len__")
        }

    before = record_sizes()
    for cycle in range(5):
        gateway.register(JOIN_T, name=f"q{cycle}")
        assert gateway.step(2) == 2
        gateway.deregister(f"q{cycle}")
    assert record_sizes() == before


@pytest.mark.parametrize("on_engine", [True, False])
def test_one_scheduler_per_deployment(on_engine):
    scheduler = Scheduler(2)
    if on_engine:  # supplied to the engine, found by the gateway
        engine = build_engine(list(ROWS), shards=2, scheduler=scheduler)
        gateway = GatewayServer(engine)
    else:  # supplied to the gateway, installed on the engine
        engine = build_engine(list(ROWS), shards=2)
        gateway = GatewayServer(engine, scheduler=scheduler)
    assert gateway.scheduler is engine.scheduler is scheduler
    assert GatewayServer(engine, scheduler=scheduler).scheduler is scheduler
    with pytest.raises(ValueError):
        GatewayServer(engine, scheduler=Scheduler(2))

    gateway.register(JOIN_T, name="q", shards=2)
    gateway.step(2)
    assert "q" in scheduler.load_report().query_costs
    assert scheduler.shard_assignments("q") == {0: 0, 1: 1}
    gateway.deregister("q")
    assert scheduler.load_report().query_costs == {}
    assert scheduler.shard_assignments("q") == {}
    verify_gateway(gateway)


@pytest.mark.parametrize("shards, at_most", [(1, 1), (4, 2)])
def test_plan_signature_runs_once_per_plan(shards, at_most, monkeypatch):
    import repro.exastream.mqo.signature as signature

    calls = []
    real = signature.plan_signature

    def counted(plan):
        calls.append(plan.name)
        return real(plan)

    monkeypatch.setattr(signature, "plan_signature", counted)
    engine = build_engine(list(ROWS), shards=4, scheduler=Scheduler(2))
    gateway = GatewayServer(engine)
    registered = gateway.register(JOIN_T, name="q", shards=shards)
    assert len(registered.runtime.leaf_runtimes) == shards
    assert all(leaf.mqo is not None for leaf in registered.runtime.leaf_runtimes)
    assert 1 <= len(calls) <= at_most
    gateway.step(2)
    gateway.deregister("q")  # unindexing reads the stored signature
    verify_gateway(gateway)
    assert len(calls) <= at_most


# -- translate leg: block dedupe and the bounded translation cache -----------

NS = Namespace("urn:reg#")


def test_unfold_dedupes_blocks_up_to_conjunct_order():
    # p and its inverse read one table with the columns swapped: the two
    # disjuncts unfold to the same block with the equalities in the
    # other order
    mappings = MappingCollection()
    for name in ("A", "B"):
        mappings.add(MappingAssertion.for_class(
            NS[name], TemplateSpec(Template("urn:i/{id}")),
            f"SELECT id FROM c_{name}", source_name="db"))
    mappings.add(MappingAssertion.for_property(
        NS.p, TemplateSpec(Template("urn:i/{s}")),
        TemplateSpec(Template("urn:i/{o}")),
        "SELECT s, o FROM r", source_name="db"))
    mappings.add(MappingAssertion.for_property(
        NS.p_inv, TemplateSpec(Template("urn:i/{o}")),
        TemplateSpec(Template("urn:i/{s}")),
        "SELECT s, o FROM r", source_name="db"))
    x, y = Variable("x"), Variable("y")
    classes = (ClassAtom(NS.A, x), ClassAtom(NS.B, y))
    forward = ConjunctiveQuery((x,), classes + (PropertyAtom(NS.p, x, y),))
    backward = ConjunctiveQuery(
        (x,), classes + (PropertyAtom(NS.p_inv, y, x),)
    )
    unfolder = Unfolder(mappings)
    first, second = (
        unfolder.unfold_cq(cq)[0].select for cq in (forward, backward)
    )
    # the same block, but for the order of its conjuncts
    assert print_query(first) != print_query(second)
    assert first.where != second.where
    assert set(first.where) == set(second.where)
    assert replace(first, where=()) == replace(second, where=())
    result = unfolder.unfold(UnionOfConjunctiveQueries((forward, backward)))
    assert [d.select for d in result.disjuncts] == [first]  # first seen


def test_translation_cache_is_a_bounded_lru():
    deployment = small_deployment()
    translator = deployment.translator
    base = diagnostic_catalog()[1].starql
    limit = translator_module._TEXT_CACHE_SIZE

    def variant(k):
        return base.replace("> 95", f"> {95 + k}")

    translator.translate_text(base)
    for k in range(1, limit):  # fills the cache exactly
        translator.translate_text(variant(k))
        translator.translate_text(base)  # keeps the base text recent
    assert len(translator._text_cache) == limit
    assert (translator.cache_hits, translator.cache_misses) == (
        limit - 1, limit,
    )
    for k in range(limit, 2 * limit):
        translator.translate_text(variant(k))
        translator.translate_text(base)
    assert len(translator._text_cache) == limit  # bounded
    assert translator.cache_hits == 2 * limit - 1  # base never evicted
    translator.translate_text(variant(1))  # evicted long ago: a miss
    assert translator.cache_misses == 2 * limit + 1


# -- the registration budget: counts, not wall clock -------------------------


def test_registration_budget(static_queries, monkeypatch):
    homomorphism_calls = []
    real = containment.find_homomorphism

    def counting(source, target):
        homomorphism_calls.append(1)
        return real(source, target)

    monkeypatch.setattr(containment, "find_homomorphism", counting)
    deployment = small_deployment(shards=2)
    tasks = diagnostic_catalog()
    translations = [
        deployment.translator.translate_text(t.starql) for t in tasks
    ]
    assert len(homomorphism_calls) <= 200
    # task 5 describes two streamed sensors: two WHERE pieces, each one
    # UCQ disjunct and one static relation; every other task is one piece
    pieces = [ucq for t in translations for ucq in t.enriched]
    assert len(pieces) == 21 and all(len(ucq) == 1 for ucq in pieces)
    distinct = {ref.sql for t in translations for ref in t.plan.statics}
    assert len(distinct) == 17

    sessions = [deployment.session(sink_capacity=4) for _ in range(3)]
    for i, session in enumerate(sessions):
        for task in tasks:
            session.submit(task.starql, name=f"s{i}.t{task.task_id}", shards=1)
    assert sorted(static_queries) == sorted(distinct)  # once each
    wide = deployment.session(sink_capacity=4)
    for task in tasks:
        wide.submit(task.starql, name=f"wide.t{task.task_id}", shards=2)
    assert len(static_queries) == len(distinct)  # shards add none
    for session in sessions + [wide]:
        session.close()
    assert len(deployment.engine.static_catalog) == 0


def test_the_catalogs_static_side_is_this_many_rows():
    """What the 20 tasks hold on the static side, as exact counts: a
    WHERE pattern unfolded as a cross-entity product again shows up here
    as rows (task 5 as one block was 37 632 of 38 941 rows in 16
    relations), not as a timing."""
    fleet = generate_fleet(FleetConfig(turbines=3, plants=2, seed=7))
    deployment = deploy(fleet=fleet, stream_duration=5)
    session = deployment.session(sink_capacity=4)
    for task in diagnostic_catalog():
        session.submit(task.starql, name=f"t{task.task_id}")
    snapshot = deployment.metrics_snapshot()
    assert snapshot.total("static_relations_materialised_total") == 17
    assert snapshot.total("static_relations_shared_total") == 4
    assert snapshot.total("static_relation_rows") == 1981
    session.close()
    assert deployment.metrics_snapshot().total("static_relation_rows") == 0
