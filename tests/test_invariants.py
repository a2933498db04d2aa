"""Plan-invariant verifier tests: refcount balance, pane-ring bounds and
signature-eligibility agreement, checked mid-flight and at teardown."""

import itertools
import random
from types import SimpleNamespace

import pytest

from cqgen import build_engine
from repro.analysis import InvariantViolation, verify_gateway, verify_runtime
from repro.errors import BindError
from repro.exastream import GatewayServer, Scheduler, plan_sql
from repro.optique.session import PreparedQuery, Session
from repro.siemens import deploy, diagnostic_catalog

ROWS = [(float(i), i % 3, float(i) * 1.5) for i in range(20)]

QUERIES = {
    "agg": (
        "SELECT s.sid AS sid, COUNT(*) AS n, AVG(s.val) AS a "
        "FROM timeSlidingWindow(S, 6, 2) AS s GROUP BY s.sid"
    ),
    "agg_twin": (
        "SELECT s.sid AS sid, SUM(s.val) AS total "
        "FROM timeSlidingWindow(S, 6, 2) AS s GROUP BY s.sid"
    ),
    "join": (
        "SELECT s.sid AS sid, t.kind AS kind "
        "FROM timeSlidingWindow(S, 6, 2) AS s, sensors AS t "
        "WHERE s.sid = t.sid"
    ),
    "pane_join": (
        "SELECT a.sid AS sid, a.val AS va, b.val AS vb "
        "FROM timeSlidingWindow(S, 6, 2) AS a, "
        "timeSlidingWindow(S, 6, 2) AS b "
        "WHERE a.sid = b.sid"
    ),
}


def fresh_gateway():
    return GatewayServer(build_engine(list(ROWS)))


def test_clean_gateway_verifies():
    verify_gateway(fresh_gateway())


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_single_query_lifecycle(key):
    gateway = fresh_gateway()
    gateway.register(QUERIES[key], name=key)
    verify_gateway(gateway)  # after bind, before any execution
    while gateway.step(1):
        verify_gateway(gateway)  # between every window
    gateway.deregister(key)
    verify_gateway(gateway)  # quiescent: every refcount back to zero


def test_concurrent_queries_with_shared_state():
    gateway = fresh_gateway()
    for name, sql in QUERIES.items():
        gateway.register(sql, name=name)
    verify_gateway(gateway)
    while gateway.step():
        pass
    verify_gateway(gateway)
    # staggered teardown exercises the partial-release paths
    for name in QUERIES:
        gateway.deregister(name)
        verify_gateway(gateway)


def test_runtime_ring_bounds_direct():
    gateway = fresh_gateway()
    registered = gateway.register(QUERIES["pane_join"], name="pj")
    gateway.step(3)
    runtime = registered.runtime
    assert verify_runtime(runtime, "pj") == []
    gateway.deregister("pj")


def test_violation_detected_when_refcounts_corrupted():
    gateway = fresh_gateway()
    gateway.register(QUERIES["agg"], name="agg")
    catalog = gateway.engine.catalog
    scope, key = next(iter(catalog.refs))
    catalog.acquire(scope, key, None)  # a reference no runtime accounts for
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any("refcount is 2" in v for v in info.value.violations)
    with pytest.raises(InvariantViolation) as info:
        gateway.deregister("agg")
        verify_gateway(gateway)  # ... and the reader outlives its last query
    assert any("still holds 1 reader" in v for v in info.value.violations)


def test_violation_detected_on_reference_the_catalog_does_not_count():
    gateway = fresh_gateway()
    registered = gateway.register(QUERIES["agg"], name="agg")
    registered.runtime.reader_keys.append("ghost@None")
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any(
        "'ghost@None'" in v and "refcount is 0" in v
        for v in info.value.violations
    )


def test_audit_mode_runs_checks_inline(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    gateway = fresh_gateway()
    assert gateway.audit
    for name, sql in QUERIES.items():
        gateway.register(sql, name=name)
    while gateway.step():  # audit hooks fire at drain and on every deregister
        pass
    for name in QUERIES:
        gateway.deregister(name)
    verify_gateway(gateway)


def test_audit_mode_over_siemens_session(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    deployment = deploy(stream_duration=5)
    assert deployment.gateway.audit
    session = deployment.session()
    try:
        for task in diagnostic_catalog()[:4]:
            session.submit(task.starql, name=f"t{task.task_id}")
        session.step(20)
        verify_gateway(deployment.gateway)
    finally:
        session.close()
    verify_gateway(deployment.gateway)


# -- sharded deployments: the catalog and the audit cover them too ----------


def sharded_gateway():
    return GatewayServer(build_engine(list(ROWS), shards=2))


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_reader_count_tracks_live_readers(shards):
    gateway = sharded_gateway()
    gateway.register(QUERIES["agg"], name="a", shards=shards)
    gateway.register(QUERIES["agg_twin"], name="b", shards=shards)
    assert gateway.shared_reader_count == shards  # one shared reader per shard
    gateway.step(2)
    gateway.deregister("a")
    assert gateway.shared_reader_count == shards  # b still reads them
    gateway.deregister("b")
    assert gateway.shared_reader_count == 0
    verify_gateway(gateway)


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_violation_detected_when_refcounts_corrupted(shards):
    gateway = sharded_gateway()
    gateway.register(QUERIES["agg"], name="agg", shards=shards)
    verify_gateway(gateway)
    catalog = gateway.engine.catalog
    scope, key = max(catalog.refs)  # the last shard's
    catalog.acquire(scope, key, None)  # a reference no runtime accounts for
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any(
        repr(scope) in v and "refcount is 2" in v
        for v in info.value.violations
    )


@pytest.mark.parametrize("kind", ["batch", "pane"])
@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_violation_detected_on_leaked_reader_demand(shards, kind):
    gateway = sharded_gateway()
    registered = gateway.register(QUERIES["agg"], name="agg", shards=shards)
    gateway.step(2)
    verify_gateway(gateway)
    leaf = registered.runtime.leaf_runtimes[-1]
    reader = next(iter(leaf.readers.values()))
    if kind == "batch":
        reader.demand_batches()  # a demand no runtime accounts for
    else:
        reader.demand_panes()
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any(f"{kind} demand" in v for v in info.value.violations)


@pytest.mark.parametrize("shards", [1, 2])
def test_violation_detected_on_leaked_static_reference(shards):
    gateway = sharded_gateway()
    registered = gateway.register(QUERIES["join"], name="join", shards=shards)
    gateway.step(2)
    verify_gateway(gateway)
    catalog = gateway.engine.static_catalog
    leaf = registered.runtime.leaf_runtimes[-1]
    database, sql, _version = leaf.static_keys[0]
    catalog.acquire(database, sql)  # a reference no runtime accounts for
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any("static relation" in v for v in info.value.violations)
    with pytest.raises(InvariantViolation) as info:
        gateway.deregister("join")  # (audit mode verifies in here already)
        verify_gateway(gateway)  # ... and it outlives the last deregister
    assert any("0 runtime reference" in v for v in info.value.violations)


SHARDED_SQL = {
    "agg": QUERIES["agg"],
    "pane_join": (
        "SELECT a.sid AS sid, COUNT(*) AS n, SUM(a.val * b.val) AS p "
        "FROM timeSlidingWindow(S, 6, 2) AS a, "
        "timeSlidingWindow(S, 6, 2) AS b "
        "WHERE a.sid = b.sid GROUP BY a.sid"
    ),
}


@pytest.mark.parametrize("key", sorted(SHARDED_SQL))
def test_verify_runtime_walks_sharded_leaves(key):
    gateway = sharded_gateway()
    registered = gateway.register(SHARDED_SQL[key], name="q", shards=2)
    gateway.step(3)
    runtime = registered.runtime
    assert len(runtime.leaf_runtimes) == 2
    assert verify_runtime(runtime, "q") == []
    # an eviction bug on one shard: a ring spanning far more than a window
    tier = runtime.leaf_runtimes[1].tier
    ring = tier.ring if key == "agg" else tier.side_rings[0]
    ring[10_000] = {}
    violations = verify_runtime(runtime, "q")
    assert violations and all("q[shard 1]" in v for v in violations)
    # demotion bookkeeping is checked per leaf as well
    del ring[10_000]
    runtime.demote("test")
    assert verify_runtime(runtime, "q") == []
    runtime.leaf_runtimes[0]._batch_demanded.clear()
    assert any("demoted" in v for v in verify_runtime(runtime, "q"))


# -- lifecycle property: whatever the interleaving, everything comes back ---

LIFECYCLE_SQL = [QUERIES["agg"], QUERIES["agg_twin"], QUERIES["join"],
                 QUERIES["pane_join"], SHARDED_SQL["pane_join"]]
#: binds up to the MQO subscription, then fails compiling a static filter
FAILING_SQL = QUERIES["join"] + " AND NOSUCH(t.kind) = 1"


@pytest.mark.parametrize("mqo", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_lifecycle_interleavings_release_everything(seed, mqo):
    rng = random.Random(seed)
    scheduler = Scheduler(2)
    engine = build_engine(list(ROWS), shards=2, mqo=mqo, scheduler=scheduler)
    gateways = [GatewayServer(engine), GatewayServer(engine)]
    sessions = [Session(None, gateway) for gateway in gateways]
    streams = {}  # query name -> an open bus subscription
    names = (f"q{n}" for n in itertools.count())  # unique per engine

    def submit(session, sql):
        # a session submits prepared STARQL; all it reads is the plan
        prepared = PreparedQuery(sql, SimpleNamespace(plan=plan_sql(sql, engine)))
        return session.submit(
            prepared, name=next(names), shards=rng.choice([1, 2])
        )

    def forget_streams():
        for name in [n for n in streams if not any(n in g for g in gateways)]:
            streams.pop(name).close()

    for _ in range(40):
        session = rng.choice(sessions)
        op = rng.choice(
            ["register", "register", "fail", "step", "step", "pause",
             "resume", "deregister", "close"]
        )
        if op == "register":
            handle = submit(session, rng.choice(LIFECYCLE_SQL))
            if rng.random() < 0.3:
                streams[handle.name] = handle.stream(capacity=4)
        elif op == "fail":
            with pytest.raises(BindError):
                submit(session, FAILING_SQL)
        elif op == "step":
            session.step(rng.randrange(1, 4))
        elif op == "close":
            session.close()
        elif session.handles:
            handle = rng.choice(session.handles)
            if op == "deregister":
                handle.close()
            elif not handle.state.is_terminal:
                handle.pause() if op == "pause" else handle.resume()
        forget_streams()
        for gateway in gateways:
            verify_gateway(gateway)

    for session in sessions:
        session.close()
    forget_streams()
    for gateway in gateways:
        verify_gateway(gateway)
        assert gateway.queries == [] and gateway.bus.topics == {}
        assert gateway.mqo is None or gateway.mqo.pipeline_count == 0
    assert engine.shared_reader_count == 0
    assert engine.catalog.refs == {} and engine.static_catalog.refs == {}
    report = scheduler.load_report()
    assert report.query_costs == {} and report.pipeline_refs == {}
    assert all(worker.placements == () for worker in report.workers)
