"""Plan-invariant verifier tests: refcount balance, pane-ring bounds and
signature-eligibility agreement, checked mid-flight and at teardown."""

import pytest

from cqgen import build_engine
from repro.analysis import InvariantViolation, verify_gateway, verify_runtime
from repro.exastream import GatewayServer
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
    key = next(iter(gateway._reader_refs))
    gateway._reader_refs[key] += 1  # simulate a leaked reference
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any("refcount" in v or "reader" in v for v in info.value.violations)


def test_violation_detected_on_stale_reader_key():
    gateway = fresh_gateway()
    gateway.register(QUERIES["agg"], name="agg")
    gateway._reader_keys["ghost"] = set(gateway._reader_keys["agg"])
    with pytest.raises(InvariantViolation):
        verify_gateway(gateway)


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
    key = next(iter(gateway._reader_refs))
    gateway._reader_refs[key] += 1  # simulate a leaked reference
    with pytest.raises(InvariantViolation) as info:
        verify_gateway(gateway)
    assert any("refcount" in v or "reader" in v for v in info.value.violations)


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
