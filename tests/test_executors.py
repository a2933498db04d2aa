"""The tier-executor split and the two contracts above the engine.

* One retirement transition: whatever ends a pane tier — a late tuple on
  a pane reader, a late tuple on either pane-join side, or a cost-based
  ``demote()`` at any window — the runtime ends in the identical
  post-state, on a plain engine and on every shard of a ``shards=2``
  layout, and the output stays byte-identical to a recompute-only run.
* One contract per role: every runtime is a ``WindowExecutor``, every
  engine the one ``Engine`` class whatever its width; fork-parallel
  runtimes keep their refusals.
"""

import pytest

from cqgen import SCHEMA, build_engine, snapshot
from repro.analysis import verify_gateway
from repro.errors import RecoveryError
from repro.exastream import (
    Engine,
    GatewayServer,
    PaneExecutor,
    PaneJoinExecutor,
    PlanRuntime,
    ShardedEngine,
    ShardedPlanRuntime,
    StreamEngine,
    WindowExecutor,
    stable_hash,
)
from repro.exastream.sharded import fork_available
from repro.streams import Stream, StreamSource

PANE_SQL = (
    "SELECT s.sid AS sid, COUNT(*) AS n, SUM(s.val) AS total "
    "FROM timeSlidingWindow(A, 20, 5) AS s GROUP BY s.sid"
)
JOIN_SQL = (
    "SELECT a.sid AS s, SUM(a.val * b.val) AS p, COUNT(*) AS n "
    "FROM timeSlidingWindow(A, 20, 5) AS a, "
    "timeSlidingWindow(B, 20, 5) AS b "
    "WHERE a.sid = b.sid GROUP BY a.sid"
)
BASE = {
    "A": [(float(t), t % 8, 50.0 + t % 7) for t in range(120)],
    "B": [(float(t), t % 8, 30.0 + t % 5) for t in range(120)],
}


def with_late_tuples(rows):
    """One genuinely late arrival per shard of a two-shard layout (rows
    route by ``sid``), so every leaf runtime sees disorder."""
    rows = list(rows)
    for shard in (0, 1):
        sid = next(s for s in range(8) if stable_hash(s) % 2 == shard)
        early, late = 56 + sid, 64 + sid  # same sid: 8 sensors, 1 Hz
        rows[early], rows[late] = rows[late], rows[early]
    return rows


#: cause -> (query, stream carrying late tuples, window to demote before)
CAUSES = {
    "late-on-pane-reader": (PANE_SQL, "A", None),
    "late-on-join-left": (JOIN_SQL, "A", None),
    "late-on-join-right": (JOIN_SQL, "B", None),
    "demote-pane-at-0": (PANE_SQL, None, 0),
    "demote-pane-at-7": (PANE_SQL, None, 7),
    "demote-join-at-3": (JOIN_SQL, None, 3),
}


def gateway_over(streams, shards, incremental):
    engine = build_engine(
        streams={}, attach_static=False, shards=shards,
        incremental=incremental, mqo=False,
    )
    for name, rows in streams.items():
        engine.register_stream(
            StreamSource(Stream(name, SCHEMA), lambda rows=rows: iter(rows))
        )
    return GatewayServer(engine)


def assert_retired(leaf):
    assert leaf.tier is None
    assert leaf.last_pane_stats is None
    state = leaf.snapshot_state()
    assert state["pane_ring"] == {}
    assert state["side_rings"] == ({}, {})
    assert state["pair_ring"] == {}
    assert state["pane_demanded"] == []
    for reader in set(leaf.readers.values()):
        assert (reader.pane_demand, reader.batch_demand) == (0, 1)
    assert not leaf.demote("again")  # nothing left to retire


class TestSingleRetirementTransition:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("cause", sorted(CAUSES))
    def test_every_cause_ends_in_the_same_state(self, cause, shards):
        sql, late_stream, demote_at = CAUSES[cause]
        streams = dict(BASE)
        if late_stream is not None:
            streams[late_stream] = with_late_tuples(streams[late_stream])

        gateway = gateway_over(streams, shards, incremental=True)
        q = gateway.register(sql, name="q", shards=shards)
        leaves = q.runtime.leaf_runtimes
        assert len(leaves) == shards
        tier_cls = PaneJoinExecutor if sql is JOIN_SQL else PaneExecutor
        assert all(isinstance(leaf.tier, tier_cls) for leaf in leaves)
        while True:
            if q.next_window == demote_at:
                assert q.runtime.demote("test")
                assert q.runtime.demoted
            if not gateway.step():
                break
            verify_gateway(gateway)
        assert q.runtime.demoted == (demote_at is not None)
        for leaf in leaves:
            assert_retired(leaf)
            assert leaf.snapshot_state()["pane_join_broken"] == (
                demote_at is None
            )
        verify_gateway(gateway)

        oracle = gateway_over(streams, shards, incremental=False)
        expected = oracle.register(sql, name="q", shards=shards)
        while oracle.step():
            pass
        assert snapshot(q) == snapshot(expected)
        assert len(snapshot(q)) > 15

        gateway.deregister("q")
        for leaf in leaves:
            for reader in leaf.readers.values():
                assert (reader.pane_demand, reader.batch_demand) == (0, 0)
        assert gateway.shared_reader_count == 0
        verify_gateway(gateway)


class TestContracts:
    def test_every_runtime_is_a_window_executor(self):
        plain = GatewayServer(build_engine(attach_static=False))
        runtime = plain.register(PANE_SQL.replace("(A,", "(S,")).runtime
        assert type(runtime) is PlanRuntime
        assert isinstance(runtime, WindowExecutor)
        assert runtime.leaf_runtimes == [runtime]

        sharded = GatewayServer(build_engine(attach_static=False, shards=2))
        runtime = sharded.register(
            PANE_SQL.replace("(A,", "(S,"), shards=2
        ).runtime
        assert type(runtime) is ShardedPlanRuntime
        assert isinstance(runtime, WindowExecutor)
        assert runtime.parallel == "serial"
        assert [type(leaf) for leaf in runtime.leaf_runtimes] == [PlanRuntime] * 2
        assert [leaf.scope for leaf in runtime.leaf_runtimes] == [
            (2, "sid", 0), (2, "sid", 1),
        ]

    def test_every_engine_is_the_one_engine_class(self):
        assert ShardedEngine is StreamEngine
        for engine in (StreamEngine(), StreamEngine(shards=2)):
            assert type(engine) is StreamEngine
            assert isinstance(engine, Engine)
        assert StreamEngine().default_shards == 1
        assert StreamEngine(shards=3).default_shards == 3
        assert Engine.__subclasses__() == [StreamEngine]

    def test_checkpointed_classes_keep_their_import_paths(self):
        # old checkpoints pickled pane-join side states under engine.py
        from repro.exastream import engine, pane_join_executor
        from repro.exastream.mqo.runtime import PaneSideEntry

        assert engine._SideState is pane_join_executor._SideState
        assert PaneSideEntry.__module__ == "repro.exastream.mqo.runtime"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_runtimes_keep_their_refusals(self):
        engine = build_engine(attach_static=False, shards=2, parallel="fork")
        gateway = GatewayServer(engine)
        try:
            runtime = gateway.register(
                PANE_SQL.replace("(A,", "(S,"), name="q", shards=2
            ).runtime
            assert isinstance(runtime, WindowExecutor)
            assert runtime.parallel == "fork"
            gateway.step(2)
            assert runtime.demote("refused") is False
            assert not runtime.demoted
            assert runtime.last_pane_stats is None
            with pytest.raises(RecoveryError):
                runtime.snapshot_state()
        finally:
            gateway.deregister("q")
            engine.close()
