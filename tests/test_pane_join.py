"""Differential tests: symmetric-hash pane joins ≡ full recompute.

The pane-join subsystem's correctness bar is the pane subsystem's: for
every two-stream continuous query — every per-side window grid
(including mismatched ones), every shard count, mqo on or off —
executing with ``incremental=True`` must produce **byte-identical**
``WindowResult`` sequences to the classic window-at-a-time recompute
path, including float aggregates whose summation order follows the
recompute hash join's row enumeration.  Late or out-of-order data on
*either* stream must disable the pane-join path permanently with
identical output, and evicted panes or outages fall back per window.
"""

import random

import pytest

import cqgen
from cqgen import (
    SCHEMA,
    SPECS,
    build_engine,
    measurement_rows,
    random_join_family,
    random_join_sql,
    snapshot,
)
from repro.exastream import (
    GatewayServer,
    IncrementalMode,
    PartitionMode,
    plan_sql,
)
from repro.siemens import FleetConfig, deploy, generate_fleet
from repro.streams import Stream, StreamSource

JOIN_SQL = (
    "SELECT a.sid AS s, COUNT(*) AS n, SUM(a.val + b.val) AS total, "
    "AVG(b.val) AS m, MIN(a.val) AS lo, MAX(b.val) AS hi "
    "FROM timeSlidingWindow(A, {ra}, {sa}) AS a, "
    "timeSlidingWindow(B, {rb}, {sb}) AS b "
    "WHERE a.sid = b.sid GROUP BY a.sid"
)

STATIC_JOIN_SQL = (
    "SELECT a.sid AS s, AVG(a.val * b.val) AS p, COUNT(*) AS n "
    "FROM timeSlidingWindow(A, {ra}, {sa}) AS a, "
    "timeSlidingWindow(B, {rb}, {sb}) AS b, sensors AS t "
    "WHERE a.sid = b.sid AND a.sid = t.sid AND t.kind = 'temp' "
    "AND a.val > 51 AND b.val < 75 GROUP BY a.sid HAVING COUNT(*) > 4"
)


#: t05's shape with combinable aggregates: each window has its own
#: lookup (``ta`` describes ``a``'s sensors, ``tb`` describes ``b``'s),
#: and the lookups' shared column is a key of the stream-stream join
LOOKUP_JOIN_SQL = (
    "SELECT ta.kind AS k, a.sid AS s, COUNT(*) AS n, "
    "SUM(a.val + b.val) AS total, AVG(b.val) AS m, MIN(a.val) AS lo "
    "FROM timeSlidingWindow(A, {ra}, {sa}) AS a, "
    "timeSlidingWindow(B, {rb}, {sb}) AS b, sensors AS ta, sensors AS tb "
    "WHERE a.ts = b.ts AND a.sid = ta.sid AND b.sid = tb.sid "
    "AND ta.kind = tb.kind AND a.val > 51 GROUP BY ta.kind, a.sid"
)


def join_streams(rows_a=None, rows_b=None):
    if rows_a is None:
        rows_a = measurement_rows(n_seconds=110)
    if rows_b is None:
        rows_b = measurement_rows(n_seconds=110, value_offset=1.5)
    return {"A": rows_a, "B": rows_b}


def run_join(sqls, streams, incremental, shards=1, mqo=True,
             cache_capacity=4096):
    engine = build_engine(
        streams=streams, shards=shards, incremental=incremental, mqo=mqo,
        cache_capacity=cache_capacity,
    )
    out, gateway = cqgen.run_concurrently(sqls, engine, shards=shards)
    return out, gateway, engine


def assert_join_differential(
    sqls, streams=None, shards=1, mqo=True, cache_capacity=4096
):
    """Pane-join output ≡ fully private recompute output, byte for byte."""
    if isinstance(sqls, str):
        sqls = [sqls]
    if streams is None:
        streams = join_streams()
    pane, gateway, engine = run_join(
        sqls, streams, True, shards, mqo, cache_capacity
    )
    recompute, _, _ = run_join(
        sqls, streams, False, shards, mqo=False,
        cache_capacity=cache_capacity,
    )
    assert pane == recompute
    assert any(len(results) > 0 for results in pane)
    return pane, gateway, engine


GRIDS = [
    # r/s ∈ {1, 4, 16} per side: matched grids ...
    ((5, 5), (5, 5)),
    ((20, 5), (20, 5)),
    ((80, 5), (80, 5)),
    # ... and mismatched ones: different overlap and different slide
    # both still classify PANE_JOIN (each side pane-decomposes on its
    # own grid), while the tumbling-side entry classifies RECOMPUTE and
    # must *still* agree
    ((80, 5), (20, 5)),
    ((20, 5), (12, 4)),
    ((5, 5), (80, 5)),
]


class TestClassificationAndEngagement:
    def test_engages_and_builds_pairs(self):
        streams = join_streams()
        sql = JOIN_SQL.format(ra=80, sa=5, rb=80, sb=5)
        engine = build_engine(streams=streams)
        gateway = GatewayServer(engine)
        q = gateway.register(sql, name="j")
        assert q.plan.incremental.mode is IncrementalMode.PANE_JOIN
        while gateway.step():
            pass
        metrics = engine.metrics.query("j")
        assert metrics.windows_processed > 10
        assert metrics.windows_pane_join == metrics.windows_processed
        assert metrics.windows_incremental == metrics.windows_processed
        assert metrics.pane_pairs_built > 0

    def test_tumbling_side_recomputes(self):
        engine = build_engine(streams=join_streams())
        plan = plan_sql(
            JOIN_SQL.format(ra=5, sa=5, rb=80, sb=5), engine, name="j"
        )
        assert plan.incremental.mode is IncrementalMode.RECOMPUTE


class TestDifferentialGrids:
    @pytest.mark.parametrize("spec_a,spec_b", GRIDS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_grid_matrix(self, spec_a, spec_b, shards):
        ra, sa = spec_a
        rb, sb = spec_b
        assert_join_differential(
            JOIN_SQL.format(ra=ra, sa=sa, rb=rb, sb=sb), shards=shards
        )

    @pytest.mark.parametrize("mqo", [True, False])
    def test_static_join_having_filters(self, mqo):
        assert_join_differential(
            STATIC_JOIN_SQL.format(ra=80, sa=5, rb=20, sb=5), mqo=mqo
        )

    def test_independent_pulse_anchors(self):
        """No PULSE START: each stream anchors at its own first tuple, so
        window k closes at different instants per side."""
        rows_b = [
            (ts + 0.25, sid, val)
            for ts, sid, val in measurement_rows(n_seconds=120,
                                                 value_offset=2.0)
        ]
        assert_join_differential(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5),
            streams=join_streams(rows_b=rows_b),
        )

    def test_self_join_shares_one_reader(self):
        sql = (
            "SELECT a.sid AS s, COUNT(*) AS n, SUM(a.val - b.val) AS d "
            "FROM timeSlidingWindow(S, 40, 5) AS a, "
            "timeSlidingWindow(S, 40, 5) AS b "
            "WHERE a.sid = b.sid AND a.val < b.val GROUP BY a.sid"
        )
        streams = {"S": measurement_rows(n_seconds=120)}
        pane, _, engine = assert_join_differential(sql, streams=streams)
        assert engine.metrics.query("q0").windows_pane_join > 0

    def test_sharded_co_partitioned_join_stays_shard_local(self):
        """The equi-key partitions both streams; each shard runs its own
        symmetric-hash pane join over its slice."""
        streams = join_streams()
        engine = build_engine(streams=streams, shards=2)
        plan = plan_sql(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), engine, name="j"
        )
        # grouped on the join key: every group lives on one shard, both
        # streams hash-partition on it (PARTITIONED — the shard-local
        # classification; a non-key grouping would classify PARTIAL)
        assert plan.partitioning.mode is PartitionMode.PARTITIONED
        assert plan.partitioning.stream_keys == {"A": 1, "B": 1}
        pane, _, engine = assert_join_differential(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), streams=streams,
            shards=2,
        )
        per_shard = [
            node.metrics.query("q0").windows_pane_join
            for node in engine.nodes
        ]
        assert all(n > 0 for n in per_shard)


class TestLookups:
    """A static relation keyed by one window is probed as that window's
    panes load — before the stream-stream join, once per pane."""

    @pytest.mark.parametrize("spec_a,spec_b", [
        ((20, 5), (20, 5)), ((80, 5), (20, 5)), ((5, 5), (80, 5)),
    ])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_lookup_per_window(self, spec_a, spec_b, shards):
        sql = LOOKUP_JOIN_SQL.format(
            ra=spec_a[0], sa=spec_a[1], rb=spec_b[0], sb=spec_b[1]
        )
        engine = build_engine(streams=join_streams())
        plan = plan_sql(sql, engine, name="j")
        assert plan.lookups() == {"ta": "a", "tb": "b"}
        assert plan.stream_join_keys().left_keys == ("a.ts", "ta.kind")
        assert plan.stream_join_keys().right_keys == ("b.ts", "tb.kind")
        assert (plan.incremental.mode is IncrementalMode.PANE_JOIN) == (
            spec_a != (5, 5)
        )
        assert_join_differential(sql, shards=shards)

    def test_a_pane_is_enriched_once(self, monkeypatch):
        from repro.exastream.operators import StaticTable
        from repro.exastream.pane_join_executor import PaneJoinExecutor

        sides, probes = [], []
        build_side = PaneJoinExecutor._build_side
        join_probe = StaticTable.join_probe

        def counted_side(self, *args):
            sides.append(args)
            return build_side(self, *args)

        def counted_probe(self, probe, *keys):
            probes.append(type(probe).__name__)
            return join_probe(self, probe, *keys)

        monkeypatch.setattr(PaneJoinExecutor, "_build_side", counted_side)
        monkeypatch.setattr(StaticTable, "join_probe", counted_probe)
        sql = LOOKUP_JOIN_SQL.format(ra=40, sa=5, rb=40, sb=5)
        out, _, engine = run_join([sql], join_streams(), True, mqo=False)
        metrics = engine.metrics.query("q0")
        assert metrics.windows_pane_join > 10
        # never once per pane pair, and never a join carried out first
        assert set(probes) == {"Relation"}
        recomputed = metrics.windows_processed - metrics.windows_pane_join
        assert len(probes) == len(sides) + 2 * recomputed
        assert metrics.pane_pairs_built > 2 * len(sides)

    def test_side_rings_written_before_lookups_are_rebuilt(self):
        """A checkpoint taken when statics were probed per pane pair
        holds side panes without their lookups' columns."""
        from repro.exastream.operators import Relation, StaticTable
        from repro.exastream.pane_join_executor import _SideState

        sql = LOOKUP_JOIN_SQL.format(ra=40, sa=5, rb=40, sb=5)
        streams = join_streams()
        gateway = GatewayServer(build_engine(streams=streams, mqo=False))
        registered = gateway.register(sql, name="q")
        for _ in range(6):
            gateway.step(1)
        state = registered.runtime.snapshot_state()
        assert all(state["side_rings"]) and state["pair_ring"]
        for ring in state["side_rings"]:
            for pane, side in ring.items():
                columns = side.relation.columns
                keep = [
                    i for i, c in enumerate(columns)
                    if not c.startswith(("ta.", "tb."))
                ]
                assert len(keep) < len(columns)
                old = Relation(
                    [columns[i] for i in keep],
                    [tuple(r[i] for i in keep) for r in side.relation.rows],
                )
                ring[pane] = _SideState(StaticTable(old), old)
        fresh = GatewayServer(build_engine(streams=streams, mqo=False))
        recovered = fresh.register(sql, name="q")
        recovered.runtime.restore_state(state)
        assert recovered.runtime.tier.side_rings == ({}, {})
        assert recovered.runtime.tier.pair_ring == state["pair_ring"]
        recovered.next_window = registered.next_window
        while fresh.step(1):
            pass
        (oracle,), _, _ = run_join([sql], streams, False, mqo=False)
        tail = snapshot(recovered)
        assert len(tail) > 10 and tail == oracle[len(oracle) - len(tail):]

    def test_sides_with_lookups_are_shared(self):
        base = LOOKUP_JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5)
        other = base.replace("COUNT(*) AS n, ", "").replace(
            "GROUP BY ta.kind, a.sid", "GROUP BY ta.kind, a.sid, b.sid"
        )
        pane, gateway, engine = assert_join_differential([base, other])
        assert gateway.mqo.stats.relation_hits > 0
        signature = plan_sql(base, engine, name="j").signature
        assert [side.statics for side in signature.sides] == [(0,), (1,)]
        # ... under the rows they were probed against
        assert [
            side.key.endswith("@(7,)") for side in signature.over((7, 9)).sides
        ] == [True, False]


class TestRandomizedJoins:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_join_queries(self, seed):
        rng = random.Random(7000 + seed)
        spec_a = SPECS[seed % len(SPECS)]
        spec_b = spec_a if rng.random() < 0.5 else rng.choice(SPECS)
        sql = random_join_sql(rng, spec_a, spec_b)
        shards = 1 + (seed % 2)
        assert_join_differential(
            sql, streams=join_streams(), shards=shards
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_join_families_share_sides(self, seed):
        """Families sharing both side prefixes: differential plus actual
        side-entry interchange through the MQO registry."""
        rng = random.Random(8000 + seed)
        sqls = random_join_family(rng, (20, 5))
        pane, gateway, engine = assert_join_differential(
            sqls, streams=join_streams()
        )
        if len(sqls) > 1:
            assert gateway.mqo.stats.relation_hits > 0
        assert gateway.mqo.pipeline_count == 0  # all released


class TestMQOSharing:
    def test_side_hash_tables_shared_across_queries(self):
        sql = JOIN_SQL.format(ra=40, sa=5, rb=40, sb=5)
        pane, gateway, engine = assert_join_differential(
            [sql, sql, sql], streams=join_streams()
        )
        assert pane[0] == pane[1] == pane[2]
        assert gateway.mqo.stats.relation_hits > 0
        # identical full prefixes also interchange recompute-window
        # relations; side entries cover the pane tier
        per_query = [engine.metrics.query(f"q{i}") for i in range(3)]
        assert sum(m.mqo_relation_hits for m in per_query) > 0

    def test_one_shared_side_only(self):
        """Two queries joining stream A against different partners share
        exactly A's side pipeline."""
        streams = dict(join_streams())
        streams["C"] = measurement_rows(n_seconds=110, value_offset=3.0)
        sqls = [
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5),
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5).replace(
                "timeSlidingWindow(B", "timeSlidingWindow(C"
            ),
        ]
        pane, gateway, engine = assert_join_differential(
            sqls, streams=streams
        )
        assert gateway.mqo.stats.relation_hits > 0


class TestMidFlight:
    """Register and deregister one side's co-subscriber mid-stream; the
    surviving join query's output must not depend on any of it."""

    def _run(self, incremental):
        streams = join_streams()
        engine = build_engine(streams=streams, incremental=incremental,
                              mqo=incremental)
        gateway = GatewayServer(engine)
        survivor = gateway.register(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), name="survivor"
        )
        other = gateway.register(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), name="other"
        )
        single = gateway.register(
            "SELECT a.sid AS s, SUM(a.val) AS t "
            "FROM timeSlidingWindow(A, 20, 5) AS a GROUP BY a.sid",
            name="single",
        )
        gateway.step(6)
        gateway.deregister("other")  # drops one pane-join subscriber
        gateway.step(4)
        gateway.deregister("single")  # drops side A's other consumer
        late = gateway.register(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), name="late"
        )
        while gateway.step():
            pass
        out = (snapshot(survivor), snapshot(late))
        gateway.deregister("survivor")
        gateway.deregister("late")
        return out, gateway

    def test_mid_flight_register_deregister(self):
        pane, gateway = self._run(True)
        recompute, _ = self._run(False)
        assert pane[0] == recompute[0]
        assert pane[1] == recompute[1]
        assert len(pane[0]) > 0 and len(pane[1]) > 0
        assert gateway.mqo.pipeline_count == 0
        assert gateway.shared_reader_count == 0


class TestDisorderFallback:
    """Late/out-of-order tuples on either stream permanently disable the
    pane-join path — with byte-identical output."""

    BASE_A = [(float(t), t % 4, 50.0 + t % 7) for t in range(120)]
    BASE_B = [(float(t), t % 4, 30.0 + t % 5) for t in range(120)]
    SQL = (
        "SELECT a.sid AS s, SUM(a.val * b.val) AS p, COUNT(*) AS n "
        "FROM timeSlidingWindow(A, 20, 5) AS a, "
        "timeSlidingWindow(B, 20, 5) AS b "
        "WHERE a.sid = b.sid GROUP BY a.sid"
    )

    @staticmethod
    def _swap(rows, i, j):
        rows = list(rows)
        rows[i], rows[j] = rows[j], rows[i]
        return rows

    def _run(self, rows_a, rows_b, incremental):
        engine = build_engine(
            streams={}, attach_static=False, incremental=incremental,
            mqo=False,
        )
        engine.register_stream(
            StreamSource(Stream("A", SCHEMA), lambda: iter(rows_a))
        )
        engine.register_stream(
            StreamSource(Stream("B", SCHEMA), lambda: iter(rows_b))
        )
        gateway = GatewayServer(engine)
        q = gateway.register(self.SQL, name="q")
        while gateway.step():
            pass
        return snapshot(q), q, gateway, engine

    @pytest.mark.parametrize("side", ["A", "B", "both"])
    def test_late_data_disables_pane_join_permanently(self, side):
        rows_a = list(self.BASE_A)
        rows_b = list(self.BASE_B)
        if side in ("A", "both"):
            rows_a = self._swap(rows_a, 60, 68)
        if side in ("B", "both"):
            rows_b = self._swap(rows_b, 40, 48)
        pane, q, gateway, engine = self._run(rows_a, rows_b, True)
        recompute, *_ = self._run(rows_a, rows_b, False)
        assert pane == recompute
        metrics = engine.metrics.query("q")
        # served from pane pairs up to the break, recompute afterwards
        assert 0 < metrics.windows_pane_join < metrics.windows_processed
        readers = list(q.runtime.readers.values())
        # demand bookkeeping after the break: pane refs released, batch
        # refs taken — and releasable through deregistration
        assert all(r.pane_demand == 0 for r in readers)
        assert all(r.batch_demand == 1 for r in readers)
        gateway.deregister("q")
        assert all(r.batch_demand == 0 for r in readers)

    def test_pane_eviction_forces_per_window_fallback(self):
        """A tiny cache evicts pane slices mid-run; fallback windows stay
        byte-identical without killing the pane-join path."""
        streams = join_streams(
            measurement_rows(n_seconds=140),
            measurement_rows(n_seconds=140, value_offset=1.0),
        )
        assert_join_differential(
            JOIN_SQL.format(ra=80, sa=5, rb=80, sb=5),
            streams=streams, cache_capacity=2,
        )

    def test_sensor_gap_sparse_panes(self):
        """Replay the incremental suite's gap scenario on a join plan."""
        streams = join_streams(
            measurement_rows(n_seconds=150, gap_sensor=2, gap=(40, 120)),
            measurement_rows(
                n_seconds=150, value_offset=1.5, gap_sensor=3, gap=(60, 100)
            ),
        )
        assert_join_differential(
            JOIN_SQL.format(ra=80, sa=5, rb=80, sb=5), streams=streams
        )
        assert_join_differential(
            JOIN_SQL.format(ra=80, sa=5, rb=80, sb=5), streams=streams,
            shards=2,
        )

    def test_full_outage_empty_panes(self):
        """A silent period on one stream: whole panes and windows empty
        on that side only."""
        streams = join_streams(
            measurement_rows(n_seconds=200, silence=(60, 150)),
            measurement_rows(n_seconds=200, value_offset=1.5),
        )
        assert_join_differential(
            JOIN_SQL.format(ra=80, sa=5, rb=80, sb=5), streams=streams
        )

    def test_streams_of_different_lengths(self):
        """One stream ends early: the join ends with it, both modes."""
        streams = join_streams(
            measurement_rows(n_seconds=120),
            measurement_rows(n_seconds=70, value_offset=1.5),
        )
        assert_join_differential(
            JOIN_SQL.format(ra=20, sa=5, rb=20, sb=5), streams=streams
        )


class TestSiemensPairs:
    """Every Siemens stream pair with a compatible key, pane-join vs
    recompute over the deployed fleet."""

    KEY_COLUMNS = ("sid", "tid")

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(turbines=4, plants=2))

    def _deploy(self, fleet, incremental):
        dep = deploy(
            fleet=fleet, stream_duration=20, incremental=incremental,
            mqo=incremental,
        )
        # a second measurement stream makes (S_Msmt, S_Msmt2) a genuine
        # cross-stream pair on the sensor key
        sensors = fleet.sensor_ids[:12]
        dep.engine.register_stream(
            fleet.measurement_source(
                sensors, duration_seconds=20, stream_name="S_Msmt2"
            )
        )
        return dep

    def _pairs(self, dep):
        """All (stream, stream, key) combos sharing a key column."""
        names = sorted(dep.engine.stream_names | {"S_Msmt2"})
        pairs = []
        for i, left in enumerate(names):
            left_cols = set(
                dep.engine.stream(left).stream.schema.column_names
            )
            for right in names[i:]:
                right_cols = set(
                    dep.engine.stream(right).stream.schema.column_names
                )
                for key in self.KEY_COLUMNS:
                    if key in left_cols and key in right_cols:
                        pairs.append((left, right, key))
                        break
        return pairs

    def _sql(self, left, right, key):
        agg = (
            "COUNT(*) AS n, MIN(a.val) AS lo, AVG(b.val) AS m"
            if key == "sid"
            else "COUNT(*) AS n, MAX(a.severity) AS sev"
        )
        return (
            f"SELECT a.{key} AS k, {agg} "
            f"FROM timeSlidingWindow({left}, 10, 2) AS a, "
            f"timeSlidingWindow({right}, 10, 2) AS b "
            f"WHERE a.{key} = b.{key} GROUP BY a.{key}"
        )

    def test_every_compatible_pair_equal(self, fleet):
        outputs = {}
        for incremental in (True, False):
            dep = self._deploy(fleet, incremental)
            pairs = self._pairs(dep)
            assert len(pairs) >= 4  # both msmt pairs, self-joins, events
            queries = [
                dep.gateway.register(
                    self._sql(left, right, key), name=f"p{i}"
                )
                for i, (left, right, key) in enumerate(pairs)
            ]
            while dep.gateway.step():
                pass
            outputs[incremental] = {
                q.name: snapshot(q) for q in queries
            }
        assert outputs[True] == outputs[False]
        assert any(len(v) > 0 for v in outputs[True].values())

    def test_pane_join_engages_on_fleet_pairs(self, fleet):
        dep = self._deploy(fleet, True)
        pairs = self._pairs(dep)
        for i, (left, right, key) in enumerate(pairs):
            dep.gateway.register(self._sql(left, right, key), name=f"p{i}")
        while dep.gateway.step():
            pass
        pane_join_windows = sum(
            m.windows_pane_join
            for m in dep.engine.metrics.per_query.values()
        )
        assert pane_join_windows > 0
