"""Differential tests: pane-incremental execution ≡ full recompute.

The incremental subsystem's correctness bar (same as sharding's): for
every query, every window spec and every shard count, executing with
``incremental=True`` must produce **byte-identical** ``WindowResult``
sequences to the classic full-recompute path — including float
aggregates, whose summation order the SUM accumulator preserves
chunk-by-chunk.  Anything the pane path cannot reproduce exactly must
fall back, so equality is the single property that proves the whole
subsystem.
"""

import random

import pytest

from cqgen import (
    SCHEMA,
    SPECS,
    build_engine,
    measurement_rows,
    random_single_stream_sql,
    run_engine,
)
from repro.exastream import (
    CountAccumulator,
    IncrementalMode,
    MaxAccumulator,
    MinAccumulator,
    StreamEngine,
    SumAccumulator,
    analyze_incremental,
    plan_sql,
)
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.streams import (
    ListSource,
    PanePlan,
    Stream,
    WindowSpec,
    pane_plan,
)


def assert_differential(sql, rows=None, shards=1, cache_capacity=4096):
    """Byte-identical output across execution modes; returns both runs."""
    if rows is None:
        rows = measurement_rows()
    incremental = run_engine(
        build_engine(
            rows, incremental=True, shards=shards,
            cache_capacity=cache_capacity,
        ),
        sql,
        shards,
    )
    recompute = run_engine(
        build_engine(
            rows, incremental=False, shards=shards,
            cache_capacity=cache_capacity,
        ),
        sql,
        shards,
    )
    assert incremental == recompute
    assert len(incremental) > 0
    return incremental


AGG_SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS m, COUNT(*) AS n, "
    "MIN(w.val) AS lo, MAX(w.val) AS hi "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w GROUP BY w.sid"
)

JOIN_SQL = (
    "SELECT w.sid AS s, AVG(w.val * 9 / 5 + 32) AS f, SUM(w.val) AS total "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w, sensors AS t "
    "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51 GROUP BY w.sid"
)

HAVING_SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS m "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w "
    "GROUP BY w.sid HAVING AVG(w.val) > 60"
)

GLOBAL_SQL = (
    "SELECT COUNT(*) AS n, AVG(w.val) AS m "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w"
)

SEQ_UDF_SQL = (  # non-decomposable: must classify RECOMPUTE and still agree
    "SELECT w.sid AS s, SLOPE(w.ts, w.val) AS trend "
    "FROM timeSlidingWindow(S, {r}, {s}) AS w GROUP BY w.sid"
)

PROJECTION_SQL = (  # row order is part of the result: RECOMPUTE
    "SELECT w.ts AS t, w.val AS v FROM timeSlidingWindow(S, {r}, {s}) AS w"
)


class TestPaneMath:
    def test_gcd_pane_plan(self):
        plan = pane_plan(WindowSpec(80, 5))
        assert plan == PanePlan(5.0, 16, 1)
        plan = pane_plan(WindowSpec(30, 12))
        assert plan == PanePlan(6.0, 5, 2)

    def test_fractional_dyadic_spec(self):
        plan = pane_plan(WindowSpec(2.5, 0.5))
        assert plan == PanePlan(0.5, 5, 1)

    def test_no_overlap_specs_refused(self):
        assert pane_plan(WindowSpec(5, 5)) is None  # tumbling
        assert pane_plan(WindowSpec(5, 10)) is None  # sampling

    def test_non_commensurate_floats_refused(self):
        # 0.1 / 0.3 are not exact in binary: the rational gcd is tiny and
        # the pane count explodes past the bound.
        assert pane_plan(WindowSpec(0.3, 0.1)) is None

    def test_window_panes_alignment(self):
        plan = pane_plan(WindowSpec(20, 5))
        assert list(plan.window_panes(0)) == [-4, -3, -2, -1]
        assert list(plan.window_panes(3)) == [-1, 0, 1, 2]


class TestClassification:
    def _plan(self, sql, rows=None):
        engine = build_engine(rows or measurement_rows(20))
        return plan_sql(sql, engine, name="q")

    def test_combinable_aggregate_is_incremental(self):
        decision = self._plan(AGG_SQL.format(r=80, s=5)).incremental
        assert decision.mode is IncrementalMode.PANE_INCREMENTAL
        assert decision.panes.panes_per_window == 16

    def test_sequence_udf_falls_back(self):
        decision = self._plan(SEQ_UDF_SQL.format(r=80, s=5)).incremental
        assert decision.mode is IncrementalMode.RECOMPUTE
        assert "non-decomposable" in decision.reason

    def test_projection_falls_back(self):
        decision = self._plan(PROJECTION_SQL.format(r=80, s=5)).incremental
        assert decision.mode is IncrementalMode.RECOMPUTE

    def test_tumbling_window_falls_back(self):
        decision = self._plan(AGG_SQL.format(r=5, s=5)).incremental
        assert decision.mode is IncrementalMode.RECOMPUTE

    def test_two_stream_equi_join_is_pane_join(self):
        engine = StreamEngine()
        engine.register_stream(
            ListSource(Stream("A", SCHEMA), measurement_rows(20))
        )
        engine.register_stream(
            ListSource(Stream("B", SCHEMA), measurement_rows(20))
        )
        plan = plan_sql(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(A, 20, 5) AS a, "
            "timeSlidingWindow(B, 20, 5) AS b WHERE a.sid = b.sid",
            engine,
            name="j",
        )
        assert plan.incremental.mode is IncrementalMode.PANE_JOIN
        assert plan.incremental.join.left_keys == ("a.sid",)
        assert analyze_incremental(plan).mode is IncrementalMode.PANE_JOIN

    def test_two_stream_cross_join_falls_back(self):
        """No direct stream-stream equi-key: symmetric hashing has
        nothing to hash on, so the plan stays on the recompute path."""
        engine = StreamEngine()
        engine.register_stream(
            ListSource(Stream("A", SCHEMA), measurement_rows(20))
        )
        engine.register_stream(
            ListSource(Stream("B", SCHEMA), measurement_rows(20))
        )
        plan = plan_sql(
            "SELECT COUNT(*) AS n FROM timeSlidingWindow(A, 20, 5) AS a, "
            "timeSlidingWindow(B, 20, 5) AS b WHERE a.val < b.val",
            engine,
            name="x",
        )
        assert plan.incremental.mode is IncrementalMode.RECOMPUTE
        assert "equi-join" in plan.incremental.reason


class TestAccumulators:
    def test_sum_is_bit_exact_across_chunking(self):
        rng = random.Random(11)
        values = [rng.uniform(-1e6, 1e6) for _ in range(997)]
        payloads = []
        i = 0
        while i < len(values):
            step = rng.randint(1, 60)
            payloads.append(SumAccumulator.build(values[i : i + step]))
            i += step
        assert SumAccumulator.combine(payloads) == sum(values)

    def test_empty_and_scalar_payloads(self):
        assert SumAccumulator.combine([[], []]) is None
        assert CountAccumulator.combine([0, 3, 2]) == 5
        assert MinAccumulator.combine([None, 3.5, None, 2.5]) == 2.5
        assert MaxAccumulator.combine([None, None]) is None


class TestDifferential:
    @pytest.mark.parametrize("r,s", SPECS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_aggregates(self, r, s, shards):
        assert_differential(AGG_SQL.format(r=r, s=s), shards=shards)

    @pytest.mark.parametrize("r,s", SPECS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_static_join_with_filters(self, r, s, shards):
        assert_differential(JOIN_SQL.format(r=r, s=s), shards=shards)

    @pytest.mark.parametrize("r,s", SPECS)
    def test_having(self, r, s):
        assert_differential(HAVING_SQL.format(r=r, s=s))

    @pytest.mark.parametrize("r,s", SPECS)
    def test_whole_window_group(self, r, s):
        assert_differential(GLOBAL_SQL.format(r=r, s=s))

    @pytest.mark.parametrize("r,s", SPECS)
    def test_non_decomposable_paths_agree(self, r, s):
        assert_differential(SEQ_UDF_SQL.format(r=r, s=s))
        assert_differential(PROJECTION_SQL.format(r=r, s=s))

    def test_incremental_actually_engages(self):
        """Guard against the pane path silently always falling back."""
        engine = build_engine(measurement_rows())
        plan = plan_sql(AGG_SQL.format(r=80, s=5), engine, name="q")
        results = list(engine.run_continuous(plan))
        metrics = engine.metrics.query("q")
        assert len(results) > 10
        assert metrics.windows_incremental == metrics.windows_processed
        assert metrics.panes_built > 0

    def test_sensor_gap_sparse_panes(self):
        rows = measurement_rows(gap_sensor=2, gap=(40, 120))
        assert_differential(AGG_SQL.format(r=80, s=5), rows=rows)
        assert_differential(AGG_SQL.format(r=80, s=5), rows=rows, shards=2)

    def test_full_outage_empty_panes(self):
        """A silent stream period: whole panes (and windows) are empty."""
        rows = measurement_rows(n_seconds=240, silence=(60, 150))
        assert_differential(AGG_SQL.format(r=80, s=5), rows=rows)
        assert_differential(JOIN_SQL.format(r=80, s=5), rows=rows, shards=2)

    def test_pane_eviction_forces_fallback(self):
        """A tiny cache evicts panes mid-run; fallback keeps output exact."""
        rows = measurement_rows()
        sql = AGG_SQL.format(r=80, s=5)
        tiny = run_engine(build_engine(rows, cache_capacity=2), sql)
        reference = run_engine(build_engine(rows, incremental=False), sql)
        assert tiny == reference

    def test_mixed_consumers_share_one_reader(self):
        """An incremental and a recompute query on the same window grid:
        the recompute query's batches assemble from the shared pulses."""
        from repro.exastream import GatewayServer

        rows = measurement_rows()

        def run(incremental):
            engine = build_engine(rows, incremental=incremental)
            gateway = GatewayServer(engine)
            agg = gateway.register(AGG_SQL.format(r=20, s=5), name="agg")
            proj = gateway.register(
                PROJECTION_SQL.format(r=20, s=5), name="proj"
            )
            while gateway.step():
                pass
            return [
                [
                    (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
                    for r in q.results()
                ]
                for q in (agg, proj)
            ]

        assert run(True) == run(False)


class TestDisorderFallback:
    """`ListSource` rejects unordered tuples outright, so disorder can
    only reach a reader through raw iterators — the reader-level guard
    is the defence in depth behind that front door."""

    @staticmethod
    def _readers(rows):
        from repro.streams import SharedWindowReader, WindowCache

        spec = WindowSpec(20, 5)
        reader = SharedWindowReader(
            "S", iter(list(rows)), spec, 0, WindowCache(4096)
        )
        reference = SharedWindowReader(
            "S", iter(list(rows)), spec, 0, WindowCache(4096)
        )
        return reader, reference

    def test_late_tuple_disables_pane_path(self):
        rows = [(float(t), t % 4, float(t)) for t in range(60)]
        rows[40], rows[48] = rows[48], rows[40]  # genuine late arrival
        reader, reference = self._readers(rows)
        views = []
        window_id = 0
        while True:
            view = reader.pane_view(window_id)
            if view is None:
                batch = reader.window(window_id)
                if batch is None:
                    break
                views.append((window_id, batch.end, tuple(batch.tuples)))
            else:
                tuples = [t for p in view.panes for t in p.tuples]
                tuples.extend(view.edge)
                views.append((window_id, view.end, tuple(tuples)))
            window_id += 1
        # the reader served early windows from panes, then fell back
        assert any(v is not None for v in views)
        expected = [
            (b.window_id, b.end, tuple(b.tuples))
            for b in reference.all_windows()
        ]
        assert views == expected

    def test_disorder_after_edge_tuple_breaks_pane_path(self):
        """Regression: a tuple arriving after the pulse-instant (edge)
        tuple but belonging to an older pane reorders pane concatenation
        relative to arrival order — the reader must break, not serve."""
        from repro.streams import SharedWindowReader, WindowCache

        rows = [(4.5,), (5.0,), (4.7,), (21.0,)]
        spec = WindowSpec(10, 5)
        reader = SharedWindowReader(
            "S", iter(rows), spec, 0, WindowCache(64), start=0.0
        )
        assert reader.pane_view(0) is not None
        assert reader.pane_view(1) is None  # 4.7 after the 5.0 edge
        reference = SharedWindowReader(
            "S", iter(list(rows)), spec, 0, WindowCache(64), start=0.0
        )
        expected = {
            b.window_id: tuple(b.tuples) for b in reference.all_windows()
        }
        batch = reader.window(1)
        assert batch is not None
        assert tuple(batch.tuples) == expected[1] == ((4.5,), (5.0,), (4.7,))

    def test_pane_capacity_validation(self):
        from repro.streams import WindowCache

        with pytest.raises(ValueError):
            WindowCache(64, pane_capacity=0)

    def test_pre_break_windows_stay_readable(self):
        """Regression: a late tuple breaking the pane path at pulse k
        must not take down windows < k for lagging readers — their panes
        were sliced before the break and remain valid."""
        from repro.streams import SharedWindowReader, WindowCache

        rows = [(0.0,), (1.0,), (2.0,), (3.0,), (1.5,), (4.0,), (5.0,)]
        spec = WindowSpec(2, 1)
        reader = SharedWindowReader("S", iter(rows), spec, 0, WindowCache(64))
        # leading consumer advances on the pane path until the break
        assert reader.pane_view(0) is not None
        assert reader.pane_view(1) is not None
        assert reader.pane_view(2) is not None
        assert reader.pane_view(3) is None  # late 1.5 breaks pulse 3
        # a lagging consumer must still read the pre-break windows
        reference = SharedWindowReader(
            "S", iter(list(rows)), spec, 0, WindowCache(64)
        )
        expected = {
            b.window_id: (b.start, b.end, tuple(b.tuples))
            for b in reference.all_windows()
        }
        for window_id in (0, 1, 2):
            batch = reader.window(window_id)
            assert batch is not None, window_id
            assert (
                batch.start, batch.end, tuple(batch.tuples)
            ) == expected[window_id]
        # windows from the break onward come from live batch assembly
        batch = reader.window(3)
        assert batch is not None
        assert (batch.start, batch.end, tuple(batch.tuples)) == expected[3]

    def test_ordered_stream_keeps_pane_path(self):
        rows = [(float(t), t % 4, float(t)) for t in range(60)]
        reader, _ = self._readers(rows)
        window_id = 0
        served = 0
        while True:
            view = reader.pane_view(window_id)
            if view is None:
                assert reader.window(window_id) is None  # true end of stream
                break
            served += 1
            window_id += 1
        assert served > 10

    def test_late_pane_demand_warms_up_gracefully(self):
        """Regression: demanding panes on an already-advanced reader must
        warm up (first windows fall back) — not permanently break."""
        rows = [(float(t), t % 4, float(t)) for t in range(60)]
        reader, reference = self._readers(rows)
        expected = {
            b.window_id: (b.end, tuple(b.tuples))
            for b in reference.all_windows()
        }
        # a recompute consumer advances the reader first
        for window_id in range(5):
            assert reader.window(window_id) is not None
        # now an incremental consumer joins: fallback during warmup,
        # pane-served once the ring spans a full window
        reader.demand_panes()
        served_from_panes = 0
        window_id = 5
        while True:
            view = reader.pane_view(window_id)
            if view is not None:
                served_from_panes += 1
                tuples = [t for p in view.panes for t in p.tuples]
                tuples.extend(view.edge)
                assert (view.end, tuple(tuples)) == expected[window_id]
            else:
                batch = reader.window(window_id)
                if batch is None:
                    break
                assert (batch.end, tuple(batch.tuples)) == expected[window_id]
            window_id += 1
        # pane coverage needs panes_per_window pulses after the demand:
        # windows 9..12 of the 13-window stream are pane-served
        assert served_from_panes >= 3  # the pane path resumed

    def test_explicit_pulse_start(self):
        """A PULSE START anchor ahead of the stream start: the pre-anchor
        tuples land in panes behind the first window and must not break
        the pane path or the output."""
        rows = measurement_rows(n_seconds=100)

        def run(incremental):
            engine = build_engine(rows, incremental=incremental)
            plan = plan_sql(
                AGG_SQL.format(r=20, s=5), engine, name="q", start=30.0
            )
            return [
                (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
                for r in engine.run_continuous(plan)
            ]

        assert run(True) == run(False)


class TestFloatBoundaryGrids:
    """Window grids anchored at arbitrary floats: rounded window-begin
    arithmetic can disagree with pane division by one ulp.  The reader
    must re-derive such tuples' panes from the batch expressions — or
    fall back — never silently diverge."""

    @staticmethod
    def _run(rows, r, s, incremental):
        engine = StreamEngine(incremental=incremental)
        engine.register_stream(ListSource(Stream("S", SCHEMA), list(rows)))
        plan = plan_sql(
            f"SELECT COUNT(*) AS n, SUM(w.val) AS total "
            f"FROM timeSlidingWindow(S, {r}, {s}) AS w",
            engine,
            name="q",
        )
        out = [
            (x.window_id, x.window_end, tuple(x.rows))
            for x in engine.run_continuous(plan)
        ]
        return out, engine.metrics.query("q")

    def test_tuple_on_rounded_window_begin(self):
        """Regression: a tuple exactly at a float `end - range` boundary
        of a non-pane-aligned grid made pane output diverge by one tuple."""
        anchor = 102.77205352918084
        rows = [(anchor + k * 0.5, 0, 1.0) for k in range(80)]
        rows.append(((anchor + 53 * 0.5) - 2.5, 0, 1.0))
        rows.sort(key=lambda t: t[0])
        incremental, _ = self._run(rows, 2.5, 0.5, True)
        recompute, _ = self._run(rows, 2.5, 0.5, False)
        assert incremental == recompute

    def test_messy_anchor_keeps_pane_path(self):
        """Grid-aligned tuples on a non-representable anchor stay on the
        pane path via the correction, and match recompute exactly."""
        anchor = 102.77205352918084
        rows = [(anchor + k * 0.5, 0, 1.0) for k in range(80)]
        incremental, metrics = self._run(rows, 2.5, 0.5, True)
        recompute, _ = self._run(rows, 2.5, 0.5, False)
        assert incremental == recompute
        assert metrics.windows_incremental == metrics.windows_processed

    def test_random_float_anchors(self):
        rng = random.Random(5)
        for _ in range(4):
            base = rng.uniform(1, 1e6)
            rows = sorted(
                (base + rng.uniform(0, 120), 0, rng.uniform(0, 100))
                for _ in range(300)
            )
            incremental, metrics = self._run(rows, 16.0, 2.0, True)
            recompute, _ = self._run(rows, 16.0, 2.0, False)
            assert incremental == recompute
            assert metrics.windows_incremental > 0


class TestRandomizedDifferential:
    """Seeded random single-stream CQs from the shared harness."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_queries(self, seed):
        rng = random.Random(1000 + seed)
        rows = measurement_rows(n_seconds=120)
        r, s = SPECS[seed % len(SPECS)]
        sql = random_single_stream_sql(rng, r, s)
        shards = 1 + (seed % 2)
        assert_differential(sql, rows=rows, shards=shards)


class TestSiemensDifferential:
    """Every deployment diagnostic task, incremental vs recompute."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(turbines=4, plants=2))

    def _run_all(self, fleet, incremental):
        dep = deploy(fleet=fleet, stream_duration=20, incremental=incremental)
        with dep.session() as session:
            handles = [
                session.submit(task.starql, name=f"t{task.task_id}")
                for task in diagnostic_catalog()
            ]
            while session.step(1):
                pass
            return {
                handle.registered.name: [
                    (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
                    for r in handle.registered.results()
                ]
                for handle in handles
            }

    def test_all_diagnostic_tasks_equal(self, fleet):
        incremental = self._run_all(fleet, True)
        recompute = self._run_all(fleet, False)
        assert incremental.keys() == recompute.keys()
        for name in incremental:
            assert incremental[name] == recompute[name], name
        assert any(len(v) > 0 for v in incremental.values())

    def test_incremental_engages_on_decomposable_tasks(self, fleet):
        dep = deploy(fleet=fleet, stream_duration=20, incremental=True)
        with dep.session() as session:
            for task in diagnostic_catalog():
                session.submit(task.starql, name=f"t{task.task_id}")
            while session.step(1):
                pass
        per_query = dep.engine.metrics.per_query
        incremental_windows = sum(
            m.windows_incremental for m in per_query.values()
        )
        assert incremental_windows > 0


class TestStaticFilterPushdown:
    def test_static_filter_applies_on_join_probe_path(self):
        """Regression: single-alias filters on a static relation were
        dropped when the static joined through the indexed probe path."""
        rows = measurement_rows(n_seconds=20)
        sql = (
            "SELECT w.sid AS s, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 8, 4) AS w, sensors AS t "
            "WHERE w.sid = t.sid AND t.kind = 'temp' GROUP BY w.sid"
        )
        for incremental in (True, False):
            engine = build_engine(rows, incremental=incremental)
            plan = plan_sql(sql, engine, name="q")
            out = list(engine.run_continuous(plan))
            sids = {row[0] for result in out for row in result.rows}
            # sensors 0 and 3 are 'pres' in static_db(): filtered out
            assert sids == {1, 2, 4, 5}, (incremental, sids)
