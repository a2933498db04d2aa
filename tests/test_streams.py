"""Tests for streams: sources, windows, the wCache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Column, SQLType
from repro.streams import (
    ListSource,
    SharedWindowReader,
    Stream,
    StreamSchema,
    WindowCache,
    WindowSpec,
    merge_sources,
    time_sliding_window,
)
from repro.streams.window import WindowBatch


def schema():
    return StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sensor", SQLType.INTEGER),
            Column("val", SQLType.REAL),
        ),
        time_column="ts",
    )


def msmt_stream():
    return Stream("S_Msmt", schema())


class TestStreamSchema:
    def test_time_index(self):
        assert schema().time_index == 0

    def test_missing_time_column_rejected(self):
        with pytest.raises(ValueError):
            StreamSchema((Column("a"),), time_column="ts")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            StreamSchema((Column("a"), Column("a")), time_column="a")

    def test_list_source_enforces_order(self):
        with pytest.raises(ValueError):
            ListSource(msmt_stream(), [(1.0, 1, 0.0), (0.5, 1, 0.0)])

    def test_list_source_replayable(self):
        src = ListSource(msmt_stream(), [(0.0, 1, 5.0), (1.0, 1, 6.0)])
        assert list(src) == list(src)
        assert src.take(1) == [(0.0, 1, 5.0)]

    def test_merge_sources_ordered(self):
        s1 = ListSource(msmt_stream(), [(0.0, 1, 0.0), (2.0, 1, 0.0)])
        s2 = ListSource(Stream("S2", schema()), [(1.0, 2, 0.0)])
        merged = list(merge_sources([s1, s2]))
        assert [t[0] for _, t in merged] == [0.0, 1.0, 2.0]
        assert merged[1][0] == "S2"


class TestWindows:
    def test_closed_interval_semantics(self):
        rows = [(float(t),) for t in range(5)]
        batches = list(time_sliding_window(rows, WindowSpec(2, 1), 0))
        sizes = {b.window_id: len(b) for b in batches}
        assert sizes[0] == 1 and sizes[1] == 2 and sizes[2] == 3 and sizes[3] == 3

    def test_window_bounds(self):
        rows = [(float(t),) for t in range(4)]
        batches = list(time_sliding_window(rows, WindowSpec(2, 1), 0))
        b2 = batches[2]
        assert (b2.start, b2.end) == (0.0, 2.0)

    def test_slide_larger_than_range(self):
        rows = [(float(t),) for t in range(10)]
        batches = list(time_sliding_window(rows, WindowSpec(1, 3), 0))
        # windows at t=0,3,6,9 each cover [t-1, t]
        assert [len(b) for b in batches] == [1, 2, 2, 2]

    def test_empty_windows_emitted(self):
        rows = [(0.0,), (5.0,)]
        batches = list(time_sliding_window(rows, WindowSpec(1, 1), 0))
        # closed intervals: [(-1,0], [0,1], [1,2], [2,3], [3,4], [4,5]]
        assert [len(b) for b in batches] == [1, 1, 0, 0, 0, 1]

    def test_explicit_start(self):
        rows = [(3.0,), (4.0,)]
        batches = list(time_sliding_window(rows, WindowSpec(2, 1), 0, start=0.0))
        assert batches[0].window_id == 0 and len(batches[0]) == 0
        assert len(batches[4]) == 2  # window [2,4]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)
        with pytest.raises(ValueError):
            WindowSpec(1, 0)

    def test_with_window_id_column(self):
        batch = WindowBatch(7, 0.0, 2.0, [(0.0, 1), (1.0, 2)])
        assert batch.with_window_id_column() == [(0.0, 1, 7), (1.0, 2, 7)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=60),
        st.floats(0.5, 10),
        st.floats(0.5, 10),
    )
    def test_window_contents_match_definition(self, times, rng, slide):
        rows = [(t,) for t in sorted(times)]
        spec = WindowSpec(rng, slide)
        for batch in time_sliding_window(rows, spec, 0):
            expected = [t for (t,) in rows if batch.start <= t <= batch.end]
            assert [t for (t,) in batch.tuples] == expected
            assert batch.end - batch.start == pytest.approx(rng)


class TestWindowCache:
    def make_reader(self, cache, n=20):
        rows = [(float(t), 1, float(t)) for t in range(n)]
        return SharedWindowReader(
            "S_Msmt", iter(rows), WindowSpec(3, 1), 0, cache
        )

    def test_first_read_misses_then_hits(self):
        cache = WindowCache()
        reader = self.make_reader(cache)
        w5 = reader.window(5)
        assert w5 is not None and cache.stats.misses > 0
        before = cache.stats.hits
        again = reader.window(5)
        assert again is w5
        assert cache.stats.hits == before + 1

    def test_materialises_forward(self):
        cache = WindowCache()
        reader = self.make_reader(cache)
        reader.demand_batches()  # a batch-driven consumer declares demand
        reader.window(4)
        # windows 0..4 are now cached
        assert all(("S_Msmt", k) in cache for k in range(5))

    def test_adhoc_window_does_not_latch_assembly(self):
        """Without a batch-demand reference only the requested window is
        assembled — a one-off fallback must not commit every later pulse
        to O(range) batch assembly (the old permanent latch)."""
        cache = WindowCache()
        reader = self.make_reader(cache)
        batch = reader.window(4)
        assert batch is not None and batch.window_id == 4
        assert reader.batch_demand == 0
        assert ("S_Msmt", 4) in cache
        assert all(("S_Msmt", k) not in cache for k in range(4))

    def test_eviction(self):
        cache = WindowCache(capacity=3)
        reader = self.make_reader(cache)
        reader.demand_batches()
        reader.window(10)
        assert len(cache) == 3
        assert cache.stats.evictions > 0

    def test_past_window_after_eviction_returns_none(self):
        cache = WindowCache(capacity=2)
        reader = self.make_reader(cache)
        reader.window(10)
        assert reader.window(0) is None

    def test_beyond_stream_end(self):
        cache = WindowCache()
        reader = self.make_reader(cache, n=5)
        assert reader.window(10_000) is None

    def test_all_windows(self):
        cache = WindowCache()
        reader = self.make_reader(cache, n=6)
        ids = [b.window_id for b in reader.all_windows()]
        assert ids == list(range(6))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            WindowCache(0)

    def test_hit_rate(self):
        cache = WindowCache()
        reader = self.make_reader(cache)
        reader.window(3)
        reader.window(3)
        assert 0 < cache.stats.hit_rate < 1
