"""The chunked stream reader against the frozen per-tuple reader.

``tests/reader_oracle.py`` holds the pulse generator and pane slicer as
they were when they ran one tuple at a time.  Every pulse, every pane
and edge slice, the pulse the pane path breaks at and
``pane_valid_until`` must agree with it — on random streams with float
and int timestamps, duplicates, tuples exactly on pane and window ends,
non-pane-aligned grid anchors, late / pane-crossing / after-edge
disorder, NaN and -inf timestamps, heartbeats, and pane demand taken, released and taken again
mid-stream — at every chunk size, and across a checkpoint taken at any
pulse.
"""

from __future__ import annotations

import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reader_oracle import OracleReader, time_window_pulses as oracle_pulses
from repro.exastream.sharding import partitioned_tuples
from repro.streams import (
    Heartbeat,
    SharedWindowReader,
    WindowCache,
    WindowSpec,
    pane_plan,
)
from repro.streams import window as window_module
from repro.streams.window import time_sliding_window, time_window_pulses

#: (range, slide) grids: pane-aligned ones with one and several panes
#: per slide, a gcd-1 grid, one that is not pane-capable at all, and
#: 0.3/0.15, whose float grid is not pane-aligned off a 0.0 anchor.
GRIDS = [(2.0, 0.5), (3.0, 2.0), (1.5, 0.5), (0.3, 0.15), (2.0, 3.0), (0.3, 0.1)]
#: pulse anchors; ``None`` anchors at the first item.  Anchors off the
#: 0.3/0.15 grid put tuples on rounded boundaries that only
#: ``_corrected_pane`` places.
ANCHORS = [None, 0.0, 0.3, 0.7, 2.2, 1e6 + 0.1]


class _RecordingCache(WindowCache):
    """A ``WindowCache`` that also logs every ``put_pane`` the way the
    oracle's stand-in does."""

    def __init__(self) -> None:
        super().__init__()
        self.puts: list[tuple[str, int, list, float]] = []

    def put_pane(self, stream_name, pane) -> None:
        self.puts.append((stream_name, pane.pane_id, list(pane.tuples), pane.end))
        super().put_pane(stream_name, pane)


def _pulse_record(pulse):
    return (
        pulse.window_id,
        pulse.start,
        pulse.end,
        list(pulse.fresh),
        list(pulse.buffer),
        pulse.processed,
        pulse.eos,
        pulse.anchor,
    )


@st.composite
def streams(draw):
    """A source (tuples ``(ts, seq)`` and heartbeats), its grid and
    anchor, and a pane-demand schedule ``{pulse: "demand"|"release"}``."""
    range_s, slide = draw(st.sampled_from(GRIDS))
    anchor = draw(st.sampled_from(ANCHORS))
    origin = 0.0 if anchor is None else anchor
    plan = pane_plan(WindowSpec(range_s, slide))
    step = plan.pane_seconds if plan is not None else slide
    integral = draw(st.booleans()) and range_s.is_integer() and slide.is_integer()

    def on_grid(k: int) -> float:
        # pane ends and window starts as the grid computes them, up to
        # two ulps either side
        base = draw(st.sampled_from([origin + k * step, (origin + k * slide) - range_s]))
        ulps = draw(st.sampled_from([0, 0, 0, -2, -1, 1, 2]))
        for _ in range(abs(ulps)):
            base = math.nextafter(base, math.copysign(math.inf, ulps))
        return base

    count = draw(st.integers(0, 60))
    times: list[float] = []
    cursor = draw(st.integers(-3, 2))
    for _ in range(count):
        cursor += draw(st.integers(0, 2))  # 0: duplicates
        if integral:
            times.append(int(origin) + cursor)
        elif draw(st.booleans()):
            times.append(on_grid(cursor))
        else:
            times.append(origin + cursor * step + draw(st.floats(0, step)))
    # disorder: late tuples, swaps across panes, tuples after an edge
    for _ in range(draw(st.integers(0, 3))):
        if len(times) < 2:
            break
        at = draw(st.integers(1, len(times) - 1))
        kind = draw(st.sampled_from(["late", "swap"]))
        if kind == "late":
            times.insert(at, times[at] - draw(st.sampled_from([step, 2 * step, range_s])))
        else:
            times[at - 1], times[at] = times[at], times[at - 1]
    # a NaN or -inf timestamp (never the first, which may set the
    # anchor); +inf closes every window forever in both readers, so it
    # never reaches a slicer
    if times and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(1, len(times)))
        times.insert(at, draw(st.sampled_from([math.nan, -math.inf])))
    items: list = [(ts, seq) for seq, ts in enumerate(times)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(items)))
        last = max((t[0] for t in items[:at] if not isinstance(t, Heartbeat)), default=origin)
        items.insert(at, Heartbeat(last + draw(st.sampled_from([0.0, step, 3 * step]))))
    schedule = draw(
        st.dictionaries(
            st.integers(0, 40), st.sampled_from(["demand", "release"]), max_size=4
        )
    )
    return items, WindowSpec(range_s, slide), anchor, schedule


class _BreakingOracle(OracleReader):
    """The oracle, except that a non-finite timestamp breaks the pane
    path where the per-tuple slicer raised from ``math.ceil``."""

    def _slice_pulse(self, pulse) -> None:
        try:
            super()._slice_pulse(pulse)
        except (ValueError, OverflowError):
            self._pane_broken = True


def _run_both(items, spec, anchor, schedule):
    """Drive the chunked reader and the oracle pulse by pulse; return
    what each produced."""
    cache = _RecordingCache()
    reader = SharedWindowReader("S", iter(items), spec, 0, cache, start=anchor)
    oracle = _BreakingOracle("S", items, spec, 0, start=anchor)
    ours, theirs = [], []
    index = 0
    while True:
        action = schedule.get(index)
        if action == "demand":
            reader.demand_panes()
            oracle.demand_panes()
        elif action == "release":
            reader.release_panes()
            oracle.release_panes()
        seen = len(cache.puts), len(oracle.cache.puts)
        reader._advance()
        expected = oracle.advance()
        if expected is None:
            assert reader._exhausted
            return ours, theirs
        pulse = reader._last_pulse
        assert not reader._exhausted and pulse.window_id == expected.window_id
        assert np.array_equal(
            pulse.fresh_stamps, [float(t[0]) for t in pulse.fresh], equal_nan=True
        )
        ours.append((
            _pulse_record(pulse),
            pulse.materialise().tuples,
            cache.puts[seen[0]:],
            reader.pane_broken,
            reader._pane_valid_until,
        ))
        theirs.append((
            _pulse_record(expected),
            expected.materialise(0).tuples,
            oracle.cache.puts[seen[1]:],
            oracle.pane_broken,
            oracle.pane_valid_until,
        ))
        index += 1


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(streams(), st.sampled_from([1, 2, 3, 7, 4096]))
    def test_pulses_and_slices_match(self, stream, chunk):
        items, spec, anchor, schedule = stream
        with mock.patch.object(window_module, "CHUNK", chunk):
            ours, theirs = _run_both(items, spec, anchor, schedule)
        assert ours == theirs

    @settings(max_examples=150, deadline=None)
    @given(streams(), st.sampled_from([1, 3, 4096]))
    def test_batches_match(self, stream, chunk):
        items, spec, anchor, _ = stream
        with mock.patch.object(window_module, "CHUNK", chunk):
            ours = [
                (b.window_id, b.start, b.end, b.tuples)
                for b in time_sliding_window(iter(items), spec, 0, anchor)
            ]
        theirs = [
            (p.window_id, p.start, p.end, p.materialise(0).tuples)
            for p in oracle_pulses(iter(items), spec, 0, anchor)
        ]
        assert ours == theirs

    def test_corrected_panes_are_placed_exactly(self):
        """Tuples on the rounded grid of 1.5/0.5 off anchor 0.7 that the
        division guess misplaces and ``_corrected_pane`` places — with
        the pane path intact."""
        spec, anchor = WindowSpec(1.5, 0.5), 0.7
        placed = []
        corrected = OracleReader._corrected_pane

        def recording(self, ts, anchor):
            pane = corrected(self, ts, anchor)
            placed.append(pane)
            return pane

        times = []
        with mock.patch.object(OracleReader, "_corrected_pane", recording):
            for k in range(60):
                for base in (anchor + k * 0.5, (anchor + k * 0.5) - 1.5):
                    for ulps in (-2, -1, 0, 1, 2):
                        ts = base
                        for _ in range(abs(ulps)):
                            ts = math.nextafter(ts, math.copysign(math.inf, ulps))
                        placed.clear()
                        probe = OracleReader("S", [(ts, 0)], spec, 0, start=anchor)
                        probe.demand_panes()
                        while probe.advance() is not None:
                            pass
                        if placed and None not in placed:
                            times.append(ts)
        times += [anchor + 0.5 * k + 0.25 for k in range(60)]  # mid-pane
        items = [(ts, seq) for seq, ts in enumerate(sorted(times))]
        calls = []
        ours_corrected = SharedWindowReader._corrected_pane

        def counting(self, ts, anchor):
            calls.append(ts)
            return ours_corrected(self, ts, anchor)

        with mock.patch.object(SharedWindowReader, "_corrected_pane", counting):
            ours, theirs = _run_both(items, spec, anchor, {0: "demand"})
        assert len(calls) >= 5 and not ours[-1][3]
        assert ours == theirs


class TestResume:
    @settings(max_examples=60, deadline=None)
    @given(streams(), st.sampled_from([1, 3, 4096]))
    def test_resume_at_every_pulse(self, stream, chunk):
        """A reader checkpointed at any pulse and resumed over a fresh
        source yields the uninterrupted run's remaining pulses and
        slices."""
        items, spec, anchor, schedule = stream
        with mock.patch.object(window_module, "CHUNK", chunk):
            whole, states = self._drive(items, spec, anchor, schedule)
            for at, (state, refs) in enumerate(states):
                rest, _ = self._drive(
                    items, spec, anchor, schedule, resume=(at, state, refs)
                )
                assert rest == whole[at + 1:]

    @staticmethod
    def _drive(items, spec, anchor, schedule, resume=None):
        cache = _RecordingCache()
        if resume is None:
            reader = SharedWindowReader("S", iter(items), spec, 0, cache, start=anchor)
            index = 0
        else:
            at, state, refs = resume
            reader = SharedWindowReader.resume(
                "S", lambda: iter(items), spec, 0, cache, state, start=anchor
            )
            for _ in range(refs):
                reader.demand_panes()
            index = at + 1
        records, states = [], []
        while True:
            action = schedule.get(index)
            if action == "demand":
                reader.demand_panes()
            elif action == "release":
                reader.release_panes()
            seen = len(cache.puts)
            reader._advance()
            if reader._exhausted:
                return records, states
            pulse = reader._last_pulse
            records.append((
                _pulse_record(pulse),
                pulse.materialise().tuples,
                cache.puts[seen:],
                reader.pane_broken,
                reader._pane_valid_until,
            ))
            states.append((reader.snapshot_state(), reader.pane_demand))
            index += 1

    def test_snapshot_keeps_its_format(self):
        rows = [(0.25 * k, k) for k in range(24)]
        reader = SharedWindowReader(
            "S", rows, WindowSpec(1.0, 0.5), 0, WindowCache(), start=0.0
        )
        reader.demand_panes()
        for _ in range(4):
            reader._advance()
        assert reader.snapshot_state() == POSITION_FORMAT_STATE
        # a follower at window 3 reads panes from 1 on: sliced at pulse
        # 2, after pulse 0 (buffer: item 0; 1 item processed)
        assert reader.snapshot_state(3) == {
            **POSITION_FORMAT_STATE,
            "replay_from": 1,
            "resume": (0, 1),
            "flags": b"\x01\x01\x01",
        }

    @settings(max_examples=60, deadline=None)
    @given(
        streams(), st.sampled_from([1, 3, 4096]), st.integers(0, 3),
        st.booleans(), st.booleans(),
    )
    def test_positions_rebuild_what_the_floor_reads(
        self, stream, chunk, lag, batches, partitioned
    ):
        """At every pulse, a reader resumed from a positions-only state —
        with a follower ``lag`` windows behind — has the uninterrupted
        reader's state and every cache entry at or above the floor:
        batches (with batch demand, as a recompute-only reader), edge
        slices and the panes of the floor window on.  ``partitioned``
        reads one shard's slice of a two-shard layout as the engine
        lays it out: round robin, a trailing heartbeat at the stream's
        last timestamp, the grid anchored by the stream's first."""
        items, spec, anchor, schedule = stream
        if partitioned:
            rows = [item for item in items if not isinstance(item, Heartbeat)]
            if rows and anchor is None:
                anchor = rows[0][0]
            final = rows[-1][0] if rows else None
            items = list(partitioned_tuples(rows, 1, 2, None, final)())
        with mock.patch.object(window_module, "CHUNK", chunk):
            reader = SharedWindowReader(
                "S", iter(items), spec, 0, WindowCache(), start=anchor
            )
            if batches:
                reader.demand_batches()
            index = 0
            while not reader._exhausted:
                action = schedule.get(index)
                if action == "demand":
                    reader.demand_panes()
                elif action == "release":
                    reader.release_panes()
                reader._advance()
                index += 1
                floor = max(0, reader._max_seen - lag)
                state = pickle.loads(pickle.dumps(reader.snapshot_state(floor)))
                assert all(
                    isinstance(value, (bool, int, float, bytes, type(None)))
                    for key, value in state.items() if key != "resume"
                )
                assert all(isinstance(value, int) for value in state["resume"])
                resumed = SharedWindowReader.resume(
                    "S", lambda: iter(items), spec, 0, WindowCache(), state,
                    start=anchor,
                )
                assert _reader_state(resumed) == _reader_state(reader)
                assert _entries(resumed, floor) == _entries(reader, floor)

    def test_old_checkpoint_resumes(self):
        """A reader state written before the reader was chunked (the
        same dict, verbatim) resumes into the uninterrupted run."""
        rows = [(0.25 * k, k) for k in range(24)]
        spec = WindowSpec(1.0, 0.5)
        whole = SharedWindowReader("S", rows, spec, 0, _RecordingCache(), start=0.0)
        whole.demand_panes()
        expected = []
        while True:
            seen = len(whole._cache.puts)
            whole._advance()
            if whole._exhausted:
                break
            expected.append((whole._last_pulse.window_id, whole._cache.puts[seen:]))
        cache = _RecordingCache()
        resumed = SharedWindowReader.resume(
            "S", lambda: iter(rows), spec, 0, cache, OLD_FORMAT_STATE, start=0.0
        )
        assert resumed.window(3).tuples == [(0.5, 2), (0.75, 3), (1.0, 4), (1.25, 5), (1.5, 6)]
        resumed.demand_panes()
        got = []
        while True:
            seen = len(cache.puts)
            resumed._advance()
            if resumed._exhausted:
                break
            got.append((resumed._last_pulse.window_id, cache.puts[seen:]))
        assert got == expected[4:]


#: ``snapshot_state()`` of a 1.0/0.5 reader over ``(0.25 * k, k)``
#: after four pulses: its last buffer is items ``[2, 7)``, and a
#: replay from the stream's start re-runs four pulses that sliced panes
#: (the first restarting the slicer).
POSITION_FORMAT_STATE = {
    "exhausted": False,
    "max_seen": 3,
    "pane_broken": False,
    "pane_latched": False,
    "pane_valid_until": 3,
    "next_pane": 3,
    "anchor": 0.0,
    "offset": 2,
    "processed": 7,
    "replay_from": 0,
    "resume": (0, 0),
    "flags": b"\x03\x01\x01\x01",
}


def _reader_state(reader):
    pulse = reader._last_pulse
    return (
        reader._exhausted, reader._max_seen, reader._pane_broken,
        reader._pane_valid_until, reader._next_pane, reader._carry,
        None if pulse is None else (_pulse_record(pulse), pulse.offset),
    )


def _entries(reader, floor):
    """The reader's cache entries a query at window ``floor`` or later
    can read: batches and edge slices from ``floor``, panes from the
    floor window's first."""
    plan = reader.pane_plan
    pane_floor = (
        floor * plan.panes_per_slide - plan.panes_per_window
        if plan is not None else floor
    )
    cache = reader._cache
    return (
        {key: (b.start, b.end, b.tuples) for key, b in cache._store.items()
         if key[1] >= floor},
        {key: (p.tuples, p.end) for key, p in cache._panes.items()
         if key[1] >= (floor if key[0].endswith("@edge") else pane_floor)},
    )


#: ``snapshot_state()`` of a 1.0/0.5 reader over ``(0.25 * k, k)``
#: after four pulses, as the per-tuple reader wrote it.
OLD_FORMAT_STATE = {
    "exhausted": False,
    "max_seen": 3,
    "pane_broken": False,
    "pane_latched": False,
    "pane_valid_until": 3,
    "next_pane": 3,
    "carry": [(1.5, 6)],
    "pulse": {
        "window_id": 3,
        "start": 0.5,
        "end": 1.5,
        "anchor": 0.0,
        "buffer": [(0.5, 2), (0.75, 3), (1.0, 4), (1.25, 5), (1.5, 6)],
        "processed": 7,
        "eos": False,
    },
}


class TestChunkedGenerator:
    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_heartbeats_split_a_chunk(self, chunk):
        items = [(0.0, 0), (0.5, 1), Heartbeat(2.0), (2.5, 2), Heartbeat(4.0)]
        spec = WindowSpec(1.0, 0.5)
        with mock.patch.object(window_module, "CHUNK", chunk):
            ours = [_pulse_record(p) for p in time_window_pulses(iter(items), spec, 0)]
        theirs = [_pulse_record(p) for p in oracle_pulses(iter(items), spec, 0)]
        assert ours == theirs

    def test_pulses_stay_readable_after_the_generator_moves_on(self):
        rows = [(float(k), k) for k in range(50)]
        with mock.patch.object(window_module, "CHUNK", 4):
            pulses = list(time_window_pulses(iter(rows), WindowSpec(4.0, 1.0), 0))
        expected = [
            (p.window_id, list(p.buffer))
            for p in oracle_pulses(iter(rows), WindowSpec(4.0, 1.0), 0)
        ]
        assert [(p.window_id, p.buffer) for p in pulses] == expected

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_nan_timestamps_close_no_window(self, chunk):
        """A NaN timestamp is past no pulse instant, stops eviction and
        is in no batch — as in the per-tuple generator."""
        nan = float("nan")
        items = [(0.0, 0), (1.0, 1), (nan, 2), (2.0, 3), (3.5, 4), (nan, 5), (6.0, 6)]
        spec = WindowSpec(2.0, 1.0)
        with mock.patch.object(window_module, "CHUNK", chunk):
            ours = [
                (b.window_id, b.start, b.end, b.tuples)
                for b in time_sliding_window(iter(items), spec, 0)
            ]
        theirs = [
            (p.window_id, p.start, p.end, p.materialise(0).tuples)
            for p in oracle_pulses(iter(items), spec, 0)
        ]
        assert ours == theirs

    @pytest.mark.parametrize("start", [None, -0.5])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize(
        "places",
        [(0,), (0, 1), (3,), (8,), (0, 5, 8)],
        ids=["first", "first-two", "middle", "last", "first-middle-last"],
    )
    def test_non_finite_timestamps_never_move_the_grid(
        self, places, chunk, bad, start
    ):
        """A non-finite tuple — first, anywhere, last; with and without
        ``start`` — neither anchors nor advances the grid and is in no
        window: the batches are those of the stream without it."""
        finite = [(0.25 + 0.7 * k, k) for k in range(8)]
        items = list(finite)
        for at in places:
            items.insert(at, (bad, 100 + at))
        items.insert(4, Heartbeat(bad))
        spec = WindowSpec(2.0, 0.5)
        with mock.patch.object(window_module, "CHUNK", chunk):
            ours = [
                (b.window_id, b.start, b.end, b.tuples)
                for b in time_sliding_window(iter(items), spec, 0, start)
            ]
        theirs = [
            (b.window_id, b.start, b.end, b.tuples)
            for b in time_sliding_window(iter(finite), spec, 0, start)
        ]
        assert len(theirs) > 5 and ours == theirs

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_a_shard_anchors_at_the_first_finite_timestamp(self, bad):
        from cqgen import build_engine

        rows = [(bad, 1, 0.0), (3.0, 1, 1.0), (4.0, 2, 2.0)]
        engine = build_engine(rows=rows, shards=2)
        _factory, anchor = engine.reader_source("S", (2, "sid", 0), 1)
        assert anchor == 3.0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_only_non_finite_timestamps_yield_no_window(self, bad):
        items = [(bad, 0), Heartbeat(bad), (bad, 1)]
        assert list(time_sliding_window(iter(items), WindowSpec(2.0, 1.0), 0)) == []

    def test_nan_first_tuple_anchors_at_the_next(self):
        rows = [(math.nan, 0), (0.0, 1)]
        batches = list(time_sliding_window(rows, WindowSpec(2, 1), 0))
        assert [(b.window_id, b.start, b.end, b.tuples) for b in batches] == [
            (0, -2.0, 0.0, [(0.0, 1)])
        ]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_non_finite_timestamps_break_the_pane_path(self, bad, chunk):
        """A NaN or -inf tuple is in no batch; the pane path breaks at the
        pulse that delivers it, so no pane or edge slice ever holds it and
        every window the panes still serve equals its batch."""
        items = [(0.0, 0), (0.5, 1), (1.0, 2), (1.7, 3), (bad, 4), (2.2, 5), (3.1, 6)]
        items += [(4.0 + 0.4 * k, 7 + k) for k in range(10)]
        spec = WindowSpec(2.0, 0.5)
        with mock.patch.object(window_module, "CHUNK", chunk):
            batches = {
                b.window_id: b.tuples
                for b in time_sliding_window(iter(items), spec, 0, 0.0)
            }
            cache = _RecordingCache()
            reader = SharedWindowReader("S", iter(items), spec, 0, cache, start=0.0)
            reader.demand_panes()
            broken = []
            while True:
                reader._advance()
                if reader._exhausted:
                    break
                pulse = reader._last_pulse
                broken.append((reader.pane_broken, items[4] in pulse.fresh))
        delivered = [fresh for _, fresh in broken].index(True)
        assert [b for b, _ in broken] == [k >= delivered for k in range(len(broken))]
        assert all(math.isfinite(row[0]) for put in cache.puts for row in put[2])
        assert reader._pane_valid_until == delivered - 1
        for window_id in range(reader._pane_valid_until + 1):
            view = reader._pane_window(window_id)
            if view is not None:
                rows = [row for pane in view.panes for row in pane.tuples]
                assert rows + list(view.edge) == batches[window_id]
