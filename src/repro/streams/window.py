"""CQL time-based sliding windows and the ``timeSlidingWindow`` operator.

EXASTREAM turns SQLite into a DSMS with two UDFs; the first is
``timeSlidingWindow``, which "groups tuples that belong to the same time
window and associates them with a unique window id".  Semantics follow
CQL (Arasu, Babu, Widom 2006): a window with range ``r`` and slide ``s``
materialises, at each pulse time ``t_k = start + k*s``, the bag of tuples
with timestamp in ``(t_k - r, t_k]``.

The pulse generator reads its source a chunk at a time: one float64
timestamp array per chunk drives the pulse cut, the buffer keeps the
timestamps of its rows for eviction and batch assembly, and pulses hand
their fresh timestamps on to pane slicing.  Every comparison is the one
a per-tuple loop over the Python values would make, because numpy
rounds each float64 element as Python rounds a float.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice
from operator import itemgetter
from typing import Any

import numpy as np

__all__ = [
    "WindowSpec",
    "WindowBatch",
    "WindowPulse",
    "PulseResume",
    "Heartbeat",
    "time_sliding_window",
    "time_window_pulses",
    "PanePlan",
    "PaneSlice",
    "PaneWindow",
    "pane_plan",
]


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """Window parameters: range and slide, in seconds of event time."""

    range_seconds: float
    slide_seconds: float

    def __post_init__(self) -> None:
        if self.range_seconds <= 0:
            raise ValueError("window range must be positive")
        if self.slide_seconds <= 0:
            raise ValueError("window slide must be positive")

    def window_end(self, window_id: int, start: float) -> float:
        """Event time at which window ``window_id`` closes."""
        return start + window_id * self.slide_seconds


@dataclass(slots=True)
class WindowBatch:
    """The contents of one window instance.

    ``tuples`` preserves arrival (timestamp) order; ``window_id`` is the
    unique id the UDF attaches, shared with :mod:`repro.streams.wcache`.
    """

    window_id: int
    start: float
    end: float
    tuples: list[tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.tuples)

    def with_window_id_column(self) -> list[tuple[Any, ...]]:
        """Tuples extended with the window id — the UDF's relational view."""
        return [t + (self.window_id,) for t in self.tuples]


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """A punctuation: "no more tuples before ``ts``" — carries no data.

    Sharded execution splits one stream into per-shard substreams; a
    shard whose substream ends early must still close every window the
    full stream closes, or the shard falls behind the global grid.  The
    partitioner appends a heartbeat at the stream's final timestamp so
    each shard's watermark advances exactly as far as the full stream's.
    """

    ts: float


@dataclass(slots=True)
class WindowPulse:
    """One pulse of the windowing engine, *before* batch materialisation.

    ``fresh`` holds the tuples first delivered at this pulse (each tuple
    appears in exactly one pulse's ``fresh``, in arrival order; a tuple
    past a window's end triggers that window's drain before it is
    appended, so fresh tuples never outrun their delivering pulse's
    ``end``) and ``fresh_stamps`` their timestamps as float64.  The
    window buffer, pruned to ``ts >= start``, is ``rows[head:head +
    len(stamps)]`` with timestamps ``stamps``; slicing it by ``start <=
    ts <= end`` yields exactly the window's batch.  The generator only
    appends past a pulse's buffer and regrows into new storage, so a
    pulse stays readable after the generator resumes.  Pulses let
    pane-incremental readers touch O(slide) tuples per window instead
    of materialising O(range) batches.
    """

    window_id: int
    start: float
    end: float
    fresh: list[tuple[Any, ...]]
    fresh_stamps: np.ndarray
    rows: list[tuple[Any, ...]]
    head: int
    stamps: np.ndarray
    #: the pulse grid anchor — pane slicing re-derives window boundaries
    #: with the exact float expressions batch assembly uses
    anchor: float = 0.0
    #: source items fully consumed when this pulse was yielded — a
    #:  triggering item still in flight is *not* counted, so a resumed
    #:  generator re-reads it and replays exactly the pending pulses
    processed: int = 0
    #: pulse came from the end-of-stream drain: nothing follows it, and
    #: a resume from it must not re-run that drain
    eos: bool = False
    #: source item offset of the buffer's first row: the buffer is the
    #: rows (heartbeats are not rows) among items ``[offset, processed)``
    offset: int = 0

    @classmethod
    def restored(
        cls,
        window_id: int,
        start: float,
        end: float,
        buffer: Sequence[tuple[Any, ...]],
        time_index: int,
        anchor: float,
        processed: int,
        eos: bool,
    ) -> WindowPulse:
        """A pulse rebuilt from a checkpoint that carried its buffer rows
        (no fresh tuples: they were delivered before the checkpoint)."""
        rows = list(buffer)
        return cls(
            window_id, start, end, [], _NO_STAMPS, rows, 0,
            timestamps(rows, time_index), anchor, processed, eos,
            processed - len(rows),
        )

    @property
    def buffer(self) -> list[tuple[Any, ...]]:
        """The window buffer's rows, oldest first."""
        return self.rows[self.head:self.head + len(self.stamps)]

    def materialise(self) -> WindowBatch:
        """Assemble the full CQL batch from the buffer (O(range), one
        vectorised bounds test over its timestamps)."""
        start, end = self.start, self.end
        stamps = self.stamps
        inside = (stamps >= start) & (stamps <= end)
        contents = self.buffer
        if not inside.all():
            contents = list(compress(contents, inside.tolist()))
        return WindowBatch(self.window_id, start, end, contents)


@dataclass(frozen=True, slots=True)
class PulseResume:
    """Where to pick a pulse generator back up after a checkpoint.

    Captured from a pulse a consumer saw: the grid ``anchor``, the
    ``next_window`` to emit, and two source item offsets — the buffer's
    first row (``offset``) and how many items were fully ``processed``.
    The window buffer is the rows among items ``[offset, processed)``,
    so the generator re-reads them from the replayable source.  ``eos``
    marks a resume from the end-of-stream drain pulse — the resumed
    generator yields nothing, matching an uninterrupted run that was
    already past its final drain.

    ``buffer`` is only set for a checkpoint written before positions,
    which carried the buffer rows themselves: they are taken as the
    items just before ``processed``, and ``offset`` is ignored.
    """

    anchor: float | None
    next_window: int
    offset: int = 0
    processed: int = 0
    eos: bool = False
    buffer: Sequence[tuple[Any, ...]] | None = None


#: Source items the pulse generator pulls per chunk: their timestamps
#: are extracted once, into one float64 array, for every test the chunk
#: sees.  Large enough that the per-chunk numpy calls vanish against
#: the chunk's tuples (1 024 to 4 096 read a 1 200-tuple-pulse stream
#: equally fast), small enough that the read-ahead a window pays for
#: stays well under a millisecond.
CHUNK = 1024

_NO_STAMPS = np.empty(0)


def timestamps(rows: Sequence[tuple[Any, ...]], time_index: int) -> np.ndarray:
    """The rows' time column as a float64 array."""
    return np.fromiter(map(itemgetter(time_index), rows), np.float64, len(rows))


class _Buffer:
    """The pulse generator's window buffer: rows in arrival order and
    their timestamps, live from ``head`` to the end of ``rows``; rows
    from ``fresh`` on are not delivered yet (some may already be
    evicted, when they arrived late).

    ``peaks[i]`` is the running maximum of ``stamps[:i + 1]`` (NaN from
    a NaN timestamp on, which sorts last and so stops eviction there, as
    ``not nan < begin`` does).  Every row before ``head`` was evicted
    below a window start no later than the current one, so the first
    live row at or past a window start — where eviction stops — is
    where ``peaks`` first reaches it: a binary search, whatever the
    arrival order.  Storage grows by copying what is still live or
    undelivered into new arrays, never in place, which keeps every
    yielded pulse's views intact.

    The buffer also knows where its head is in the source: ``dropped``
    rows left storage at regrowth, so the head is row ``dropped + head``
    of the rows read since item ``origin``, and ``beats`` holds the row
    count before each heartbeat read since then (heartbeats are items,
    not rows).  A heartbeat the head has passed folds into ``origin``.
    """

    __slots__ = ("rows", "stamps", "peaks", "head", "fresh", "dropped", "origin", "beats")

    def __init__(
        self, rows: list[tuple[Any, ...]], stamps: np.ndarray, origin: int = 0,
        beats: Iterable[int] = (),
    ) -> None:
        self.rows: list[tuple[Any, ...]] = []
        self.stamps = self.peaks = _NO_STAMPS
        self.head = self.fresh = self.dropped = 0
        self.origin = origin
        self.beats = deque(beats)
        self.extend(rows, stamps)
        self.fresh = len(self.rows)  # a restored buffer was delivered

    def extend(self, rows: list[tuple[Any, ...]], stamps: np.ndarray) -> None:
        count = len(rows)
        if not count:
            return
        tail = len(self.rows)
        if tail + count > len(self.stamps):
            keep = min(self.head, self.fresh)
            kept = tail - keep
            capacity = max(CHUNK, 2 * (kept + count))
            stamps_now, peaks_now = np.empty(capacity), np.empty(capacity)
            stamps_now[:kept] = self.stamps[keep:tail]
            peaks_now[:kept] = self.peaks[keep:tail]
            self.rows = self.rows[keep:]
            self.stamps, self.peaks = stamps_now, peaks_now
            self.head -= keep
            self.fresh -= keep
            self.dropped += keep
            tail = kept
        self.rows.extend(rows)
        self.stamps[tail:tail + count] = stamps
        peaks = self.peaks[tail:tail + count]
        np.maximum.accumulate(stamps, out=peaks)
        if tail:
            np.maximum(peaks, self.peaks[tail - 1], out=peaks)

    def evict(self, begin: float) -> None:
        """Drop the leading rows timestamped before ``begin``."""
        head, tail = self.head, len(self.rows)
        self.head = head + int(self.peaks[head:tail].searchsorted(begin))

    def beat(self) -> None:
        """Note a heartbeat read after every row so far."""
        self.beats.append(self.dropped + len(self.rows))

    def pulse(
        self, window_id: int, begin: float, end: float, anchor: float,
        processed: int, eos: bool,
    ) -> WindowPulse:
        """The pulse delivering every row not delivered yet."""
        head, fresh, tail = self.head, self.fresh, len(self.rows)
        self.fresh = tail
        row, beats = self.dropped + head, self.beats
        while beats and beats[0] <= row:
            beats.popleft()
            self.origin += 1
        return WindowPulse(
            window_id, begin, end, self.rows[fresh:tail],
            self.stamps[fresh:tail], self.rows, head,
            self.stamps[head:tail], anchor, processed, eos, self.origin + row,
        )


def time_window_pulses(
    tuples: Iterable[tuple[Any, ...] | Heartbeat],
    spec: WindowSpec,
    time_index: int,
    start: float | None = None,
    resume: PulseResume | None = None,
) -> Iterator[WindowPulse]:
    """Stream tuples into window pulses (the lazy core of
    :func:`time_sliding_window`).

    ``start`` anchors the pulse grid; when omitted, the first tuple's
    timestamp is used (the window closing exactly at that instant fires
    first).  Windows are emitted as soon as event time passes their end
    (watermark = max seen timestamp, no lateness).

    The source is read :data:`CHUNK` items at a time and each chunk's
    timestamps are extracted once, as float64.  A pulse is due at the
    first item past the current pulse instant; over the chunk's running
    maximum that item is one binary search away, whatever the arrival
    order; the items before it join the buffer as one slice, and a
    pulse's fresh tuples are the buffer rows not yet delivered.
    Timestamps are real numbers that float64 holds exactly (floats, and
    ints up to 2**53), so every comparison is the one a per-item loop
    over the Python values would make; a NaN timestamp closes no window
    and is in no batch.  A chunk holding heartbeats (the timestamp
    extraction fails on them) splits at each one, and each heartbeat is
    handled on its own.

    ``resume`` restarts the generator mid-stream from checkpointed
    positions over the same source, replayed from its first item: the
    generator re-reads the buffer's items ``[resume.offset,
    resume.processed)`` and continues as if it had consumed everything
    before them itself.  A pulse's triggering item is never counted as
    processed, so re-reading it re-yields exactly the pulses the
    pre-checkpoint run had not yet delivered — byte-identical to an
    uninterrupted run.  Reading ahead of ``processed`` is safe for the
    same reason: sources replay.
    """
    if resume is not None and resume.eos:
        return
    slide, range_s = spec.slide_seconds, spec.range_seconds
    source = iter(tuples)
    if resume is None:
        buffer = _Buffer([], _NO_STAMPS)
    elif resume.buffer is not None:
        rows = list(resume.buffer)
        source = islice(source, resume.processed, None)
        buffer = _Buffer(
            rows, timestamps(rows, time_index), resume.processed - len(rows)
        )
    else:
        rows, beats = [], []
        for item in islice(source, resume.offset, resume.processed):
            if isinstance(item, Heartbeat):
                beats.append(len(rows))
            else:
                rows.append(item)
        buffer = _Buffer(rows, timestamps(rows, time_index), resume.offset, beats)
    anchor: float | None = resume.anchor if resume is not None else start
    next_window = resume.next_window if resume is not None else 0
    processed = resume.processed if resume is not None else 0

    def drain_until(watermark: float, eos: bool = False) -> Iterator[WindowPulse]:
        nonlocal next_window
        assert anchor is not None
        while anchor + next_window * slide <= watermark:
            end = anchor + next_window * slide
            begin = end - range_s
            buffer.evict(begin)
            yield buffer.pulse(next_window, begin, end, anchor, processed, eos)
            next_window += 1

    def take(rows: list[tuple[Any, ...]], stamps: np.ndarray) -> None:
        nonlocal processed
        buffer.extend(rows, stamps)
        processed += len(rows)

    def run(rows: list[tuple[Any, ...]], stamps: np.ndarray) -> Iterator[WindowPulse]:
        """Pulses of a heartbeat-free run of tuples."""
        nonlocal anchor
        if anchor is None:
            anchor = rows[0][time_index]
        count = len(rows)
        # a NaN timestamp is past no pulse instant
        ordered = np.where(stamps != stamps, -np.inf, stamps)
        # peaks[i - base]: the running maximum of ordered[base:i + 1]
        base, peaks = 0, np.maximum.accumulate(ordered)
        taken = search = 0
        while True:
            pulse_at = anchor + next_window * slide
            if search > base and peaks[search - 1 - base] > pulse_at:
                # an item already passed is still past the pulse (a
                # rounded watermark drained nothing): restart the
                # maximum after it
                base, peaks = search, np.maximum.accumulate(ordered[search:])
            cut = search + int(peaks[search - base:].searchsorted(pulse_at, "right"))
            if cut >= count:
                break
            take(rows[taken:cut], stamps[taken:cut])
            taken = cut
            # Close every window strictly before this event's time.
            yield from drain_until(
                _previous_pulse(anchor, spec, rows[cut][time_index])
            )
            search = cut + 1
        take(rows[taken:], stamps[taken:])

    def beat(ts: float) -> Iterator[WindowPulse]:
        nonlocal anchor, processed
        if anchor is None:
            anchor = ts
        if ts > anchor + next_window * slide:
            yield from drain_until(_previous_pulse(anchor, spec, ts))
        buffer.beat()
        processed += 1

    if resume is not None:
        # The first item is the one whose arrival drained the
        # checkpointed pulse: finish that drain to the same watermark.
        # Re-testing it against the next pulse instant instead would
        # stop early where the rounded watermark passed that instant
        # and the item did not.
        for item in islice(source, 1):
            ts = item.ts if isinstance(item, Heartbeat) else item[time_index]
            yield from drain_until(_previous_pulse(anchor, spec, ts))
            source = chain((item,), source)
    while chunk := list(islice(source, CHUNK)):
        try:
            stamps = timestamps(chunk, time_index)
        except TypeError:  # a heartbeat has no time column to index
            low = 0
            for at, item in enumerate(chunk):
                if isinstance(item, Heartbeat):
                    if low < at:
                        rows = chunk[low:at]
                        yield from run(rows, timestamps(rows, time_index))
                    yield from beat(item.ts)
                    low = at + 1
            if low < len(chunk):
                rows = chunk[low:]
                yield from run(rows, timestamps(rows, time_index))
        else:
            yield from run(chunk, stamps)
    if anchor is not None:
        yield from drain_until(anchor + next_window * slide, eos=True)


def time_sliding_window(
    tuples: Iterable[tuple[Any, ...] | Heartbeat],
    spec: WindowSpec,
    time_index: int,
    start: float | None = None,
) -> Iterator[WindowBatch]:
    """Stream tuples into CQL window batches.

    ``start`` anchors the pulse grid; when omitted, the first tuple's
    timestamp is used (the window closing exactly at that instant fires
    first).  The interval is closed on both ends, matching the paper's
    ``[NOW - range, NOW]`` notation.  Windows are emitted as soon as event
    time passes their end (watermark = max seen timestamp, no lateness).

    >>> rows = [(float(t),) for t in range(5)]
    >>> batches = list(time_sliding_window(rows, WindowSpec(2, 1), 0))
    >>> [(b.window_id, len(b)) for b in batches][:3]
    [(0, 1), (1, 2), (2, 3)]
    """
    for pulse in time_window_pulses(tuples, spec, time_index, start):
        yield pulse.materialise()


def _previous_pulse(anchor: float, spec: WindowSpec, timestamp: float) -> float:
    """The latest pulse time strictly before ``timestamp``; ``-inf`` for
    a NaN or ``-inf`` timestamp, which is past no pulse instant."""
    if not timestamp > -math.inf:
        return -math.inf
    k = math.ceil((timestamp - anchor) / spec.slide_seconds) - 1
    return anchor + k * spec.slide_seconds


# ---------------------------------------------------------------------------
# Pane decomposition (incremental sliding-window execution)
# ---------------------------------------------------------------------------
#
# When ``range >> slide`` consecutive windows overlap almost entirely; the
# overlap decomposes into non-overlapping *panes* of width gcd(range, slide)
# so each tuple is processed once, when its pane first appears, and every
# window is the combination of its constituent panes (Li et al., "No pane,
# no gain").  The closed ``[end - range, end]`` CQL interval decomposes as
#
#   window k  =  panes [k*nps - npw, k*nps)  ∪  { tuples with ts == end }
#
# where panes are half-open ``[pane_start, pane_start + pane)`` intervals,
# ``npw = range/pane`` and ``nps = slide/pane``.  The trailing singleton is
# the window's *edge*: tuples exactly at the pulse instant, which belong to
# the not-yet-complete next pane.

#: Windows needing more panes than this are not worth slicing (and specs
#: whose exact rational gcd is tiny — e.g. 0.1 vs 0.3 in binary floats —
#: are excluded by the same bound).
MAX_PANES_PER_WINDOW = 4096


@dataclass(frozen=True, slots=True)
class PanePlan:
    """Pane decomposition of one window spec (``None``-able; see
    :func:`pane_plan`)."""

    pane_seconds: float
    panes_per_window: int
    panes_per_slide: int

    def window_panes(self, window_id: int) -> range:
        """Global ids of the complete panes of window ``window_id``.

        Pane ``j`` covers event time ``[anchor + j*pane, anchor +
        (j+1)*pane)``; ids are negative for the partial windows before the
        anchor.  The window's edge tuples (``ts == end``) sit at the start
        of pane ``window_id * panes_per_slide``, which is excluded here
        because it is not complete yet.
        """
        last = window_id * self.panes_per_slide
        return range(last - self.panes_per_window, last)


def pane_plan(spec: WindowSpec) -> PanePlan | None:
    """Pane decomposition for ``spec``, or ``None`` when not worthwhile.

    ``None`` when windows do not overlap (``range <= slide``: tumbling or
    sampling windows reuse nothing) or when the exact rational
    gcd(range, slide) yields more than :data:`MAX_PANES_PER_WINDOW` panes
    per window.  The gcd is computed over the *exact* binary values of the
    float parameters, so any spec that passes also has exactly
    representable pane arithmetic.
    """
    if spec.range_seconds <= spec.slide_seconds:
        return None
    fr = Fraction(spec.range_seconds)
    fs = Fraction(spec.slide_seconds)
    gcd = Fraction(
        math.gcd(fr.numerator * fs.denominator, fs.numerator * fr.denominator),
        fr.denominator * fs.denominator,
    )
    panes_per_window = fr / gcd
    panes_per_slide = fs / gcd
    if panes_per_window > MAX_PANES_PER_WINDOW:
        return None
    pane = float(gcd)
    npw, nps = int(panes_per_window), int(panes_per_slide)
    # The float round-trip must be exact, or pane boundaries would drift
    # off the window grid.
    if pane * npw != spec.range_seconds or pane * nps != spec.slide_seconds:
        return None
    return PanePlan(pane, npw, nps)


@dataclass(slots=True)
class PaneSlice:
    """The tuples of one materialised pane, in stream order.

    Edge slices (a window's ``ts == end`` tuples, cached per window id)
    reuse this shape and additionally record the window's exact ``end``
    so pane-served windows report the same pulse instant as batch-served
    ones.
    """

    pane_id: int
    tuples: list[tuple[Any, ...]]
    end: float = 0.0

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(slots=True)
class PaneWindow:
    """One window resolved into panes: the incremental execution view.

    ``panes`` are ordered oldest-first and cover ``[end - range, end)``;
    ``edge`` holds the tuples with ``ts == end`` exactly.  Concatenated,
    they reproduce the window's batch tuples in arrival order (the
    reader refuses to produce a :class:`PaneWindow` whenever arrival
    order and pane order could diverge).
    """

    window_id: int
    end: float
    panes: list[PaneSlice]
    edge: list[tuple[Any, ...]]

    def __len__(self) -> int:
        return sum(len(p) for p in self.panes) + len(self.edge)
