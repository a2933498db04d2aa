"""The frozen oracle for the stream reader.

This is the per-tuple pulse generator and pane slicer the stream reader
was before it worked a chunk at a time: ``time_window_pulses`` (with
``drain_until``) from ``repro.streams.window`` and ``_slice_pulse`` /
``_corrected_pane`` from ``repro.streams.wcache.SharedWindowReader``,
moved verbatim.  ``OraclePulse`` is the old ``WindowPulse`` (a live
``deque`` buffer), and ``OracleReader`` carries exactly the reader state
those methods read and write, with the old ``_advance`` /
``release_panes`` bookkeeping around them.  The chunked reader must
agree with it on every pulse, every pane and edge slice, the pulse the
pane path breaks at and ``pane_valid_until``; do not optimise or "fix"
this file — a disagreement is a bug in the reader, or a semantic change
that has to be made deliberately and on its own.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.streams.window import (
    Heartbeat,
    PanePlan,
    PaneSlice,
    PulseResume,
    WindowBatch,
    WindowSpec,
    pane_plan,
)

__all__ = ["OraclePulse", "OracleReader", "time_window_pulses"]


@dataclass(slots=True)
class OraclePulse:
    """The per-tuple generator's pulse: ``buffer`` is its live deque."""

    window_id: int
    start: float
    end: float
    fresh: list[tuple[Any, ...]]
    buffer: deque[tuple[Any, ...]]
    anchor: float = 0.0
    processed: int = 0
    eos: bool = False

    def materialise(self, time_index: int) -> WindowBatch:
        """Assemble the full CQL batch from the live buffer (O(range))."""
        start, end = self.start, self.end
        contents = [t for t in self.buffer if start <= t[time_index] <= end]
        return WindowBatch(self.window_id, start, end, contents)


def time_window_pulses(
    tuples: Iterable[tuple[Any, ...] | Heartbeat],
    spec: WindowSpec,
    time_index: int,
    start: float | None = None,
    resume: PulseResume | None = None,
) -> Iterator[OraclePulse]:
    """Stream tuples into window pulses (the lazy core of
    :func:`time_sliding_window`).

    ``start`` anchors the pulse grid; when omitted, the first tuple's
    timestamp is used (the window closing exactly at that instant fires
    first).  Windows are emitted as soon as event time passes their end
    (watermark = max seen timestamp, no lateness).

    ``resume`` restarts the generator mid-stream from checkpointed
    state: the caller skips ``resume.processed`` source items and the
    generator continues as if it had consumed them itself.  A pulse's
    triggering item is never counted as processed, so re-reading it
    re-yields exactly the pulses the pre-checkpoint run had not yet
    delivered — byte-identical to an uninterrupted run.
    """
    if resume is not None and resume.eos:
        return
    buffer: deque[tuple[Any, ...]] = (
        deque(resume.buffer) if resume is not None else deque()
    )
    fresh: list[tuple[Any, ...]] = []
    anchor: float | None = resume.anchor if resume is not None else start
    next_window = resume.next_window if resume is not None else 0
    processed = resume.processed if resume is not None else 0

    def drain_until(watermark: float, eos: bool = False) -> Iterator[OraclePulse]:
        nonlocal next_window, fresh
        assert anchor is not None
        while anchor + next_window * spec.slide_seconds <= watermark:
            end = anchor + next_window * spec.slide_seconds
            begin = end - spec.range_seconds
            while buffer and buffer[0][time_index] < begin:
                buffer.popleft()
            delivered, fresh = fresh, []
            yield OraclePulse(
                next_window, begin, end, delivered, buffer, anchor, processed, eos
            )
            next_window += 1

    for item in tuples:
        if isinstance(item, Heartbeat):
            if anchor is None:
                anchor = item.ts
            if item.ts > anchor + next_window * spec.slide_seconds:
                yield from drain_until(_previous_pulse(anchor, spec, item.ts))
            processed += 1
            continue
        timestamp = item[time_index]
        if anchor is None:
            anchor = timestamp
        # Close every window strictly before this event's time.
        if timestamp > anchor + next_window * spec.slide_seconds:
            yield from drain_until(
                _previous_pulse(anchor, spec, timestamp)
            )
        buffer.append(item)
        fresh.append(item)
        processed += 1
    if anchor is not None:
        yield from drain_until(
            anchor + next_window * spec.slide_seconds, eos=True
        )


def _previous_pulse(anchor: float, spec: WindowSpec, timestamp: float) -> float:
    """The latest pulse time strictly before ``timestamp``."""
    k = math.ceil((timestamp - anchor) / spec.slide_seconds) - 1
    return anchor + k * spec.slide_seconds


class _PaneLog:
    """Stands in for the reader's ``WindowCache``: records every
    ``put_pane`` as ``(name, pane_id, tuples, end)``."""

    def __init__(self) -> None:
        self.puts: list[tuple[str, int, list, float]] = []

    def put_pane(self, stream_name: str, pane: PaneSlice) -> None:
        self.puts.append((stream_name, pane.pane_id, list(pane.tuples), pane.end))


class OracleReader:
    """The per-tuple reader's pulse and slicing state machine.

    ``advance()`` is the old ``SharedWindowReader._advance`` minus batch
    assembly (``OraclePulse.materialise`` is the oracle for that);
    ``demand_panes()`` / ``release_panes()`` are the old refcounted
    demand switches.  Pane and edge slices land in ``cache.puts``.
    """

    def __init__(
        self,
        stream_name: str,
        tuples: Iterable[tuple[Any, ...] | Heartbeat],
        spec: WindowSpec,
        time_index: int,
        start: float | None = None,
    ) -> None:
        self._pulses = time_window_pulses(iter(tuples), spec, time_index, start)
        self._stream_name = stream_name
        self._edge_name = f"{stream_name}@edge"
        self._cache = _PaneLog()
        self._spec = spec
        self._time_index = time_index
        self._pane_plan: PanePlan | None = pane_plan(spec)
        self._pane_broken = False
        self._pane_refs = 0
        self._pane_valid_until = -1
        self._next_pane: int | None = None
        self._carry: list = []
        self.exhausted = False

    @property
    def cache(self) -> _PaneLog:
        return self._cache

    @property
    def pane_broken(self) -> bool:
        return self._pane_broken

    @property
    def pane_valid_until(self) -> int:
        return self._pane_valid_until

    def demand_panes(self) -> None:
        self._pane_refs += 1

    def release_panes(self) -> None:
        if self._pane_refs > 0:
            self._pane_refs -= 1
        if self._pane_refs == 0:
            self._next_pane = None
            self._carry = []

    def advance(self) -> OraclePulse | None:
        try:
            pulse = next(self._pulses)
        except StopIteration:
            self.exhausted = True
            return None
        if (
            self._pane_refs > 0
            and self._pane_plan is not None
            and not self._pane_broken
        ):
            self._slice_pulse(pulse)
        return pulse

    def _slice_pulse(self, pulse: OraclePulse) -> None:
        """Assign the pulse's fresh tuples to panes / edge / carry.

        Each tuple is examined once across all pulses.  The pane path
        requires arrival order to agree with pane order — any late or
        pane-crossing out-of-order tuple that a future batch would still
        contain breaks the invariant, and the reader falls back to
        batches for good.
        """
        plan = self._pane_plan
        begin, end = pulse.start, pulse.end
        anchor = pulse.anchor
        nps, npw = plan.panes_per_slide, plan.panes_per_window
        slide = self._spec.slide_seconds
        range_s = self._spec.range_seconds
        edge_pane = pulse.window_id * nps
        # Slicing demanded mid-stream starts with an empty ring: this
        # pulse's older-pane tuples are pre-demand history (skipped
        # below, their windows fall back to batches), not late data.
        warmup = self._next_pane is None and pulse.window_id != 0
        if self._next_pane is None:
            # At the stream's first pulse every tuple so far is still in
            # the arrivals, so the whole first window backfills; a
            # mid-stream start must not fabricate empty panes for
            # regions whose tuples already passed.
            self._next_pane = (
                edge_pane - npw if pulse.window_id == 0 else edge_pane
            )
        built: dict[int, list] = {
            j: [] for j in range(self._next_pane, edge_pane)
        }
        edge: list = []
        carry: list = []
        last_pane = self._next_pane
        pane_width = plan.pane_seconds
        time_index = self._time_index
        ceil = math.ceil
        arrivals = (self._carry + pulse.fresh) if self._carry else pulse.fresh
        for item in arrivals:
            ts = item[time_index]
            if ts > end:
                # Unreachable for the current pulse generator (a tuple
                # past a window's end triggers that window's drain before
                # it is appended, so fresh tuples never outrun their
                # delivering pulse); guard conservatively anyway.
                self._pane_broken = True
                return
            if ts == end:  # the window's edge, bitwise
                edge.append(item)
                carry.append(item)  # also the head of the next pane
                # the edge is the pulse's newest position: any later
                # arrival for an older pane is disorder (checked below)
                last_pane = edge_pane
                continue
            pane_id = edge_pane - ceil((end - ts) / pane_width)
            # Pane membership must agree with the batch path's
            # ``begin_w <= ts <= end_w`` tests — which use rounded float
            # grid arithmetic — for *every* window.  Both paths' window
            # sets are contiguous ranges, so agreement at the four
            # boundary windows of pane ``pane_id`` implies agreement
            # everywhere (``ts == end`` of the window before the pane's
            # first is fine: the edge slice serves that window).  When
            # the division guess disagrees by an ulp — e.g. tuples on
            # rounded boundaries of a non-pane-aligned grid — re-derive
            # the pane from the batch expressions themselves instead of
            # silently diverging.
            first_w = -((-(pane_id + 1)) // nps)
            last_w = (pane_id + npw) // nps
            if (
                ts > anchor + first_w * slide
                or ts < anchor + (first_w - 1) * slide
                or ts < (anchor + last_w * slide) - range_s
                or ts >= (anchor + (last_w + 1) * slide) - range_s
            ):
                corrected = self._corrected_pane(ts, anchor)
                if corrected is None:
                    self._pane_broken = True
                    return
                pane_id = corrected
            if pane_id < self._next_pane:
                if ts >= begin and not warmup:
                    # late data into an already-finalised pane: future
                    # batches see it, finalised panes cannot
                    self._pane_broken = True
                    return
                # pre-window history (provably in no window), or tuples
                # of panes that passed before slicing was demanded
                continue
            if pane_id < last_pane:
                # pane-crossing disorder: pane order != arrival order
                self._pane_broken = True
                return
            last_pane = pane_id
            built[pane_id].append(item)
        for pane_id, contents in built.items():
            self._cache.put_pane(
                self._stream_name, PaneSlice(pane_id, contents)
            )
        self._cache.put_pane(
            self._edge_name, PaneSlice(pulse.window_id, edge, end=end)
        )
        self._carry = carry
        self._next_pane = edge_pane
        self._pane_valid_until = pulse.window_id

    def _corrected_pane(self, ts: float, anchor: float) -> int | None:
        """Exact pane for a timestamp whose division guess disagreed with
        the batch path's window tests.

        Re-derives the tuple's true window range ``[first_w, last_w]``
        using the identical rounded float expressions batch assembly
        evaluates (``end_w = anchor + w*slide``; ``begin_w = end_w -
        range``), then picks the lowest pane id implying exactly that
        range.  ``None`` when no pane does — a genuine boundary anomaly,
        and the caller falls back to batches.
        """
        plan = self._pane_plan
        slide = self._spec.slide_seconds
        range_s = self._spec.range_seconds
        nps, npw = plan.panes_per_slide, plan.panes_per_window
        # smallest window the pane must cover: the first with ts <= end_w
        # — unless ts is exactly that window's end, which the edge slice
        # serves, so pane coverage starts one window later
        w = math.ceil((ts - anchor) / slide)
        while ts > anchor + w * slide:
            w += 1
        while ts <= anchor + (w - 1) * slide:
            w -= 1
        first_w = w + 1 if ts == anchor + w * slide else w
        # largest window with begin_w <= ts
        w = math.floor((ts + range_s - anchor) / slide)
        while (anchor + w * slide) - range_s > ts:
            w -= 1
        while (anchor + (w + 1) * slide) - range_s <= ts:
            w += 1
        last_w = w
        # panes whose window range is exactly [first_w, last_w]
        low = max((first_w - 1) * nps, last_w * nps - npw)
        high = min(first_w * nps - 1, last_w * nps - npw + nps - 1)
        if low > high:
            return None
        return low
