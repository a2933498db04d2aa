"""wCache: the shared window index.

The second core EXASTREAM UDF.  Quoting the paper: "wCache acts as an
index for answering efficiently equality constraints on the time column
when processing infinite streams ... WCache will then produce results to
multiple queries accessing different streams."

Concretely: many registered continuous queries read the *same* windowed
stream.  Without the cache each query re-materialises every window; with
it, the first reader pays the materialisation and later readers answer
``window_id = k`` lookups from the shared store.

The reader works on arrays, not tuple by tuple: each pulse carries its
fresh tuples' timestamps as one float64 array (see
:func:`~repro.streams.window.time_window_pulses`), pane slicing assigns
pane ids over that array with the same float expressions a per-tuple
loop would evaluate, and panes are list slices of the arrivals.  Only
tuples on a rounded grid boundary are placed one by one.

A reader checkpoints positions, not tuples: per pulse it keeps where
its window buffer starts and ends in the source and what it did at
that pulse, so a resumed reader re-reads the (rewindable) source and
re-runs the pulses that built what lagging queries can still read.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import compress
from typing import Any

import numpy as np

from .window import (
    PanePlan,
    PaneSlice,
    PaneWindow,
    PulseResume,
    WindowBatch,
    WindowPulse,
    WindowSpec,
    pane_plan,
    time_window_pulses,
    timestamps,
)

__all__ = ["WindowCacheStats", "WindowCache", "SharedWindowReader"]

_NO_STAMPS = np.empty(0)
_NO_PANES = np.empty(0, np.int64)
#: pane ids from float quotients at or past this are not exact
_EXACT_PANES = float(2**52)
#: what a reader did at a pulse (its position ring's flags): sliced its
#: panes, restarted the slicer before slicing, assembled its batch,
#: broke the pane path while slicing
_SLICED, _RESTART, _ASSEMBLED, _BROKE = 1, 2, 4, 8


@dataclass
class WindowCacheStats:
    """Hit/miss counters for the wCache ablation benchmark (E8).

    Window-batch and pane-slice lookups are counted separately so the
    existing batch hit-rate benchmarks stay meaningful under incremental
    execution (pane traffic is much chattier).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    materialised_tuples: int = 0
    pane_hits: int = 0
    pane_misses: int = 0
    pane_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def pane_hit_rate(self) -> float:
        total = self.pane_hits + self.pane_misses
        return self.pane_hits / total if total else 0.0

    @property
    def combined_hit_rate(self) -> float:
        """Hit rate over both stores — how much windowing work queries
        shared, whichever execution mode served them."""
        hits = self.hits + self.pane_hits
        total = hits + self.misses + self.pane_misses
        return hits / total if total else 0.0


class WindowCache:
    """An LRU store of window batches keyed by ``(stream, window_id)``.

    ``capacity`` bounds the number of cached batches; infinite streams
    need eviction, and sliding windows mean old ids are never asked for
    again once every query has moved past them.
    """

    def __init__(self, capacity: int = 1024, pane_capacity: int | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if pane_capacity is not None and pane_capacity <= 0:
            raise ValueError("pane capacity must be positive")
        self._capacity = capacity
        self._store: OrderedDict[tuple[str, int], WindowBatch] = OrderedDict()
        # Pane slices live in their own LRU store: one window decomposes
        # into many panes, and pane churn must not evict whole batches.
        self._pane_capacity = pane_capacity if pane_capacity is not None else 8 * capacity
        self._panes: OrderedDict[tuple[str, int], PaneSlice] = OrderedDict()
        self.stats = WindowCacheStats()

    def get(self, stream_name: str, window_id: int) -> WindowBatch | None:
        """Cached batch for the window, or ``None`` (counts hit/miss)."""
        key = (stream_name, window_id)
        batch = self._store.get(key)
        if batch is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._store.move_to_end(key)
        return batch

    def put(self, stream_name: str, batch: WindowBatch) -> None:
        """Insert a materialised batch, evicting LRU entries when full."""
        key = (stream_name, batch.window_id)
        if key not in self._store:
            self.stats.materialised_tuples += len(batch)
        self._store[key] = batch
        self._store.move_to_end(key)
        while len(self._store) > self._capacity:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    def get_pane(self, stream_name: str, pane_id: int) -> PaneSlice | None:
        """Cached pane slice, or ``None`` (counts pane hit/miss)."""
        key = (stream_name, pane_id)
        pane = self._panes.get(key)
        if pane is None:
            self.stats.pane_misses += 1
            return None
        self.stats.pane_hits += 1
        self._panes.move_to_end(key)
        return pane

    def put_pane(self, stream_name: str, pane: PaneSlice) -> None:
        """Insert a materialised pane slice, evicting LRU panes when full."""
        key = (stream_name, pane.pane_id)
        self._panes[key] = pane
        self._panes.move_to_end(key)
        while len(self._panes) > self._pane_capacity:
            self._panes.popitem(last=False)
            self.stats.pane_evictions += 1

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._store

    @property
    def capacity(self) -> int:
        """How many window batches the store keeps."""
        return self._capacity

    def restore_entries(self, entries: dict[str, list]) -> None:
        """Re-insert the batches and pane slices a checkpoint written
        before positions carried, through the normal put paths (capacity
        limits and eviction apply as usual)."""
        for (name, _), batch in entries["batches"]:
            self.put(name, batch)
        for (name, _), pane in entries["panes"]:
            self.put_pane(name, pane)


class SharedWindowReader:
    """Demand-driven windowing of one stream, shared across queries.

    The first query asking for window ``k`` advances the underlying
    pulse generator far enough to close it (a miss); subsequent queries
    for ``k`` are cache hits.  This is the execution-side face of the
    ``wCache`` UDF.

    The reader serves two views of every window:

    * :meth:`window` — the full CQL batch.  Batches are O(range) to
      assemble, so assembly is *demand-driven*: the first ``window()``
      call makes the reader assemble and cache batches at every
      subsequent pulse (the pre-pane behaviour).
    * :meth:`pane_view` — the pane decomposition for incremental
      execution.  Panes are sliced out of each pulse's O(slide) fresh
      tuples and cached, so no O(range) work happens per window at all.
      Whenever arrival order and pane order could diverge (late or
      out-of-order data), the reader permanently disables the pane path
      (``pane_view`` returns ``None``) and execution falls back to
      batches — output never depends on which view served a window.
    """

    def __init__(
        self,
        stream_name: str,
        tuples: Iterator[tuple[Any, ...]] | Callable[[], Iterator[tuple[Any, ...]]],
        spec: WindowSpec,
        time_index: int,
        cache: WindowCache,
        start: float | None = None,
    ) -> None:
        source = tuples() if callable(tuples) else tuples
        self._pulses = time_window_pulses(source, spec, time_index, start)
        self._stream_name = stream_name
        self._edge_name = f"{stream_name}@edge"
        self._cache = cache
        self._spec = spec
        self._time_index = time_index
        self._pane_plan: PanePlan | None = pane_plan(spec)
        self._pane_broken = False
        #: pane slicing is demand-gated like batch assembly: recompute-only
        #: consumers never pay per-tuple pane assignment or slice churn.
        #: Engine-bound pane consumers hold counted references
        #: (``_pane_refs``); direct :meth:`pane_view` callers latch
        #: slicing on instead (``_pane_latched``), preserving the
        #: original fire-and-forget behaviour.
        self._pane_refs = 0
        self._pane_latched = False
        #: last pulse whose pane/edge slicing completed — windows up to
        #: here stay pane-servable even after a later break
        self._pane_valid_until = -1
        self._next_pane: int | None = None
        self._carry: list = []  # previous pulse's edge (next pane's head)
        self._carry_stamps = _NO_STAMPS
        self._exhausted = False
        self._max_seen = -1
        self._last_pulse: WindowPulse | None = None
        #: where a replay can restart: one (buffer offset, processed,
        #: what-this-pulse-did flags) triple per pulse from pulse
        #: ``_ring_base`` on; pulse -1 stands for the source's start.
        #: It spans every window the batch store could still hold, plus
        #: the pulses that sliced those windows' panes.
        self._ring = array("q", (0, 0, 0))
        self._ring_base = -1
        self._ring_limit = 3 * (cache.capacity + self._lead() + 2)
        #: batch-demand *reference count*: while positive, every pulse
        #: assembles and caches its O(range) window batch.  Batch-driven
        #: consumers take a reference at bind and release it when they
        #: deregister (the gateway's reader-release path), so a surviving
        #: pane-incremental query regains its no-batch property instead
        #: of paying for a departed recompute query forever.
        self._batch_refs = 0

    @property
    def stream_name(self) -> str:
        return self._stream_name

    @property
    def spec(self) -> WindowSpec:
        return self._spec

    @property
    def time_index(self) -> int:
        return self._time_index

    @property
    def pane_plan(self) -> PanePlan | None:
        """The spec's pane decomposition (``None``: not pane-capable)."""
        return self._pane_plan

    @property
    def pane_broken(self) -> bool:
        """True once the pane path is permanently disabled (late or
        out-of-order data): every later window falls back to batches."""
        return self._pane_broken

    @property
    def batch_demand(self) -> int:
        """Live batch-demand references (0: no per-pulse assembly)."""
        return self._batch_refs

    def demand_batches(self) -> None:
        """Take one batch-demand reference (see :meth:`release_batches`)."""
        self._batch_refs += 1

    def release_batches(self) -> None:
        """Drop one batch-demand reference.

        At zero the reader stops assembling batches at every pulse;
        individual windows are still servable on demand (from the live
        pulse buffer or cached panes), so an occasional fallback window
        never needs a standing reference.
        """
        if self._batch_refs > 0:
            self._batch_refs -= 1

    @property
    def pane_demand(self) -> int:
        """Live counted pane-demand references (direct ``pane_view``
        consumers latch slicing on without a reference)."""
        return self._pane_refs

    @property
    def _pane_demanded(self) -> bool:
        return self._pane_refs > 0 or self._pane_latched

    def demand_panes(self) -> None:
        """Take one pane-demand reference (see :meth:`release_panes`).

        Pane-driven runtimes call this at bind time, before the reader
        advances, so slicing covers the stream from the first pulse.
        Demanded later (e.g. an incremental query joining an
        already-advanced shared reader), slicing starts at the current
        pulse and the first windows fall back to batches until the pane
        ring spans a full window.
        """
        self._pane_refs += 1

    def release_panes(self) -> None:
        """Drop one pane-demand reference.

        At zero (and with no direct-consumer latch) the reader stops
        per-tuple pane assignment and resets the slicer, so pulses
        consumed while nobody wants panes cost nothing.  Re-demanding
        later warms up exactly like a mid-stream :meth:`demand_panes`:
        the unsliced region's panes are simply absent from the cache and
        windows touching it fall back to batches — never served
        incomplete.
        """
        if self._pane_refs > 0:
            self._pane_refs -= 1
        if not self._pane_demanded:
            self._reset_slicer()

    def _reset_slicer(self) -> None:
        self._next_pane = None
        self._carry = []
        self._carry_stamps = _NO_STAMPS

    # -- pulse advancement --------------------------------------------------

    def _advance(self) -> WindowBatch | None:
        """Consume one pulse; returns the batch when assembly is on."""
        pulse = self._next_pulse()
        if pulse is None:
            return None
        if (
            self._pane_demanded
            and self._pane_plan is not None
            and not self._pane_broken
        ):
            self._slice_pulse(pulse)
        if self._batch_refs:
            return self._assemble(pulse)
        return None

    def _next_pulse(self) -> WindowPulse | None:
        """The generator's next pulse (the cut and buffer eviction), or
        ``None`` once the stream is exhausted."""
        try:
            pulse = next(self._pulses)
        except StopIteration:
            self._exhausted = True
            return None
        self._last_pulse = pulse
        self._max_seen = pulse.window_id
        ring = self._ring
        ring.extend((pulse.offset, pulse.processed, 0))
        if len(ring) > 2 * self._ring_limit:
            cut = len(ring) - self._ring_limit
            del ring[:cut]
            self._ring_base += cut // 3
        return pulse

    def _assemble(self, pulse: WindowPulse) -> WindowBatch:
        """Materialise ``pulse`` (always the newest pulse)'s batch and
        cache it."""
        self._ring[-1] |= _ASSEMBLED
        batch = pulse.materialise()
        self._cache.put(self._stream_name, batch)
        return batch

    def _slice_pulse(self, pulse: WindowPulse) -> None:
        """Assign the pulse's fresh tuples to panes / edge / carry.

        Each tuple is examined once across all pulses, as one element of
        the pulse's float64 timestamp array: pane ids come from the
        array arithmetic ``edge_pane - ceil((end - ts) / pane)``, and the
        four grid-boundary tests run element-wise with the batch path's
        own float expressions (numpy rounds every element exactly as the
        Python expression would).  Only the tuples those tests flag go
        one by one through :meth:`_corrected_pane`; panes are then list
        slices of the arrivals.  The pane path requires arrival order to
        agree with pane order — any late or pane-crossing out-of-order
        tuple that a future batch would still contain breaks the
        invariant, and the reader falls back to batches for good.  Every
        break leaves the same state, so the tests need not run in
        arrival order.  A non-finite timestamp breaks it too: batches
        leave such a tuple out of every window, panes cannot place it.
        """
        self._ring[-1] |= _SLICED if self._next_pane is not None else _SLICED | _RESTART
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
        first = self._next_pane
        if self._carry:
            arrivals = self._carry + pulse.fresh
            stamps = np.concatenate((self._carry_stamps, pulse.fresh_stamps))
        else:
            arrivals, stamps = pulse.fresh, pulse.fresh_stamps
        if arrivals:
            # ``ts == end`` — the window's edge, bitwise — gives
            # ``end - ts == 0`` and so the edge pane: the edge is the
            # pulse's newest position, and any later arrival for an
            # older pane is disorder (checked below).
            quotients = np.ceil((end - stamps) / plan.pane_seconds)
            if not ((stamps <= end) & (quotients < _EXACT_PANES)).all():
                # A NaN or infinite timestamp, one so far back that its
                # pane id is not exact in float64, or a tuple past the
                # window's end (unreachable for the current pulse
                # generator: a tuple past a window's end triggers that
                # window's drain before it is appended).  Batches test
                # every window bound directly, so fall back to them.
                self._break_panes()
                return
            panes = edge_pane - quotients.astype(np.int64)
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
            # silently diverging.  The window numbers are below 2**53,
            # so numpy's int64-times-float rounds as Python's does.
            first_w = -((-(panes + 1)) // nps)
            last_w = (panes + npw) // nps
            flagged = (stamps != end) & (
                (stamps > anchor + first_w * slide)
                | (stamps < anchor + (first_w - 1) * slide)
                | (stamps < (anchor + last_w * slide) - range_s)
                | (stamps >= (anchor + (last_w + 1) * slide) - range_s)
            )
            for at in np.flatnonzero(flagged).tolist():
                pane = self._corrected_pane(arrivals[at][self._time_index], anchor)
                if pane is None:
                    self._break_panes()
                    return
                panes[at] = pane
            kept = panes >= first
            if not warmup and (stamps[~kept] >= begin).any():
                # late data into an already-finalised pane: future
                # batches see it, finalised panes cannot
                self._break_panes()
                return
            if not kept.all():
                # pre-window history (provably in no window), or tuples
                # of panes that passed before slicing was demanded
                arrivals = list(compress(arrivals, kept.tolist()))
                panes, stamps = panes[kept], stamps[kept]
            if (panes[1:] < panes[:-1]).any():
                # pane-crossing disorder: pane order != arrival order
                self._break_panes()
                return
        else:
            panes = _NO_PANES
        cuts = panes.searchsorted(np.arange(first, edge_pane + 1)).tolist()
        for pane_id, low, high in zip(range(first, edge_pane), cuts, cuts[1:]):
            self._cache.put_pane(
                self._stream_name, PaneSlice(pane_id, arrivals[low:high])
            )
        edge = arrivals[cuts[-1]:]
        self._cache.put_pane(
            self._edge_name, PaneSlice(pulse.window_id, edge, end=end)
        )
        self._carry = edge  # also the head of the next pane
        self._carry_stamps = stamps[cuts[-1]:]
        self._next_pane = edge_pane
        self._pane_valid_until = pulse.window_id

    def _break_panes(self) -> None:
        """Fall back to batches for good.  A break puts no slice, and
        the carry is dead from here on; the ring remembers the pulse, as
        a replay that restarts the slicer there cannot re-derive it."""
        self._pane_broken = True
        self._carry = []
        self._carry_stamps = _NO_STAMPS
        self._ring[-1] |= _BROKE

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

    # -- window views -------------------------------------------------------

    def window(self, window_id: int) -> WindowBatch | None:
        """Fetch window ``window_id``'s batch, advancing as needed.

        With live batch demand (:meth:`demand_batches`), advancing
        assembles and caches a batch at every pulse.  Without it, the
        reader advances batch-free and serves just the requested window
        from the live pulse buffer — an ad-hoc fallback window does not
        commit every later pulse to O(range) assembly.

        Returns ``None`` when the stream ends before that window closes or
        when the window was already evicted (a query lagging too far).
        """
        cached = self._cache.get(self._stream_name, window_id)
        if cached is not None:
            return cached
        if window_id <= self._max_seen or self._exhausted:
            if (
                self._last_pulse is not None
                and window_id == self._last_pulse.window_id
            ):
                # Current pulse advanced by a pane consumer: the live
                # buffer still covers it (pane fallback path).
                return self._assemble(self._last_pulse)
            return self._assemble_from_panes(window_id)
        while self._max_seen < window_id:
            batch = self._advance()
            if self._exhausted:
                return None
            if batch is not None and batch.window_id == window_id:
                return batch
        if (
            self._last_pulse is not None
            and window_id == self._last_pulse.window_id
        ):
            # advanced without batch demand: serve this one window from
            # the live buffer (and cache it for lagging readers)
            return self._assemble(self._last_pulse)
        return self._assemble_from_panes(window_id)

    def _assemble_from_panes(self, window_id: int) -> WindowBatch | None:
        """Rebuild an already-passed window's batch from cached panes.

        Pane concatenation order equals arrival order (the pane-path
        invariant), so the rebuilt batch is exactly the one ``window()``
        would have assembled at pulse time.
        """
        plan = self._pane_plan
        if plan is None or window_id > self._pane_valid_until:
            return None
        view = self._pane_window(window_id)
        if view is None:
            return None
        end = view.end
        tuples: list = []
        for pane in view.panes:
            tuples.extend(pane.tuples)
        tuples.extend(view.edge)
        batch = WindowBatch(window_id, end - self._spec.range_seconds, end, tuples)
        self._cache.put(self._stream_name, batch)
        return batch

    def pane_view(self, window_id: int) -> PaneWindow | None:
        """The pane decomposition of window ``window_id``.

        Advances the pulse generator as needed **without** assembling
        batches.  Returns ``None`` when the pane path is unavailable —
        non-decomposable spec, order violations, evicted panes, or the
        stream ending first — and the caller falls back to
        :meth:`window`.
        """
        if self._pane_plan is None:
            return None
        if self._pane_refs == 0:
            self._pane_latched = True  # direct consumers demand implicitly
        while (
            self._max_seen < window_id
            and not self._exhausted
            and not self._pane_broken
        ):
            self._advance()
        if window_id > self._pane_valid_until:
            # past the break point (or the stream's end): fall back —
            # windows sliced before a break stay pane-servable
            return None
        return self._pane_window(window_id)

    def _pane_window(self, window_id: int) -> PaneWindow | None:
        plan = self._pane_plan
        edge = self._cache.get_pane(self._edge_name, window_id)
        if edge is None:
            return None
        slices: list[PaneSlice] = []
        for pane_id in plan.window_panes(window_id):
            cached = self._cache.get_pane(self._stream_name, pane_id)
            if cached is None:
                return None  # evicted: the caller recomputes
            slices.append(cached)
        return PaneWindow(
            window_id=window_id, end=edge.end, panes=slices, edge=edge.tuples
        )

    def all_windows(self) -> Iterator[WindowBatch]:
        """Iterate every remaining window (also populating the cache)."""
        window_id = self._max_seen + 1
        while True:
            batch = self.window(window_id)
            if batch is None:
                return
            yield batch
            window_id += 1

    # -- checkpoint / resume ------------------------------------------------

    def _lead(self) -> int:
        """Pulses before window ``w``'s own whose slicing put panes
        ``w`` reads (``ceil(panes_per_window / panes_per_slide)``)."""
        plan = self._pane_plan
        return 0 if plan is None else -(-plan.panes_per_window // plan.panes_per_slide)

    def snapshot_state(self, floor: int = 0) -> dict[str, Any] | None:
        """Picklable mid-stream position, or ``None`` if the reader has
        never advanced (a freshly constructed reader reproduces it).

        The state holds source positions and the slicer's small state,
        no tuple.  ``offset`` and ``processed`` are the last pulse's
        source item offsets: its buffer is the rows among items
        ``[offset, processed)``.  To rebuild what a query at window
        ``floor`` or later can still read from the cache — batches,
        edge slices and the panes of those windows — the state also
        names the pulse to replay from (``replay_from``), the positions
        after the pulse before it (``resume``) and, per replayed pulse,
        what this reader did at it (``flags``: sliced it, restarted the
        slicer first, assembled its batch).  Demand refcounts are *not*
        part of the state: they are re-derived when runtimes rebind
        after recovery (and audited against the checkpoint).
        """
        pulse = self._last_pulse
        if pulse is None and not self._exhausted:
            return None
        after = min(max(floor - 1 - self._lead(), self._ring_base), self._max_seen)
        ring = self._ring[3 * (after - self._ring_base):]
        return {
            "exhausted": self._exhausted,
            "max_seen": self._max_seen,
            "pane_broken": self._pane_broken,
            "pane_latched": self._pane_latched,
            "pane_valid_until": self._pane_valid_until,
            "next_pane": self._next_pane,
            "anchor": None if pulse is None else pulse.anchor,
            "offset": ring[-3],
            "processed": ring[-2],
            "replay_from": after + 1,
            "resume": (ring[0], ring[1]),
            "flags": bytes(ring[5::3].tolist()),
        }

    @classmethod
    def resume(
        cls,
        stream_name: str,
        tuples: Iterator[tuple[Any, ...]] | Callable[[], Iterator[tuple[Any, ...]]],
        spec: WindowSpec,
        time_index: int,
        cache: WindowCache,
        state: dict[str, Any],
        start: float | None = None,
    ) -> SharedWindowReader:
        """Rebuild a reader mid-stream from :meth:`snapshot_state`.

        ``tuples`` must replay the *same* source from the beginning
        (sources rewind: see :class:`~repro.streams.StreamSource`).  The
        reader re-reads the source from the checkpointed positions and
        re-runs the pulses from ``replay_from`` on as the checkpointed
        reader ran them, which rebuilds its live buffer, its slicer and
        every cache entry those pulses put; the restarted pulse
        generator then yields exactly the pulses the original had not
        produced yet.  A state written before positions (it carries its
        pulse buffer) resumes from that buffer instead.
        """
        reader = cls(stream_name, iter(()), spec, time_index, cache, start)
        source = tuples() if callable(tuples) else tuples
        reader._pane_latched = state["pane_latched"]
        if "pulse" in state:
            reader._resume_buffer(source, state)
        elif state["anchor"] is not None:
            offset, processed = state["resume"]
            after = state["replay_from"] - 1
            reader._pulses = time_window_pulses(
                source, spec, time_index, start,
                resume=PulseResume(state["anchor"], after + 1, offset, processed),
            )
            reader._ring = array("q", (offset, processed, 0))
            reader._ring_base = after
            reader._replay(state["flags"])
        reader._exhausted = state["exhausted"]
        reader._max_seen = state["max_seen"]
        reader._pane_broken = state["pane_broken"]
        reader._pane_valid_until = state["pane_valid_until"]
        if state["next_pane"] is None:
            reader._reset_slicer()  # released after its last pulse
        reader._next_pane = state["next_pane"]
        return reader

    def _replay(self, flags: bytes) -> None:
        """Re-run one pulse per entry of ``flags`` as the checkpointed
        reader ran it.  The first replayed pulse restarts the slicer:
        its older-pane tuples went into panes before the replay, and
        the edge it slices carries into the next pane."""
        for at, flag in enumerate(flags):
            pulse = self._next_pulse()
            if pulse is None:
                return
            if flag & _BROKE:
                self._break_panes()
            elif flag & _SLICED and not self._pane_broken:
                if at == 0 or flag & _RESTART:
                    self._reset_slicer()
                self._slice_pulse(pulse)
            if flag & _ASSEMBLED:
                self._assemble(pulse)

    def _resume_buffer(self, source: Iterator, state: dict[str, Any]) -> None:
        """Resume from a state that carries its last pulse's buffer and
        the slicer's carry (written before checkpoints held positions)."""
        pulse_state = state["pulse"]
        self._carry = list(state["carry"])
        self._carry_stamps = timestamps(self._carry, self._time_index)
        if pulse_state is None:
            return
        self._pulses = time_window_pulses(
            source, self._spec, self._time_index,
            resume=PulseResume(
                pulse_state["anchor"], pulse_state["window_id"] + 1,
                processed=pulse_state["processed"], eos=pulse_state["eos"],
                buffer=pulse_state["buffer"],
            ),
        )
        # window() can still serve the checkpointed window from the
        # restored live buffer
        pulse = self._last_pulse = WindowPulse.restored(
            pulse_state["window_id"],
            pulse_state["start"],
            pulse_state["end"],
            pulse_state["buffer"],
            self._time_index,
            pulse_state["anchor"],
            pulse_state["processed"],
            pulse_state["eos"],
        )
        self._ring = array("q", (pulse.offset, pulse.processed, 0))
        self._ring_base = pulse.window_id
