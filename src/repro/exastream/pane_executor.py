"""The pane tier: a window as the combination of its panes' partials.

For PANE-INCREMENTAL plans the per-pane pipeline (load, filter pushdown,
stream-static join probe, partial aggregation) runs exactly once per
pane, and each window combines the partial state of its constituent
panes — O(slide) instead of O(range) pipeline work per window.

:class:`TierExecutor` is what a :class:`~repro.exastream.engine.PlanRuntime`
holds as its "current tier": it owns the tier's rings, its lazily built
decomposition context, its ring-reuse stats and its checkpoint image.
The per-pane *pipeline* (and the span/histogram instrumentation around
each step) stays in the runtime, shared with the recompute path, so
per-row semantics are identical on every tier by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..sql import Expr
from .operators import accumulator_factory
from .partial_agg import CombinerSpec, finalize_rows, plan_combiner
from .plan import AggregateCall, WindowedStreamRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import PlanRuntime

__all__ = ["PartialContext", "TierExecutor", "PaneExecutor"]


@dataclass
class PartialContext:
    """The partial decomposition of a plan's aggregation plus the
    accumulator factory of each partial call."""

    partial_calls: list[AggregateCall]
    factories: list
    combiner: CombinerSpec
    group_by: tuple[Expr, ...]

    @classmethod
    def of(cls, plan) -> PartialContext:
        partial_calls, combiner = plan_combiner(plan)
        return cls(
            partial_calls=partial_calls,
            factories=[accumulator_factory(c.function) for c in partial_calls],
            combiner=combiner,
            group_by=plan.aggregate.group_by,
        )

    def final_row(self, key: tuple, partial) -> tuple:
        """One group's output row from its window-combined partials
        (``partial(i)``: partial call ``i`` folded over the window)."""
        values: list[Any] = list(key)
        for final in self.combiner.finals:
            if final.function == "AVG":
                sum_i, count_i = final.partial_indexes
                count = partial(count_i)
                values.append(partial(sum_i) / count if count else None)
            else:
                values.append(partial(final.partial_indexes[0]))
        return tuple(values)


class TierExecutor:
    """One incremental execution tier over the runtime's shared pipeline.

    ``execute`` serves a window from pane views or reports a miss
    (``None``); the runtime recomputes missed windows and retires the
    tier for good once :meth:`broken` says a miss is permanent.

    A tier provides ``_combine_window(views) -> (rows, columns)``;
    ``snapshot()`` / ``restore(state)``, its rings under their
    ``PlanRuntime.snapshot_state()`` keys; and ``ring_bounds()``, one
    ``(ring name, live pane ids, bounding window spec)`` per ring for
    the audit verifier's eviction check.
    """

    #: which path produced the window (metrics and trace attribute)
    path = ""

    def __init__(
        self, runtime: PlanRuntime, refs: list[WindowedStreamRef]
    ) -> None:
        self.runtime = runtime
        self.refs = refs
        #: the pane-sliced readers, one per windowed input (a self-join
        #: lists its shared reader twice and holds two demand references)
        self.readers = [runtime.readers[ref.reader_key] for ref in refs]
        #: ``(reused, fresh, panes)`` tuple counts of the last window
        self.stats: tuple[int, int, int] | None = None

    def broken(self) -> bool:
        """Disorder on any input disables pane slicing permanently."""
        return any(reader.pane_broken for reader in self.readers)

    def execute(
        self, window_id: int
    ) -> tuple[list[tuple], list[str], float] | None:
        """``(rows, columns, window end)``, or ``None`` on a miss
        (warm-up, eviction, stream end or a pane break)."""
        views = [reader.pane_view(window_id) for reader in self.readers]
        if any(view is None for view in views):
            return None
        self.runtime.metrics.tuples_in += sum(len(view) for view in views)
        rows, columns = self._combine_window(views)
        return rows, columns, views[-1].end

    @staticmethod
    def _reuse(views: list, rings) -> tuple[int, int, int]:
        """``(reused, fresh, panes)`` tuple counts of one window: a pane
        already resident in its ring counts as reused."""
        reused = fresh = panes = 0
        for view, ring in zip(views, rings):
            panes += len(view.panes)
            for pane in view.panes:
                if pane.pane_id in ring:
                    reused += len(pane.tuples)
                else:
                    fresh += len(pane.tuples)
        return reused, fresh, panes

    @staticmethod
    def _evict(ring: dict[int, Any], low: int) -> None:
        # Panes that slid out of range never come back (window ids are
        # monotonically non-decreasing): keep exactly one window's worth.
        for pane_id in [j for j in ring if j < low]:
            del ring[pane_id]


class PaneExecutor(TierExecutor):
    """Single-stream pane aggregation (PANE-INCREMENTAL plans)."""

    path = "incremental"

    def __init__(self, runtime: PlanRuntime) -> None:
        super().__init__(runtime, runtime.plan.windows[:1])
        #: pane id -> {group key -> per-partial-call payload tuple}
        self.ring: dict[int, dict[tuple, tuple]] = {}
        self._ctx: PartialContext | None = None

    def snapshot(self) -> dict:
        return {"pane_ring": self.ring}

    def restore(self, state: dict) -> None:
        self.ring = state["pane_ring"]

    def ring_bounds(self):
        return [("aggregation pane ring", list(self.ring), self.refs[0].spec)]

    def _combine_window(self, views):
        """One window as the combination of its panes' partial states."""
        if self._ctx is None:
            self._ctx = PartialContext.of(self.runtime.plan)
        ctx, (view,), ring = self._ctx, views, self.ring
        rt = self.runtime
        mqo = rt.mqo
        self.stats = self._reuse(views, [ring])
        states = []
        for pane in view.panes:
            if pane.pane_id not in ring:
                ring[pane.pane_id] = self._partials("p", pane.pane_id, pane.tuples)
            states.append(ring[pane.pane_id])
        if view.edge:
            # The window's pulse-instant tuples belong to the (incomplete)
            # next pane; their partial state is built once per window and
            # shared across every subscriber of the aggregation prefix.
            states.append(self._partials("e", view.window_id, view.edge))
        rows = rt._step(
            "combine", self._combine_states, ctx, states, panes=len(states)
        )
        low = view.panes[0].pane_id if view.panes else 0
        self._evict(ring, low)
        if mqo is not None:
            mqo.advance("p", low)
            mqo.advance("e", view.window_id + 1)
        return rows, list(ctx.combiner.out_columns)

    def _partials(self, kind: str, index: int, tuples: list) -> dict:
        """Partial state of one pane (``"p"``) or edge slice (``"e"``):
        another query's published state when the aggregation prefix is
        shared, else one run of the per-pane pipeline."""
        rt = self.runtime
        mqo = rt.mqo
        state = mqo.partials(kind, index) if mqo is not None else None
        if state is not None:
            rt.metrics.mqo_partial_hits += 1
            return state
        state = rt._step(
            "pane_build", self._build, tuples, (kind, index),
            build=True, kind=kind, pane=index,
        )
        if kind == "p":
            rt.metrics.panes_built += 1
        if mqo is not None:
            mqo.put_partials(kind, index, state)
        return state

    def _build(self, tuples: list, mqo_key: tuple[str, int]) -> dict:
        """Grouped partial accumulators over the pane's pipeline output."""
        rt, ctx = self.runtime, self._ctx
        relation = rt._pane_relation(self.refs[0], tuples, mqo_key)
        groups, argument_fns = rt._group_members(ctx, relation)
        state: dict[tuple, tuple] = {}
        for key, members in groups.items():
            # Partials sharing an argument kernel (AVG's SUM + COUNT
            # both read the same expression) share one evaluated,
            # None-filtered value list per group.
            evaluated: dict[int, list] = {}
            payloads = []
            for factory, fn in zip(ctx.factories, argument_fns):
                if fn is None:  # COUNT(*): counts rows
                    payloads.append(factory.build(members))
                    continue
                values = evaluated.get(id(fn))
                if values is None:
                    values = evaluated[id(fn)] = fn(members)
                payloads.append(factory.build(values))
            state[key] = tuple(payloads)
        return state

    def _combine_states(self, ctx: PartialContext, states: list) -> list[tuple]:
        # Gather each group's partial payloads into per-call slots (cheap
        # list appends), then fold every slot at C speed via the
        # accumulator classes' ``combine``.  Slot order is pane order, so
        # SUM's chunk concatenation reproduces the recompute fold exactly.
        n_partials = len(ctx.factories)
        merged: dict[tuple, tuple] = {}
        get_slots = merged.get
        for state in states:
            for key, payloads in state.items():
                slots = get_slots(key)
                if slots is None:
                    merged[key] = slots = tuple([] for _ in range(n_partials))
                for slot, payload in zip(slots, payloads):
                    slot.append(payload)
        factories = ctx.factories
        out_rows = [
            ctx.final_row(key, lambda i: factories[i].combine(slots[i]))
            for key, slots in merged.items()
        ]
        return finalize_rows(
            out_rows, ctx.combiner, self.runtime.udfs,
            kernels=self.runtime._kernel,
        )
