"""The pane-join tier: symmetric-hash joins over per-side pane rings.

A two-stream equi-join window decomposes as

    W_A(k) |><| W_B(k)  =  U over (u, v)  u |><| v

where u ranges over window k's complete panes of A plus its edge slice,
and v over B's.  Complete-pane pairs persist across windows (cached in
the pair ring, computed once when the newer pane first appears); edge
pairs are window-specific and recomputed — edges are O(pulse-instant)
small.  Per pair, each side's filtered pane prefix carries a hidden
arrival-position column, so the window combine can fold order-sensitive
partials (SUM, AVG's numerator) in the exact row-enumeration order of
the recompute hash join — including its build-side choice, which
depends on the two *window* sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from .operators import JoinedRows, Relation, StaticTable, key_getter
from .pane_executor import PartialContext, TierExecutor
from .partial_agg import finalize_rows
from .plan import WindowedStreamRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import PlanRuntime

__all__ = ["PaneJoinExecutor"]


@dataclass
class _SideState:
    """One pane of one join side, as this binding sees it: the shared
    entry (rows, counts, hash tables) plus the relation under this
    query's own aliases."""

    entry: StaticTable
    relation: Relation

    @property
    def count(self) -> int:
        return self.entry.count


@dataclass
class _PaneJoinContext(PartialContext):
    """The partial decomposition plus each partial's order sensitivity
    and the stream-stream key layout."""

    kinds: list[str]  # per partial call: "scalar" | "ordered"
    scalar_slot: dict[int, int]  # partial index -> scalar slot
    ordered_slot: dict[int, int]  # partial index -> ordered slot
    join: Any  # PaneJoinSpec
    side_panes: tuple  # per-side PanePlan
    #: shared inert state for windows whose pulse-instant edge is empty
    empty_side: _SideState

    @classmethod
    def of(cls, plan, decision) -> _PaneJoinContext:
        base = PartialContext.of(plan)
        # SUM folds floats left-to-right, so its partials keep per-row
        # values with arrival positions ("ordered"); COUNT, MIN and MAX
        # combine exactly in any order ("scalar").
        kinds = [
            "ordered" if c.function.upper() == "SUM" else "scalar"
            for c in base.partial_calls
        ]
        scalar_slot: dict[int, int] = {}
        ordered_slot: dict[int, int] = {}
        for index, kind in enumerate(kinds):
            slot = scalar_slot if kind == "scalar" else ordered_slot
            slot[index] = len(slot)
        empty = StaticTable(Relation([], []))
        return cls(
            **vars(base),
            kinds=kinds,
            scalar_slot=scalar_slot,
            ordered_slot=ordered_slot,
            join=decision.join,
            side_panes=decision.side_panes,
            empty_side=_SideState(empty, empty.relation),
        )


class PaneJoinExecutor(TierExecutor):
    """Two windowed streams joined on equi-keys (PANE_JOIN plans).

    Each side keeps a ring of per-pane hash tables over its filtered
    pane prefix; a new pane probes the partner stream's live ring once,
    pane-pair join partials are cached, and each window combines the
    partials of its pane pairs — only the pairs touching a fresh pane
    (plus the cheap pulse-instant edges) are computed per slide.
    """

    path = "pane_join"

    def __init__(self, runtime: PlanRuntime, decision) -> None:
        super().__init__(runtime, runtime.plan.windows)
        #: the bind-time PANE_JOIN decision (join keys, per-side panes)
        self._decision = decision
        #: per-side rings of pane prefixes (pane id -> _SideState)
        self.side_rings: tuple[dict[int, _SideState], dict[int, _SideState]] = (
            {}, {},
        )
        #: (left pane id, right pane id) -> group partials
        self.pair_ring: dict[tuple[int, int], dict] = {}
        self._ctx: _PaneJoinContext | None = None

    def snapshot(self) -> dict:
        return {"side_rings": self.side_rings, "pair_ring": self.pair_ring}

    def restore(self, state: dict) -> None:
        # A ring written while a side's lookup was still probed per pane
        # pair holds panes without its columns: those are rebuilt from
        # the reader's panes.  Pair partials are results and stay.
        rt = self.runtime
        rings = []
        for ref, ring in zip(self.refs, state["side_rings"]):
            columns = rt._load(
                ref.alias, {ref.alias: rt._load_batch(ref, [])}, record=False
            ).columns
            rings.append({
                pane: side for pane, side in ring.items()
                if side.relation.columns[:-1] == columns
            })
        self.side_rings = tuple(rings)
        self.pair_ring = state["pair_ring"]

    def ring_bounds(self):
        bounds = []
        for side, (ref, ring) in enumerate(zip(self.refs, self.side_rings)):
            bounds.append((f"join side {side} pane ring", list(ring), ref.spec))
            bounds.append((
                f"pane-pair ring coordinate {side}",
                list({pair[side] for pair in self.pair_ring}),
                ref.spec,
            ))
        return bounds

    def _combine_window(self, views):
        """One window as the combination of its pane-pair join partials."""
        if self._ctx is None:
            self._ctx = _PaneJoinContext.of(self.runtime.plan, self._decision)
        ctx, rt = self._ctx, self.runtime
        rt.metrics.windows_pane_join += 1
        reused, fresh, panes = self._reuse(views, self.side_rings)
        # the pulse-instant edges are rebuilt per window: always fresh
        self.stats = (reused, fresh + sum(len(v.edge) for v in views), panes)
        units: list[list[tuple[int, _SideState]]] = []
        for side, (ref, view) in enumerate(zip(self.refs, views)):
            ring = self.side_rings[side]
            side_units: list[tuple[int, _SideState]] = []
            for pane in view.panes:
                state = ring.get(pane.pane_id)
                if state is None:
                    state = ring[pane.pane_id] = self._side_pane(
                        side, ref, pane.tuples, "p", pane.pane_id
                    )
                side_units.append((pane.pane_id, state))
            # the edge slice sits at the head of the *next* (incomplete)
            # pane — id window_id * panes_per_slide — which orders it
            # after every complete pane of this window on this side.
            # Empty edges (no tuple exactly at the pulse instant, the
            # common case on integer-aligned streams) share one inert
            # state instead of building and publishing per window.
            if view.edge:
                edge_state = self._side_pane(
                    side, ref, view.edge, "e", view.window_id
                )
            else:
                edge_state = ctx.empty_side
            side_units.append(
                (view.window_id * ctx.side_panes[side].panes_per_slide,
                 edge_state)
            )
            units.append(side_units)

        # The recompute path hash-joins the two filtered window batches
        # with the smaller side as build; its output enumerates probe
        # rows (outer) x build matches (inner), which fixes the fold
        # order of every order-sensitive aggregate.  Window sizes are the
        # sums of the per-pane filtered counts.
        size_left = sum(state.count for _, state in units[0])
        size_right = sum(state.count for _, state in units[1])
        probe_is_right = size_left <= size_right

        merged: dict[tuple, tuple] = {}
        n_scalar, n_ordered = len(ctx.scalar_slot), len(ctx.ordered_slot)
        last_left = len(units[0]) - 1
        last_right = len(units[1]) - 1
        for ai, (a_id, a_state) in enumerate(units[0]):
            for bi, (b_id, b_state) in enumerate(units[1]):
                if ai == last_left or bi == last_right:
                    # An edge participates: window-specific, never
                    # cached.  Probe with the smaller relation (usually
                    # the edge, reusing the pane's cached hash table)
                    # instead of the window's probe side: enumeration
                    # order within a pair is irrelevant — ordered
                    # entries re-sort on positions, scalar partials are
                    # order-insensitive, and static-expansion tie order
                    # is produced after the stream join either way.
                    state = self._pair(
                        a_id, a_state, b_id, b_state,
                        b_state.count <= a_state.count,
                    )
                else:
                    state = self.pair_ring.get((a_id, b_id))
                    if state is None:
                        state = self.pair_ring[(a_id, b_id)] = self._pair(
                            a_id, a_state, b_id, b_state, probe_is_right
                        )
                        rt.metrics.pane_pairs_built += 1
                for key, (scalars, ordered) in state.items():
                    slots = merged.get(key)
                    if slots is None:
                        merged[key] = slots = (
                            tuple([] for _ in range(n_scalar)),
                            tuple([] for _ in range(n_ordered)),
                        )
                    for slot, payload in zip(slots[0], scalars):
                        slot.append(payload)
                    for slot, entries in zip(slots[1], ordered):
                        slot.extend(entries)

        rows = rt._step(
            "combine", self._combine_states, merged, probe_is_right,
            groups=len(merged),
        )

        # Keep one window's worth of panes per side, and only pair
        # entries both of whose panes are still live.
        lows = [view.panes[0].pane_id if view.panes else 0 for view in views]
        for ring, low in zip(self.side_rings, lows):
            self._evict(ring, low)
        for pair in [
            p for p in self.pair_ring if p[0] < lows[0] or p[1] < lows[1]
        ]:
            del self.pair_ring[pair]
        if rt.mqo is not None:
            for side, (view, low) in enumerate(zip(views, lows)):
                rt.mqo.advance_side(side, "p", low)
                rt.mqo.advance_side(side, "e", view.window_id + 1)
        return rows, list(ctx.combiner.out_columns)

    def _combine_states(
        self, merged: dict[tuple, tuple], probe_is_right: bool
    ) -> list[tuple]:
        # Entries carry (a_gid, a_pos, b_gid, b_pos, value); sorting on
        # the four position fields only (never the value: rows of one
        # static expansion share all four, and the stable sort must keep
        # their expansion order) reproduces the recompute enumeration.
        ctx = self._ctx
        if probe_is_right:
            sort_key = itemgetter(2, 3, 0, 1)
        else:
            sort_key = itemgetter(0, 1, 2, 3)

        value_of = itemgetter(4)
        out_rows: list[tuple] = []
        for key, (scalar_slots, ordered_slots) in merged.items():
            totals: list[Any] = []
            for entries in ordered_slots:
                if entries:
                    # each pair's entries were emitted probe-major, so
                    # the concatenation is a sequence of sorted runs
                    # that Timsort merges near-linearly
                    entries.sort(key=sort_key)
                    totals.append(sum(map(value_of, entries)))
                else:
                    totals.append(None)

            def partial(i: int):
                if ctx.kinds[i] == "ordered":
                    return totals[ctx.ordered_slot[i]]
                return ctx.factories[i].combine(
                    scalar_slots[ctx.scalar_slot[i]]
                )

            out_rows.append(ctx.final_row(key, partial))
        return finalize_rows(
            out_rows, ctx.combiner, self.runtime.udfs,
            kernels=self.runtime._kernel,
        )

    def _side_pane(
        self, side: int, ref: WindowedStreamRef, tuples: list,
        kind: str, index: int,
    ) -> _SideState:
        return self.runtime._step(
            "pane_build", self._build_side, side, ref, tuples, (kind, index),
            build=True, kind=kind, pane=index, side=side,
        )

    def _build_side(
        self,
        side: int,
        ref: WindowedStreamRef,
        tuples: list,
        mqo_key: tuple[str, int],
    ) -> _SideState:
        """One side's pane prefix: load -> computed columns -> pushed
        filters -> the side's static lookups -> arrival-position column
        (+ lazy join hash tables).  A pane is enriched once, however
        many partner panes it is paired with.

        The prefix is the shareable unit of the pane join: queries with
        the same side signature reuse the entry — relation, positions and
        hash tables — through the MQO registry.
        """
        rt = self.runtime
        mqo = rt.mqo
        if mqo is not None:
            cached = mqo.side_entry(side, *mqo_key)
            if cached is not None:
                rt.metrics.mqo_relation_hits += 1
                entry, renamed = cached
                return _SideState(entry, renamed)
        relation = rt._load(
            ref.alias, {ref.alias: rt._load_batch(ref, tuples)}, record=False
        )
        relation = Relation(
            relation.columns + [f"{ref.alias}.__pane_pos"],
            [row + (i,) for i, row in enumerate(relation.rows)],
        )
        entry = StaticTable(relation)
        if mqo is not None:
            mqo.put_side_entry(side, *mqo_key, entry)
        return _SideState(entry, relation)

    def _pair(
        self,
        left_id: int,
        left: _SideState,
        right_id: int,
        right: _SideState,
        probe_is_right: bool,
    ) -> dict[tuple, tuple]:
        return self.runtime._step(
            "pane_pair", self._build_pair,
            left_id, left, right_id, right, probe_is_right,
            left=left_id, right=right_id,
        )

    def _build_pair(
        self,
        left_id: int,
        left: _SideState,
        right_id: int,
        right: _SideState,
        probe_is_right: bool,
    ) -> dict[tuple, tuple]:
        """Join one pane pair and fold it into per-group partial state.

        One pane probes the partner pane's cached hash table (the
        symmetric-hash step), enumerating in the current window's
        probe-major order — so each pair's order-sensitive entries come
        out presorted for the window combine.  The pair relation then
        runs through the *same* static-join (for statics that are no
        side's lookup) and residual-filter operators as the recompute
        pipeline, so per-row semantics are identical by construction.
        Partial state per group: one payload per scalar call, one
        ``(left_pane, left_pos, right_pane, right_pos, value)`` entry
        list per order-sensitive call (pane ids baked in so the window
        combine merges lists with C-level extends).
        """
        ctx, rt = self._ctx, self.runtime
        rel_left, rel_right = left.relation, right.relation
        if left.count == 0 or right.count == 0:
            return {}
        if probe_is_right:
            index = left.entry.index_for(ctx.join.left_keys, rel_left)
            probe, probe_keys = rel_right, ctx.join.right_keys
        else:
            index = right.entry.index_for(ctx.join.right_keys, rel_right)
            probe, probe_keys = rel_left, ctx.join.left_keys
        key_idx = [probe.index_of(c) for c in probe_keys]
        probe_key = key_getter(key_idx)
        if not any(probe_key(row) in index for row in probe.rows):
            return {}  # no pair: no static probe either
        relation = rt._join_statics(JoinedRows(
            rel_left.columns, rel_right.columns,
            index, probe.rows, key_idx, build_is_left=probe_is_right,
        ))
        if not relation.rows:
            return {}
        left_pos = relation.index_of(f"{ctx.join.left_alias}.__pane_pos")
        right_pos = relation.index_of(f"{ctx.join.right_alias}.__pane_pos")
        groups, argument_fns = rt._group_members(ctx, relation)
        # an ordered entry carries its row's pane positions, so it reads
        # the argument per row
        row_fns = [
            rt._kernel("value", (call.argument,), relation)
            if kind == "ordered" else None
            for kind, call in zip(ctx.kinds, ctx.partial_calls)
        ]
        state: dict[tuple, tuple] = {}
        for key, members in groups.items():
            # Partials sharing an argument kernel (AVG's SUM + COUNT)
            # share one evaluated, None-filtered pass per group.
            entry_lists: dict[int, list] = {}
            value_lists: dict[int, list] = {}
            scalars: list[Any] = []
            ordered: list[list] = []
            for kind, factory, fn, value in zip(
                ctx.kinds, ctx.factories, argument_fns, row_fns
            ):
                if kind == "ordered":
                    entries = entry_lists.get(id(fn))
                    if entries is None:
                        entries = [
                            (left_id, m[left_pos], right_id, m[right_pos], v)
                            for m in members
                            if (v := value(m)) is not None
                        ]
                        entry_lists[id(fn)] = entries
                    ordered.append(entries)
                    continue
                if fn is None:  # COUNT(*): counts rows
                    scalars.append(factory.build(members))
                    continue
                values = value_lists.get(id(fn))
                if values is None:
                    entries = entry_lists.get(id(fn))
                    if entries is not None:  # AVG: reuse the SUM pass
                        values = [entry[4] for entry in entries]
                    else:
                        values = fn(members)
                    value_lists[id(fn)] = values
                scalars.append(factory.build(values))
            state[key] = (tuple(scalars), tuple(ordered))
        return state
