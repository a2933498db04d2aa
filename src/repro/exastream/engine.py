"""The Stream Engine: window-at-a-time plan execution on N nodes.

:class:`StreamEngine` is the one concrete
:class:`~repro.exastream.contracts.Engine` — the gateway's view of the
worker nodes of Figure 2, whose number is the constructor's
``shards=``.  The base class holds what exists once per deployment
(sources, static databases, both catalogs) and the per-node records
(window cache, observability view, counters); this module adds the
binding.  ``bind`` turns a :class:`~repro.exastream.plan.ContinuousPlan`
into a :class:`PlanRuntime`, the leaf
:class:`~repro.exastream.contracts.WindowExecutor`, on node 0 for a
one-node layout, or into one leaf per node under a
:class:`~repro.exastream.sharded.ShardedPlanRuntime`.

A ``PlanRuntime`` is the **recompute pipeline** (load, computed columns,
pushed filters, joins, residual filters, aggregation) plus at most one
*tier executor* over it: a
:class:`~repro.exastream.pane_executor.PaneExecutor` (PANE-INCREMENTAL
plans) or a :class:`~repro.exastream.pane_join_executor.PaneJoinExecutor`
(PANE_JOIN plans).  A window the tier cannot serve (warm-up, eviction)
is recomputed; a tier that can never serve again — disorder on a reader
it slices, or a cost-based ``demote()`` — is retired through the single
:meth:`PlanRuntime._retire_tier`.  Every path's output is byte-identical.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..errors import BindError
from ..obs import Observability
from ..relational import QUERY_ERRORS
from ..sql import Expr
from ..streams import SharedWindowReader, WindowBatch
from .contracts import (
    PLAIN_SCOPE,
    Engine,
    ReaderCatalog,
    Scope,
    StaticCatalog,
    StaticKey,
    WindowExecutor,
)
from .metrics import QueryMetrics, Stopwatch
from .mqo.runtime import MQOBinding
from .mqo.signature import PlanSignature
from .operators import (
    JoinedRows,
    Relation,
    StaticTable,
    compile_kernel,
    hash_join_rows,
)
from .pane_executor import PaneExecutor, PartialContext, TierExecutor
from .pane_join_executor import (  # noqa: F401
    PaneJoinExecutor,
    # checkpoints written before the executor split pickled side states
    # under this module's path; the name must stay importable from here
    _SideState,
)
from .plan import (
    AggregateSpec,
    ContinuousPlan,
    WindowedStreamRef,
    as_equi_join,
    expr_aliases,
)
from .sharding import CombinerSpec, canonical_row_key, make_shard_plan
from .udf import UDFRegistry

__all__ = ["WindowResult", "BoundedResultSink", "StreamEngine", "PlanRuntime"]

#: the SQL aggregates over a non-empty, None-filtered value list
_FOLDS: dict[str, Callable[[list], Any]] = {
    "COUNT": len,
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


@dataclass
class WindowResult:
    """Output rows of one query for one window instance."""

    query: str
    window_id: int
    window_end: float
    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)


class BoundedResultSink:
    """A bounded ring buffer of :class:`WindowResult`\\ s with an overflow
    policy — the per-runtime delivery channel of the gateway.

    ``capacity=None`` keeps every result (the legacy unbounded list
    behaviour); a bounded sink guarantees memory does not grow with the
    number of executed windows.  Two policies handle overflow:

    * ``DROP_OLDEST`` — the oldest retained result is evicted (and
      counted in :attr:`dropped`), so the buffer always holds the most
      recent windows;
    * ``BLOCK`` — :meth:`offer` refuses new results while full.  In the
      cooperative executor this back-pressures the *producer*: the
      gateway skips the query's next window until a consumer ``poll()``s
      the buffer down.
    """

    DROP_OLDEST = "drop_oldest"
    BLOCK = "block"
    POLICIES = (DROP_OLDEST, BLOCK)

    def __init__(
        self, capacity: int | None = None, policy: str = DROP_OLDEST
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("sink capacity must be >= 0 (or None: unbounded)")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown overflow policy {policy!r}")
        self._capacity = capacity
        self._policy = policy
        self._buffer: deque[WindowResult] = deque()
        self.accepted = 0
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self):
        """The retained results, oldest first (non-destructive)."""
        return iter(self._buffer)

    @property
    def is_full(self) -> bool:
        return self._capacity is not None and len(self._buffer) >= self._capacity

    def would_block(self) -> bool:
        """True when a producer should not execute the next window yet."""
        return self._policy == self.BLOCK and self.is_full

    def offer(self, result: WindowResult) -> bool:
        """Deliver one result; ``False`` when refused (``BLOCK`` + full)."""
        if self.is_full:
            if self._policy == self.BLOCK:
                return False
            while self._buffer and len(self._buffer) >= self._capacity:
                self._buffer.popleft()
                self.dropped += 1
            if self._capacity == 0:
                self.dropped += 1
                return True
        self._buffer.append(result)
        self.accepted += 1
        return True

    def poll(self, max_results: int | None = None) -> list[WindowResult]:
        """Drain up to ``max_results`` results, oldest first."""
        if max_results is None:
            max_results = len(self._buffer)
        out: list[WindowResult] = []
        while self._buffer and len(out) < max_results:
            out.append(self._buffer.popleft())
        return out

    def snapshot(self) -> list[WindowResult]:
        """Non-destructive view of the currently retained results."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def limit(self, capacity: int) -> None:
        """Tighten the capacity (never loosens), evicting the oldest."""
        if self._capacity is None or self._capacity > capacity:
            self._capacity = capacity
        while len(self._buffer) > self._capacity:
            self._buffer.popleft()
            self.dropped += 1

    def restore(
        self, results: list[WindowResult], accepted: int = 0, dropped: int = 0
    ) -> None:
        """Replace buffered contents and counters (checkpoint recovery)."""
        self._buffer = deque(results)
        self.accepted = accepted
        self.dropped = dropped



@dataclass
class PlanRuntime(WindowExecutor):
    """A plan bound to engine resources, ready to execute windows.

    The runtime is the recompute pipeline; :attr:`tier` is the pane
    executor currently layered over it, or ``None`` (recompute-only
    binding, or a retired tier).  See the module docstring.
    """

    plan: ContinuousPlan
    udfs: UDFRegistry
    metrics: QueryMetrics
    #: the catalogs this binding's reader and static references live in
    catalog: ReaderCatalog
    static_catalog: StaticCatalog
    #: bind-time switch: ``False`` binds recompute-only whatever the
    #: plan's incremental decision says
    incremental_enabled: bool = True
    #: the engine's observability bundle (registry + tracer); ``None``
    #: or a disabled bundle skips histograms/per-operator recording
    obs: Observability | None = None
    #: the reader/cache/MQO sharing scope this binding lives in
    scope: Scope = PLAIN_SCOPE
    # What the binding holds.  ``StreamEngine.bind_scope`` records each
    # resource here as it takes it and then calls :meth:`_open`;
    # :meth:`close` gives all of it back.
    readers: dict[str, SharedWindowReader] = field(default_factory=dict)
    #: one catalog reference (by sharing key, in :attr:`scope`) per
    #: windowed input
    reader_keys: list[str] = field(default_factory=list)
    stream_columns: dict[str, list[str]] = field(default_factory=dict)
    statics: dict[str, StaticTable] = field(default_factory=dict)
    #: one static-catalog reference per static input
    static_keys: list[StaticKey] = field(default_factory=list)
    #: shared-subplan handle (multi-query optimization); ``None`` runs
    #: the binding fully private — output is identical either way
    mqo: MQOBinding | None = None

    def __post_init__(self) -> None:
        self._bind_obs()
        #: generated kernels (and resolved sequence UDFs) keyed by step —
        #: its plan-owned expressions' identities — and input schema, so
        #: one binding builds each (step, schema) pair once across all
        #: windows
        self._compiled: dict[tuple, Any] = {}
        # Join pipeline shape is per-plan, not per-window: decompose
        # equi-joins and split the filter pushdown once.
        self._equi: list[tuple[str, str, str, str]] = []
        self._single_alias: dict[str, list[Expr]] = {}
        self._residual: list[Expr] = []
        for predicate in self.plan.filters:
            aliases = expr_aliases(predicate)
            if len(aliases) == 1:
                self._single_alias.setdefault(
                    next(iter(aliases)), []
                ).append(predicate)
            elif aliases:
                self._residual.append(predicate)
        for predicate in self.plan.join_predicates:
            decomposed = as_equi_join(predicate)
            if decomposed is not None:
                self._equi.append(decomposed)
            else:
                self._residual.append(predicate)
        #: window alias -> the static relations probed as it loads (its
        #: lookups, see :meth:`ContinuousPlan.lookups`), and the statics
        #: that join after the windows instead
        self._lookups: dict[str, list[str]] = {}
        lookups = self.plan.lookups()
        for static, window in lookups.items():
            self._lookups.setdefault(window, []).append(static)
        self._late_statics = [
            s.alias for s in self.plan.statics if s.alias not in lookups
        ]
        #: the live pane executor (``None``: every window recomputes)
        self.tier: TierExecutor | None = None
        #: why the tier was retired (``None`` while it is live or when
        #: the binding never had one), and whether a cost-based
        #: ``demote()`` — rather than disorder — retired it
        self._retired: str | None = None
        self._demoted = False
        #: keys of :attr:`readers` this binding holds a batch-demand
        #: reference on — released by :meth:`close`, so a surviving
        #: pane-driven query regains its no-batch property once every
        #: batch-driven query is gone
        self._batch_demanded: list[str] = []
        #: keys of :attr:`readers` this binding holds a pane-demand
        #: reference on (one per windowed input: a self-join holds two on
        #: its shared reader) — released by :meth:`close` or tier
        #: retirement, so a reader without pane consumers stops slicing
        self._pane_demanded: list[str] = []

    @property
    def signature(self) -> PlanSignature | None:
        """The plan's MQO signature over the static rows this binding
        holds: what it shares under, and what the scheduler accounts
        its pipeline prefix under (``None``: ineligible)."""
        signature = self.plan.signature
        if signature is None:
            return None
        return signature.over(tuple(key[2] for key in self.static_keys))

    def _open(self) -> None:
        """Second half of binding, once the readers and statics are in
        place: resolve what the plan names, filter the statics, choose
        the tier, declare demand."""
        # Every column a computed column, a pushed filter or an equi-join
        # key names must exist in its input — a plan that names one that
        # does not is refused here, not at its first window.  Compiling
        # the window side against an empty batch is that check (and the
        # kernels are the ones the windows will use).  Static relations
        # are invariant: their pushdown filters apply once, now (this
        # also covers the indexed join_probe path, which bypasses the
        # per-window load).  The filtered table is this binding's own;
        # the shared one is never written.
        for ref in (*self.plan.windows, *self.plan.statics):
            static = self.statics.get(ref.alias)
            try:
                relation = self._push_filters(
                    ref.alias,
                    self._load_batch(ref, []) if static is None
                    else static.relation,
                    record=False,
                )
                for a, a_column, b, b_column in self._equi:
                    if a == ref.alias:
                        relation.index_of(f"{a}.{a_column}")
                    if b == ref.alias:
                        relation.index_of(f"{b}.{b_column}")
            except (KeyError, ValueError) as exc:  # unknown column / UDF
                # (args[0]: a KeyError's str() is the repr of its message)
                raise BindError(
                    self.plan.name, ref.alias,
                    ref.reader_key if static is None else ref.sql,
                    exc.args[0],
                ) from exc
            if static is not None and relation is not static.relation:
                self.statics[ref.alias] = StaticTable(relation)
        decision = self.plan.incremental
        if self.incremental_enabled and decision.is_pane_join:
            self.tier = PaneJoinExecutor(self, decision)
        elif self.incremental_enabled and decision.is_incremental:
            self.tier = PaneExecutor(self)
        # Declare demand at bind time: a tier turns on pane slicing (so
        # the shared readers slice from their first pulse); a
        # recompute-only binding takes batch demand so every pulse
        # assembles (and caches) its window batch.
        if self.tier is not None:
            for ref in self.tier.refs:
                self.readers[ref.reader_key].demand_panes()
                self._pane_demanded.append(ref.reader_key)
        else:
            self._demand_batches()

    def _bind_obs(self) -> None:
        # Histograms are bound once here so the per-window cost is one
        # attribute test + one observe; both are ``None`` when detailed
        # recording is off.
        obs = self.obs
        detailed = obs is not None and obs.enabled
        self._h_window = (
            obs.registry.histogram(
                "window_latency_seconds", query=self.plan.name
            ) if detailed else None
        )
        self._h_pane = (
            obs.registry.histogram(
                "pane_build_seconds", query=self.plan.name
            ) if detailed else None
        )
        #: operator name -> (rows_in counter, rows_out counter), bound
        #: lazily — the observed-selectivity feed of the estimator
        self._op_counters: dict[str, tuple] = {}
        self._detailed = detailed
        #: which path produced the last window (trace span attribute)
        self._last_path = "none"

    def rebind_obs(self, obs: Observability | None) -> None:
        """Re-point every instrument at a new bundle (fork isolation).

        A forked shard worker inherits the parent registry, whose
        pre-fork counts the parent still reports; the fork child calls
        this with :meth:`Observability.forked` so it counts only its own
        post-fork work — the delta the coordinator merges when the
        snapshot ships back over the worker pipe.
        """
        self.obs = obs
        self.metrics = QueryMetrics(
            self.plan.name,
            registry=obs.registry if obs is not None else None,
        )
        self._bind_obs()

    # -- the window-executor contract ---------------------------------------

    @property
    def leaf_runtimes(self) -> list[PlanRuntime]:
        return [self]

    @property
    def last_pane_stats(self) -> tuple[int, int, int] | None:
        tier = self.tier
        if tier is None or self._last_path != tier.path:
            return None
        return tier.stats

    @property
    def demoted(self) -> bool:
        return self._demoted

    def demote(self, reason: str = "cost-based demotion") -> bool:
        """Retire the pane tier early because a re-planning guard
        decided its overlap win never materializes.  The recompute
        path's output is byte-identical by the house differential rule,
        so a demotion can never change results."""
        if self.tier is None:
            return False
        self._retire_tier(reason)
        self._demoted = True
        return True

    def _retire_tier(self, reason: str) -> None:
        """The one way a pane tier ends, whatever the cause: drop the
        executor (and its rings), release pane demand, and take
        (releasable) batch demand so every remaining window recomputes
        from assembled batches."""
        self.tier = None
        self._retired = reason
        for key in self._pane_demanded:
            self.readers[key].release_panes()
        self._pane_demanded.clear()
        if not self._batch_demanded:
            self._demand_batches()

    def _demand_batches(self) -> None:
        for key, reader in self.readers.items():
            reader.demand_batches()
            self._batch_demanded.append(key)

    def close(self) -> None:
        """Give back what this binding holds (see the contract).  Once
        the last batch-driven binding is gone a shared reader stops
        assembling O(range) batches per pulse, and stops pane slicing
        once its last pane-driven binding is gone."""
        for key in self._batch_demanded:
            self.readers[key].release_batches()
        self._batch_demanded.clear()
        for key in self._pane_demanded:
            self.readers[key].release_panes()
        self._pane_demanded.clear()
        for key in self.reader_keys:
            self.catalog.release(self.scope, key)
        self.reader_keys.clear()
        for key in self.static_keys:
            self.static_catalog.release(key)
        self.static_keys.clear()
        if self.mqo is not None:
            self.mqo.release()

    # -- checkpoint / restore -----------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable incremental state: the live tier's rings, how the
        tier ended (if it did), and which readers this binding currently
        holds demand references on (by reader key).

        Generated kernels and the executors' lazy contexts are *not*
        state — they rebuild deterministically on first use after
        :meth:`restore_state`.
        """
        state = {"pane_ring": {}, "side_rings": ({}, {}), "pair_ring": {}}
        if self.tier is not None:
            state.update(self.tier.snapshot())
        state.update(
            pane_join_broken=self._retired is not None and not self._demoted,
            demoted=self._demoted,
            demotion_reason=self._retired if self._demoted else None,
            batch_demanded=list(self._batch_demanded),
            pane_demanded=list(self._pane_demanded),
        )
        return state

    def restore_state(self, state: dict) -> None:
        """Overlay checkpointed incremental state onto a freshly bound
        runtime, re-declaring demand exactly as checkpointed.

        ``__post_init__`` declared bind-time demand; a checkpoint taken
        after the tier was retired recorded the *switched* demand (panes
        released, batches taken), so restore drops the bind-time
        references and takes the recorded ones instead — post-recovery
        reader refcounts equal the pre-crash ones.
        """
        # pre-adaptive checkpoints (no "demoted" key) restore undemoted
        self._demoted = state.get("demoted", False)
        if self._demoted or state["pane_join_broken"]:
            self.tier = None
            self._retired = state.get("demotion_reason") or "disorder"
        elif self.tier is not None:
            self.tier.restore(state)
        # Take the recorded references before dropping the bind-time
        # ones: a reader whose pane refcount transiently hit zero would
        # reset its resumed slicer position.
        old_batch, old_pane = self._batch_demanded, self._pane_demanded
        self._batch_demanded = list(state["batch_demanded"])
        self._pane_demanded = list(state["pane_demanded"])
        for key in self._batch_demanded:
            self.readers[key].demand_batches()
        for key in self._pane_demanded:
            self.readers[key].demand_panes()
        for key in old_batch:
            self.readers[key].release_batches()
        for key in old_pane:
            self.readers[key].release_panes()

    # -- instrumentation ----------------------------------------------------

    def _kernel(self, kind: str, exprs: Sequence[Expr], relation: Relation):
        """This binding's ``kind`` kernel of ``exprs`` over
        ``relation``'s layout (:func:`compile_kernel`), built once."""
        key = (kind, tuple(map(id, exprs)), tuple(relation.columns))
        fn = self._compiled.get(key)
        if fn is None:
            fn = self._compiled[key] = compile_kernel(
                kind, exprs, relation, self.udfs
            )
        return fn

    def _record_op(self, operator: str, rows_in: int, rows_out: int) -> None:
        """Per-operator cardinality stats (the cardinality-estimator feed)."""
        pair = self._op_counters.get(operator)
        if pair is None:
            registry = self.obs.registry
            pair = (
                registry.counter("operator_rows_in_total",
                                 query=self.plan.name, operator=operator),
                registry.counter("operator_rows_out_total",
                                 query=self.plan.name, operator=operator),
            )
            self._op_counters[operator] = pair
        pair[0].value += rows_in
        pair[1].value += rows_out

    def _step(self, name: str, fn, *args, build: bool = False, **attrs):
        """The one instrumented call site of every tier step: run
        ``fn(*args)`` under a ``name`` span when tracing is on.  A
        ``build`` step (one run of the per-pane pipeline) also feeds the
        ``pane_build_seconds`` histogram and tags its span with whether
        the shared relation tier served it."""
        watch = Stopwatch() if build and self._h_pane is not None else None
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            before = self.metrics.mqo_relation_hits
            with obs.span(name, self.plan.name, **attrs) as span:
                result = fn(*args)
                if build:
                    span.attrs["mqo"] = (
                        "hit" if self.metrics.mqo_relation_hits > before
                        else "miss"
                    )
        else:
            result = fn(*args)
        if watch is not None:
            self._h_pane.observe(watch.elapsed())
        return result

    # -- window execution ---------------------------------------------------

    def execute_window(self, window_id: int) -> WindowResult | None:
        """Run one window instance; ``None`` when any stream is exhausted.

        Tracing wraps the execution in a ``window`` span; the engine's
        output is byte-identical either way — spans only observe.
        """
        obs = self.obs
        if obs is None or not obs.tracer.enabled:
            return self._execute_window(window_id)
        with obs.span("window", self.plan.name, window=window_id) as span:
            result = self._execute_window(window_id)
            span.attrs["path"] = self._last_path
            if result is not None:
                span.attrs["rows"] = len(result.rows)
        return result

    def _execute_window(self, window_id: int) -> WindowResult | None:
        watch = Stopwatch()
        tier = self.tier
        if tier is not None:
            # Tier first: O(slide) work, no batch materialisation.
            served = tier.execute(window_id)
            if served is not None:
                rows, columns, window_end = served
                self.metrics.windows_incremental += 1
                return self._window_result(
                    watch, tier.path, window_id, window_end, columns, rows
                )
            if tier.broken():
                self._retire_tier("late or out-of-order data broke pane slicing")
            # else: a transient miss (eviction, warm-up, stream end) —
            # recompute just this window from batches below
        raw: list[tuple[WindowedStreamRef, WindowBatch]] = []
        window_end = 0.0
        for ref in self.plan.windows:
            batch = self.readers[ref.reader_key].window(window_id)
            if batch is None:
                self._last_path = "exhausted"
                return None
            window_end = batch.end
            self.metrics.tuples_in += len(batch)
            raw.append((ref, batch))
        relation = None
        if self.mqo is not None:
            relation = self.mqo.relation("w", window_id)
        if relation is None:
            path = "recompute"
            relation = self._join_all({
                ref.alias: self._load_batch(ref, batch.tuples)
                for ref, batch in raw
            })
            if self.mqo is not None:
                self.mqo.put_relation("w", window_id, relation)
        else:
            path = "mqo_hit"
            self.metrics.mqo_relation_hits += 1
        rows, columns = self._finalize(relation)
        if self.mqo is not None:
            self.mqo.advance("w", window_id + 1)
        return self._window_result(
            watch, path, window_id, window_end, columns, rows
        )

    def _window_result(
        self, watch: Stopwatch, path: str, window_id: int,
        window_end: float, columns: list[str], rows: list[tuple],
    ) -> WindowResult:
        self.metrics.windows_processed += 1
        self.metrics.tuples_out += len(rows)
        elapsed = watch.elapsed()
        self.metrics.wall_seconds += elapsed
        self._last_path = path
        if self._h_window is not None:
            self._h_window.observe(elapsed)
        return WindowResult(self.plan.name, window_id, window_end, columns, rows)

    # -- the shared pipeline: load -> computed columns -> pushed filters ->
    # -- joins / static probe -> residual filters -> grouping ---------------

    def _load_batch(self, ref: WindowedStreamRef, tuples: list) -> Relation:
        relation = Relation(self.stream_columns[ref.alias], tuples)
        if not ref.computed:
            return relation
        extend = self._kernel(
            "extend", [c.expr for c in ref.computed], relation
        )
        columns = relation.columns + [
            f"{ref.alias}.{c.name}" for c in ref.computed
        ]
        return Relation(columns, extend(tuples))

    def _push_filters(
        self, alias: str, relation: Relation, record: bool = True
    ) -> Relation:
        """Apply ``alias``'s single-alias filters to its relation."""
        predicates = self._single_alias.get(alias)
        if not predicates:
            return relation
        rows = self._kernel("filter", predicates, relation)(relation.rows)
        if record and self._detailed:
            self._record_op(f"filter:{alias}", len(relation.rows), len(rows))
        return Relation(relation.columns, rows)

    def _unit(self, alias: str) -> set[str]:
        """``alias`` plus, for a window, the lookups loaded with it."""
        return {alias, *self._lookups.get(alias, ())}

    def _load(
        self, alias: str, batches: dict[str, Relation], record: bool = True
    ) -> Relation:
        """One FROM item ready to join: a static relation as filtered at
        bind time, a window batch after its pushed filters and the
        probes of its lookups — so every stream tuple carries its static
        context into (and contributes its columns as keys of) whatever
        joins next, on the recompute, pane and pane-join paths alike."""
        if alias not in batches:
            return self.statics[alias].relation
        relation = self._push_filters(alias, batches[alias], record)
        lookups = self._lookups.get(alias)
        if lookups:
            relation = self._join_rest(relation, {alias}, lookups, batches)
        return relation

    def _join_all(self, batches: dict[str, Relation]) -> Relation:
        """Join the loaded stream batches and every static relation,
        then apply the residual filters."""
        pending = [w.alias for w in self.plan.windows] + self._late_statics
        first = pending.pop(0)
        current = self._join_rest(
            self._load(first, batches), self._unit(first), pending, batches
        )
        return self._apply_residual_filters(current)

    def _join_statics(self, pairs: JoinedRows) -> Relation:
        """Fold the static relations that are no window's lookup into a
        pane pair's stream-stream join (not carried out yet: an indexed
        static probe reads it as it is enumerated), then apply the
        residual filters."""
        joined = {a for w in self.plan.windows for a in self._unit(w.alias)}
        return self._apply_residual_filters(
            self._join_rest(pairs, joined, self._late_statics, {})
        )

    def _join_order(
        self, joined: set[str], pending: list[str]
    ) -> list[tuple[str, tuple[list[str], list[str]] | None, bool]]:
        """The order ``pending`` folds into ``joined``: per step the
        alias, its ``(joined-side keys, alias-side keys)`` and whether
        the step probes a static relation's hash index.  Always the
        first alias an equi-join connects to what is joined so far,
        else the first alias as a cross join (``None`` keys).  A pending
        window arrives with its lookups (:meth:`_load`), so equalities
        on their columns are keys of its join too."""
        joined, pending = set(joined), list(pending)
        order = []
        while pending:
            chosen, keys = pending[0], None  # cross join fallback
            for alias in pending:
                unit = self._unit(alias)
                left_keys: list[str] = []
                right_keys: list[str] = []
                for a, ac, b, bc in self._equi:
                    if a in joined and b in unit:
                        left_keys.append(f"{a}.{ac}")
                        right_keys.append(f"{b}.{bc}")
                    elif b in joined and a in unit:
                        left_keys.append(f"{b}.{bc}")
                        right_keys.append(f"{a}.{ac}")
                if left_keys:
                    chosen, keys = alias, (left_keys, right_keys)
                    break
            pending.remove(chosen)
            joined |= self._unit(chosen)
            order.append(
                (chosen, keys, chosen in self.statics and keys is not None)
            )
        return order

    def _join_rest(
        self,
        current: Relation | JoinedRows,
        joined: set[str],
        pending: list[str],
        batches: dict[str, Relation],
    ) -> Relation:
        """Fold the remaining FROM items into ``current``.

        The only join routine: a window's lookups (:meth:`_load`), the
        window recompute pipeline and the pane-pair join pipeline all
        visit their pending aliases in the identical discovery order
        with identical keys, so static expansion order — and therefore
        per-group value order — is the same on every path.

        A stream-stream join directly followed by an indexed static
        probe is not materialised: the probe reads the join as it is
        enumerated and keeps the rows with a static match (same loops,
        same order, so the output is the materialised form's).
        """
        order = self._join_order(joined, pending)
        #: (alias, inputs, output) per join; cardinalities are read once
        #: every join has been carried out
        steps: list[tuple[str, tuple, Relation | JoinedRows]] = []
        for position, (chosen, keys, probes_index) in enumerate(order):
            if probes_index:
                static = self.statics[chosen]
                other = static.relation
                result = static.join_probe(current, keys[0], keys[1])
            else:
                if isinstance(current, JoinedRows):
                    current = current.materialise()
                other = self._load(chosen, batches)
                left_keys, right_keys = keys or ((), ())
                result = hash_join_rows(current, other, left_keys, right_keys)
                feeds_probe = position + 1 < len(order) and order[position + 1][2]
                if not feeds_probe:
                    result = result.materialise()
            steps.append((chosen, (current, other), result))
            current = result
        if isinstance(current, JoinedRows):  # a pane pair with no probe
            current = current.materialise()
        if self._detailed:
            for chosen, inputs, result in steps:
                self._record_op(
                    f"join:{chosen}", sum(map(len, inputs)), len(result)
                )
        return current

    def _apply_residual_filters(self, relation: Relation) -> Relation:
        if not self._residual:
            return relation
        rows = self._kernel("filter", self._residual, relation)(relation.rows)
        if self._detailed:
            self._record_op("residual", len(relation.rows), len(rows))
        return Relation(relation.columns, rows)

    def _pane_relation(
        self, ref: WindowedStreamRef, tuples: list, mqo_key: tuple[str, int]
    ) -> Relation:
        """One pane's joined, filtered relation — the per-pane pipeline.

        Runs through the *same* join/filter machinery as the recompute
        path (on the pane's tuples instead of the whole window's), so
        per-row semantics are identical by construction.  ``mqo_key``
        names the slice in the shared relation tier, so queries sharing
        only the relational prefix (different grouping) still reuse the
        joined, filtered pane relation.
        """
        mqo = self.mqo
        if mqo is not None:
            relation = mqo.relation(*mqo_key)
            if relation is not None:
                self.metrics.mqo_relation_hits += 1
                return relation
        relation = self._join_all({ref.alias: self._load_batch(ref, tuples)})
        if mqo is not None:
            mqo.put_relation(*mqo_key, relation)
        return relation

    def _group_rows(
        self, group_by: tuple[Expr, ...], relation: Relation
    ) -> dict[tuple, list[tuple]]:
        return self._kernel("group", group_by, relation)(relation.rows)

    def _group_members(
        self, ctx: PartialContext, relation: Relation
    ) -> tuple[dict[tuple, list[tuple]], list]:
        """A pane (or pane-pair) relation's rows by group key, plus each
        partial call's ``members -> None-filtered argument values``
        kernel (``None``: ``COUNT(*)``)."""
        return self._group_rows(ctx.group_by, relation), [
            None if call.argument is None
            else self._kernel("values", (call.argument,), relation)
            for call in ctx.partial_calls
        ]

    # -- output stage -----------------------------------------------------------

    def _finalize(self, relation: Relation) -> tuple[list[tuple], list[str]]:
        plan = self.plan
        if plan.aggregate is not None:
            rows, columns = self._aggregate(relation, plan.aggregate)
        else:
            rows = self._kernel(
                "project", [c.expr for c in plan.projection], relation
            )(relation.rows)
            columns = [c.name for c in plan.projection]
        if plan.distinct:
            rows = list(dict.fromkeys(rows))
        return rows, columns

    def _aggregate(
        self, relation: Relation, spec: AggregateSpec
    ) -> tuple[list[tuple], list[str]]:
        out_columns = list(spec.group_names) + [c.output_name for c in spec.calls]
        groups = self._group_rows(spec.group_by, relation)
        out_rows: list[tuple] = []
        if groups:
            calls = [self._aggregate_call(c, relation) for c in spec.calls]
            out_rows = [
                (*key, *[call(members) for call in calls])
                for key, members in groups.items()
            ]
        result = Relation(out_columns, out_rows)
        if spec.having:
            result.rows = self._kernel("filter", spec.having, result)(out_rows)
        # Canonical group order: aggregate output is deterministic under
        # any tuple arrival order and any shard count (the sharded merge
        # relies on both sides agreeing on this order).
        if self._detailed:
            self._record_op(
                "aggregate", len(relation.rows), len(result.rows)
            )
        return sorted(result.rows, key=canonical_row_key), out_columns

    def _aggregate_call(
        self, call, relation: Relation
    ) -> Callable[[list[tuple]], Any]:
        """``members -> value`` of one aggregate call over ``relation``'s
        layout, resolved once per window rather than once per group."""
        name = call.function.upper()
        fold = _FOLDS.get(name)
        if fold is not None:
            if call.argument is None:
                if name != "COUNT":
                    raise ValueError(f"{name} requires an argument")
                return len
            values_of = self._kernel("values", (call.argument,), relation)
            empty = 0 if name == "COUNT" else None

            def aggregate(members: list[tuple]) -> Any:
                values = values_of(members)
                return fold(values) if values else empty

            return aggregate
        # A sequence UDF and its {role: column index} are resolved once
        # per (call, schema), like :meth:`_kernel`.
        key = (id(call), tuple(relation.columns))
        resolved = self._compiled.get(key)
        if resolved is None:
            udf = self.udfs.sequence(name)
            if udf is None:
                raise ValueError(f"unknown aggregate or sequence UDF {name!r}")
            resolved = self._compiled[key] = (udf, {
                expected: relation.index_of(actual)
                for expected, actual in call.argument_columns
            })
        udf, columns = resolved
        return lambda members: udf(members, columns)


def mqo_scope_tag(engine: Engine, scope: Scope) -> str | None:
    """The prefix of the MQO pipeline keys a leaf bound in ``scope``
    subscribes under (see :meth:`PlanSignature.scoped`).

    Slices of different layouts hold different tuples and must never
    interchange results, so an engine of several nodes keys sharing per
    ``(layout, key column, shard)``; a one-node engine has one scope and
    shares at the registry's root (``None``).
    """
    if len(engine.nodes) == 1:
        return None
    n, key_column, shard = scope
    return f"{n}:{key_column or 'none'}:{shard}"


class StreamEngine(Engine):
    """The engine: the :class:`~repro.exastream.contracts.Engine`
    registries and catalogs plus the binding of plans to them."""

    def layout(
        self, plan: ContinuousPlan, shards: int | None = None
    ) -> tuple[ContinuousPlan, list[Scope], CombinerSpec | None]:
        """What ``bind(plan, shards=shards)`` binds: the plan each leaf
        runs, the leaves' scopes, and the combiner merging them
        (``None`` for a one-node layout, which runs the plan verbatim)."""
        n = self.resolve_shards(plan, shards)
        if n == 1:
            return plan, [PLAIN_SCOPE], None
        decision = plan.partitioning
        shard_plan, combiner = make_shard_plan(plan, decision)
        scopes = [(n, decision.key_column, shard) for shard in range(n)]
        return shard_plan, scopes, combiner

    def _bind(self, plan, shards, mqo, catalog) -> WindowExecutor:
        """A :class:`PlanRuntime` in :data:`PLAIN_SCOPE` for a one-node
        layout (the plan verbatim over full streams); else one leaf
        runtime per shard scope of the layout, each over its partitioned
        readers, under a coordinating ``ShardedPlanRuntime``."""
        leaf_plan, scopes, combiner = self.layout(plan, shards)
        if len(scopes) == 1:
            return self.bind_scope(leaf_plan, catalog, mqo, scopes[0])
        # sharded.py builds on this module's PlanRuntime and WindowResult
        from .sharded import ShardedPlanRuntime

        # Leaves run pane tiers shard-locally: join-key-partitioned
        # layouts route both streams' matching tuples to the same shard
        # and shard slices preserve stream order, so each shard's output
        # — and therefore the merge — is unchanged by the tier.
        leaves: list[PlanRuntime] = []
        try:
            for scope in scopes:
                leaves.append(self.bind_scope(leaf_plan, catalog, mqo, scope))
            runtime = ShardedPlanRuntime(
                plan=plan,
                combiner=combiner,
                shard_runtimes=leaves,
                metrics=self.metrics.query(plan.name),
                udfs=self.udfs,
                parallel=self.parallel,
                scheduler=self.scheduler,
            )
        except Exception:
            for leaf in leaves:
                leaf.close()
            raise
        self._runtimes.add(runtime)
        return runtime

    def bind_scope(
        self,
        plan: ContinuousPlan,
        catalog: ReaderCatalog,
        mqo,
        scope: Scope,
    ) -> PlanRuntime:
        """Bind a plan to the sources/databases within ``scope``, on the
        node serving it.

        Readers come from ``catalog`` (see :meth:`shared_reader`).
        ``mqo`` is the shared pipeline registry; when the plan's prefix
        is shareable, the runtime computes per-pane results once across
        every structurally equal query registered in the same scope.
        Each resource is recorded on the runtime as it is taken, so a
        failure anywhere closes the runtime and leaves nothing behind.
        """
        node = self.nodes[scope[2]]
        runtime = PlanRuntime(
            plan=plan,
            udfs=self.udfs,
            metrics=node.metrics.query(plan.name),
            catalog=catalog,
            static_catalog=self.static_catalog,
            incremental_enabled=self.incremental,
            obs=node.obs,
            scope=scope,
        )
        try:
            for ref in plan.statics:
                key, shared = self._static(plan, ref)
                runtime.static_keys.append(key)
                runtime.statics[ref.alias] = shared.view(ref.alias)
            for ref in plan.windows:
                runtime.readers[ref.reader_key] = self.shared_reader(
                    catalog, ref, plan, scope
                )
                runtime.reader_keys.append(self.shared_reader_key(ref, plan))
                schema = self._sources[ref.stream].stream.schema
                runtime.stream_columns[ref.alias] = [
                    f"{ref.alias}.{c}" for c in schema.column_names
                ]
            if mqo is not None and self.mqo and plan.signature is not None:
                runtime.mqo = mqo.bind(
                    runtime.signature.scoped(mqo_scope_tag(self, scope)),
                    plan.name,
                )
            runtime._open()
        except Exception:
            runtime.close()
            raise
        return runtime

    def _static(self, plan, ref) -> tuple[StaticKey, StaticTable]:
        """Take a reference on the shared relation of one static input."""
        database = self._databases.get(ref.source)
        if database is None:
            raise BindError(
                plan.name, ref.alias, ref.sql,
                f"database {ref.source!r} is not attached",
            )
        try:
            return self.static_catalog.acquire(database, ref.sql)
        except QUERY_ERRORS as exc:
            raise BindError(plan.name, ref.alias, ref.sql, str(exc)) from exc
