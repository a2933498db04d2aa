"""The shared-subplan execution runtime: compute once, serve every query.

ExaStream's design goal — "registered queries share computation" — goes
beyond the wCache's shared window *materialisation*: concurrent queries
whose pipeline prefixes are structurally equal (see
:mod:`repro.exastream.mqo.signature`) should also share the *execution*
of those prefixes.  This module is the execution half of the MQO
subsystem:

* a :class:`SharedPipeline` holds the per-(signature, pane) results of
  one shared prefix — the joined/filtered pane relations and the
  combinable partial-aggregation payload maps — keyed by pane / window
  id and evicted by the subscribers' low-watermarks;
* the :class:`SharedPipelineRegistry` maps signature keys to pipelines
  (a pipeline is dropped when its last subscriber releases it) and
  exposes :class:`MQOStats` counters;
* an :class:`MQOBinding` is one query's handle on its pipelines: the
  per-runtime face consulted by
  :class:`~repro.exastream.engine.PlanRuntime` on every pane and every
  fallback window, and the owner of the subscriptions it took —
  ``release()`` (called by the runtime's ``close()``) gives them back.

Sharing is *memoizing*, never prescriptive: the first subscriber to need
a pane computes it with its own (structurally identical) operators and
publishes the result; later subscribers read it back.  A miss — evicted
entry, subscriber joining mid-flight before the next pane boundary —
just recomputes locally, so results cannot depend on registration order
or timing.  Cached relations are stored under canonical column names and
translated back into each subscriber's aliases on read, so queries
written with different aliases still interchange results.

Forked shard workers execute in separate address spaces, where a
registry degenerates into per-process memoization (correct, but without
cross-query sharing); in-process execution — the default — shares fully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...obs.registry import CounterField, MetricRegistry, bind_counters
from ..operators import Relation
from .signature import PlanSignature

__all__ = [
    "MQOStats",
    "PaneSideEntry",
    "SharedPipeline",
    "SharedPipelineRegistry",
    "MQOBinding",
]

#: entry namespaces within one pipeline: pane partial/relation results,
#: per-window edge results, and full-window (recompute path) relations
_NAMESPACES = ("p", "e", "w")


class PaneSideEntry:
    """One stream side's pane prefix: the loaded, computed-column-extended
    and filtered pane relation plus its lazily built join hash tables.

    This is the per-(side signature, pane) unit of the symmetric-hash
    pane join — and the unit the MQO registry shares across queries
    joining the same stream pair.  Hash indexes are cached by *resolved
    column positions*, which are alias-rename-invariant, so subscribers
    reading the relation under their own aliases still share one index
    per join-key layout.
    """

    __slots__ = ("relation", "count", "_indexes")

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.count = len(relation.rows)
        self._indexes: dict[tuple[int, ...], dict] = {}

    def index_for(
        self, key_columns, relation: Relation | None = None
    ) -> dict:
        """The pane's hash table on ``key_columns`` (built on first use).

        ``relation`` resolves the (possibly subscriber-renamed) column
        names; the table itself maps key-value tuples to the matching
        rows in pane arrival order.
        """
        resolver = relation if relation is not None else self.relation
        positions = tuple(resolver.index_of(c) for c in key_columns)
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.relation.rows:
                index.setdefault(
                    tuple(row[i] for i in positions), []
                ).append(row)
            self._indexes[positions] = index
        return index

    def __getstate__(self) -> dict:
        # Checkpoints drop the derived hash tables: they rebuild on
        # first probe, and serializing them would multiply the pane's
        # footprint for no fidelity gain.
        return {"relation": self.relation, "count": self.count}

    def __setstate__(self, state: dict) -> None:
        self.relation = state["relation"]
        self.count = state["count"]
        self._indexes = {}


class MQOStats:
    """Registry-wide sharing counters (benchmark and test observability).

    A view over a :class:`repro.obs.MetricRegistry` (its own private one
    unless the gateway passes the engine's), so sharing behaviour shows
    up in metric snapshots and Prometheus exports alongside everything
    else.
    """

    _SERIES = {
        "relation_hits": ("mqo_relation_hits_total", "sum"),
        "relation_misses": ("mqo_relation_misses_total", "sum"),
        "partial_hits": ("mqo_partial_hits_total", "sum"),
        "partial_misses": ("mqo_partial_misses_total", "sum"),
        "pipelines_created": ("mqo_pipelines_created_total", "sum"),
        "pipelines_released": ("mqo_pipelines_released_total", "sum"),
        "entries_evicted": ("mqo_entries_evicted_total", "sum"),
    }

    relation_hits = CounterField()
    relation_misses = CounterField()
    partial_hits = CounterField()
    partial_misses = CounterField()
    pipelines_created = CounterField()
    pipelines_released = CounterField()
    entries_evicted = CounterField()

    def __init__(self, registry=None) -> None:
        bind_counters(self, registry)

    @property
    def hit_rate(self) -> float:
        hits = self.relation_hits + self.partial_hits
        total = hits + self.relation_misses + self.partial_misses
        return hits / total if total else 0.0


class SharedPipeline:
    """Refcounted per-(signature, pane/window) results of one prefix.

    ``entries`` maps ``(namespace, index)`` to a cached value; indexes
    are consumed monotonically per subscriber, so eviction follows the
    minimum subscriber frontier per namespace.  ``cap`` bounds retained
    entries regardless (a paused subscriber must not pin unbounded
    state); evicting a still-needed entry only costs a recompute.
    """

    def __init__(self, key: str, stats: MQOStats, cap: int = 4096) -> None:
        self.key = key
        self._stats = stats
        self._cap = cap
        #: namespace -> {index -> value}.  Indexes are produced in
        #: ascending order per namespace, so each store's insertion
        #: order is (near-)sorted and watermark eviction pops from the
        #: front in O(evicted).
        self.entries: dict[str, dict[int, object]] = {
            namespace: {} for namespace in _NAMESPACES
        }
        #: query name -> namespace -> lowest index still needed.  A
        #: namespace appears only once the subscriber has advanced it: a
        #: recompute-only query never pins pane entries, and a pane-only
        #: query never pins window relations.  (Entries a subscriber
        #: still wanted are recomputed on miss — eviction is never a
        #: correctness question.)
        self.frontiers: dict[str, dict[str, int]] = {}

    @property
    def subscriber_count(self) -> int:
        return len(self.frontiers)

    @property
    def entry_count(self) -> int:
        return sum(len(store) for store in self.entries.values())

    def subscribe(self, query: str) -> None:
        self.frontiers.setdefault(query, {})

    def unsubscribe(self, query: str) -> None:
        self.frontiers.pop(query, None)

    def get(self, namespace: str, index: int):
        return self.entries[namespace].get(index)

    def put(self, namespace: str, index: int, value) -> None:
        store = self.entries[namespace]
        store[index] = value
        if len(store) > self._cap:
            # oldest-inserted first (ascending production order)
            del store[next(iter(store))]
            self._stats.entries_evicted += 1

    def advance(self, query: str, namespace: str, low: int) -> None:
        """Move one subscriber's frontier; evict entries no one needs."""
        frontier = self.frontiers.get(query)
        if frontier is None:
            return
        previous = frontier.get(namespace)
        if previous is not None and low <= previous:
            return
        frontier[namespace] = low
        floor = min(
            f[namespace] for f in self.frontiers.values() if namespace in f
        )
        store = self.entries[namespace]
        evicted = 0
        # front-of-store sweep: O(evicted), not O(entries).  A laggard
        # re-publishing an already-evicted low index lands at the back
        # and is reclaimed by the cap instead — eviction is best-effort
        # memory bounding, never correctness.
        while store:
            first = next(iter(store))
            if first >= floor:
                break
            del store[first]
            evicted += 1
        self._stats.entries_evicted += evicted


class SharedPipelineRegistry:
    """Signature key -> shared pipeline, with per-query subscriptions."""

    def __init__(self, cap_per_pipeline: int = 4096,
                 registry: MetricRegistry | None = None) -> None:
        self.stats = MQOStats(registry=registry)
        self._cap = cap_per_pipeline
        self._pipelines: dict[str, SharedPipeline] = {}

    @property
    def pipeline_count(self) -> int:
        return len(self._pipelines)

    @property
    def pipelines(self) -> dict[str, SharedPipeline]:
        return dict(self._pipelines)

    def subscribers(self) -> dict[str, tuple[str, ...]]:
        """Pipeline key -> sorted names of the queries subscribed to it.

        A read-only snapshot for diagnostics (sharing predictions, the
        plan-invariant verifier); never consulted by execution.
        """
        return {
            key: tuple(sorted(pipeline.frontiers))
            for key, pipeline in self._pipelines.items()
        }

    def _subscribe(self, key: str, query: str) -> SharedPipeline:
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = SharedPipeline(key, self.stats, self._cap)
            self._pipelines[key] = pipeline
            self.stats.pipelines_created += 1
        pipeline.subscribe(query)
        return pipeline

    def bind(self, signature: PlanSignature, query: str) -> MQOBinding:
        """Subscribe ``query`` to the pipelines its signature names."""
        relation_pipe = self._subscribe(signature.relation_key, query)
        aggregate_pipe = None
        if signature.aggregate_key is not None:
            aggregate_pipe = self._subscribe(signature.aggregate_key, query)
        side_pipes = tuple(
            (self._subscribe(side.key, query), side.alias_map)
            for side in signature.sides
        )
        return MQOBinding(
            query, self.stats, relation_pipe, aggregate_pipe,
            signature.alias_map, side_pipes, registry=self,
        )

    def _unsubscribe(self, pipeline: SharedPipeline, query: str) -> None:
        """Drop ``query``'s subscription; the last one drops the pipeline."""
        pipeline.unsubscribe(query)
        if (
            pipeline.subscriber_count == 0
            and self._pipelines.get(pipeline.key) is pipeline
        ):
            del self._pipelines[pipeline.key]
            self.stats.pipelines_released += 1

    # -- checkpoint support -------------------------------------------------

    def snapshot_pipelines(self) -> dict[str, dict]:
        """Picklable per-pipeline entries and subscriber frontiers.

        Pipeline keys (and their scope prefixes) are deterministic
        functions of the registered plans and of their static
        databases' write counters, so the same keys re-appear when the
        plans re-register after recovery over the same data and the
        snapshot overlays cleanly.
        """
        return {
            key: {
                "entries": {
                    namespace: dict(store)
                    for namespace, store in pipeline.entries.items()
                },
                "frontiers": {
                    query: dict(frontier)
                    for query, frontier in pipeline.frontiers.items()
                },
            }
            for key, pipeline in self._pipelines.items()
        }

    def restore_pipelines(self, snapshot: dict[str, dict]) -> None:
        """Overlay checkpointed entries/frontiers onto live pipelines.

        Only pipelines that exist (their subscribers re-registered) are
        touched, and only frontiers of live subscribers are restored —
        sharing is memoizing, so a missing overlay costs recomputation,
        never correctness.
        """
        for key, state in snapshot.items():
            pipeline = self._pipelines.get(key)
            if pipeline is None:
                continue
            pipeline.entries = {
                namespace: dict(store)
                for namespace, store in state["entries"].items()
            }
            for query, frontier in state["frontiers"].items():
                if query in pipeline.frontiers:
                    pipeline.frontiers[query] = dict(frontier)


@dataclass
class MQOBinding:
    """One query's handle on its shared pipelines.

    Relations are published under canonical column names (``s0.val``,
    ``t0.kind``) and translated back through the subscriber's own alias
    map on read; partial-payload maps are alias-free (group-key values to
    payload tuples) and interchange directly.  ``side_pipes`` (two-stream
    join plans) hold one pipeline per stream side for the shared
    per-(side, pane) :class:`PaneSideEntry` prefixes.
    """

    query: str
    stats: MQOStats
    relation_pipe: SharedPipeline
    aggregate_pipe: SharedPipeline | None
    alias_map: dict[str, str]
    side_pipes: tuple[tuple[SharedPipeline, dict[str, str]], ...] = ()
    #: the registry the subscriptions were taken in (``None`` once
    #: released)
    registry: SharedPipelineRegistry | None = None
    _from_canon: dict[str, str] = field(init=False)
    _side_from_canon: tuple[dict[str, str], ...] = field(init=False)

    def __post_init__(self) -> None:
        self._from_canon = {v: k for k, v in self.alias_map.items()}
        self._side_from_canon = tuple(
            {v: k for k, v in side_map.items()}
            for _, side_map in self.side_pipes
        )

    def release(self) -> None:
        """Give back every subscription this binding took (idempotent)."""
        registry, self.registry = self.registry, None
        if registry is None:
            return
        pipes = [self.relation_pipe, self.aggregate_pipe]
        pipes += [pipe for pipe, _ in self.side_pipes]
        for pipe in pipes:
            # a self-join's two sides may name one pipeline: a second
            # unsubscribe is a no-op
            if pipe is not None:
                registry._unsubscribe(pipe, self.query)

    def _rename(self, columns: list[str], mapping: dict[str, str]) -> list[str]:
        out: list[str] = []
        for column in columns:
            alias, dot, name = column.partition(".")
            if dot and alias in mapping:
                out.append(f"{mapping[alias]}.{name}")
            else:
                out.append(column)
        return out

    # -- relation tier -------------------------------------------------------

    def relation(self, namespace: str, index: int) -> Relation | None:
        cached = self.relation_pipe.get(namespace, index)
        if cached is None:
            self.stats.relation_misses += 1
            return None
        self.stats.relation_hits += 1
        assert isinstance(cached, Relation)
        return Relation(
            self._rename(cached.columns, self._from_canon), cached.rows
        )

    def put_relation(
        self, namespace: str, index: int, relation: Relation
    ) -> None:
        if self.relation_pipe.subscriber_count < 2:
            # nobody to share with: publishing (a renamed Relation copy
            # per pane) would be pure overhead for every uniquely-shaped
            # query; a later mid-flight joiner recomputes on miss.
            return
        self.relation_pipe.put(
            namespace,
            index,
            Relation(
                self._rename(relation.columns, self.alias_map), relation.rows
            ),
        )

    # -- side tier (two-stream pane joins) -----------------------------------

    def side_entry(
        self, side: int, namespace: str, index: int
    ) -> tuple[PaneSideEntry, Relation] | None:
        """A shared side-pane prefix, with its relation renamed into this
        subscriber's alias (the entry's hash tables are shared as-is:
        they cache by resolved column positions, not names)."""
        if side >= len(self.side_pipes):
            return None
        cached = self.side_pipes[side][0].get(namespace, index)
        if cached is None:
            self.stats.relation_misses += 1
            return None
        self.stats.relation_hits += 1
        assert isinstance(cached, PaneSideEntry)
        renamed = Relation(
            self._rename(cached.relation.columns, self._side_from_canon[side]),
            cached.relation.rows,
        )
        return cached, renamed

    def put_side_entry(
        self, side: int, namespace: str, index: int, entry: PaneSideEntry
    ) -> PaneSideEntry | None:
        """Publish a side-pane prefix; returns the canonical entry when
        published so the publisher adopts it too — one hash-table cache
        per pane, shared by publisher and subscribers alike."""
        if side >= len(self.side_pipes):
            return None
        pipe, side_map = self.side_pipes[side]
        if pipe.subscriber_count < 2:
            # nobody to share with (see ``put_relation``)
            return None
        canonical = PaneSideEntry(
            Relation(
                self._rename(entry.relation.columns, side_map),
                entry.relation.rows,
            )
        )
        pipe.put(namespace, index, canonical)
        return canonical

    def advance_side(self, side: int, namespace: str, low: int) -> None:
        """This query no longer needs side entries below ``low``."""
        if side < len(self.side_pipes):
            self.side_pipes[side][0].advance(self.query, namespace, low)

    # -- partial-aggregation tier --------------------------------------------

    def partials(self, namespace: str, index: int) -> dict | None:
        if self.aggregate_pipe is None:
            return None
        cached = self.aggregate_pipe.get(namespace, index)
        if cached is None:
            self.stats.partial_misses += 1
            return None
        self.stats.partial_hits += 1
        return cached

    def put_partials(self, namespace: str, index: int, state: dict) -> None:
        if (
            self.aggregate_pipe is not None
            and self.aggregate_pipe.subscriber_count > 1
        ):
            self.aggregate_pipe.put(namespace, index, state)

    # -- progress ------------------------------------------------------------

    def advance(self, namespace: str, low: int) -> None:
        """This query no longer needs entries below ``low``."""
        self.relation_pipe.advance(self.query, namespace, low)
        if self.aggregate_pipe is not None:
            self.aggregate_pipe.advance(self.query, namespace, low)
