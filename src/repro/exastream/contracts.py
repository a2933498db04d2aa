"""The two contracts the layers above the engine program against.

One STARQL task runs on one node or on many, and nothing above the
engine may care which: the deployment's width is a number.  The
gateway, the durability layer, the estimator and the audit verifier
see two base classes:

* :class:`WindowExecutor` — a plan bound to engine resources.  A
  :class:`~repro.exastream.engine.PlanRuntime` executes windows itself;
  a :class:`~repro.exastream.sharded.ShardedPlanRuntime` coordinates one
  ``PlanRuntime`` per shard.  Pane state, demand references and MQO
  bindings always live in the *leaf* runtimes.
* :class:`Engine` — an engine of ``shards`` nodes: one source registry,
  one database registry, the shared-reader catalog, the
  :class:`StaticCatalog`, one :class:`Node` record per node, and
  ``bind``.  :class:`~repro.exastream.engine.StreamEngine` is the one
  concrete engine; it adds what needs the runtime classes.

Readers, caches and MQO pipelines are shared per **scope**, a ``(layout
n, key column, shard)`` triple: a plan laid out over one node lives in
:data:`PLAIN_SCOPE`, an ``n``-node layout adds one scope per slice, and
node *i* serves every scope whose shard index is *i*.  Static relations
do not depend on the stream layout, so one :class:`StaticCatalog`
serves every scope of an engine.

**One teardown.**  A runtime owns what it holds: every shared resource a
binding takes — reader references (:class:`ReaderCatalog`), reader
demand, static-relation references (:class:`StaticCatalog`), MQO
subscriptions, worker processes — is recorded on the runtime that took
it, and :meth:`WindowExecutor.close` gives all of it back.  ``close`` is
idempotent and is the only release path: a deregistration calls it, a
bind that raises calls it on the leaves it had built, and neither the
engine nor the gateway keeps a second record of what a query holds.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import InvalidOption
from ..obs import MetricRegistry, Observability
from ..relational import Database
from ..streams import SharedWindowReader, StreamSource, WindowCache
from .metrics import EngineMetrics
from .operators import Relation, StaticTable
from .plan import ContinuousPlan
from .sharding import PartitionMode, partitioned_tuples
from .udf import UDFRegistry, builtin_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import PlanRuntime, WindowResult

__all__ = [
    "PLAIN_SCOPE",
    "Scope",
    "ReaderCatalog",
    "StaticKey",
    "StaticCatalog",
    "WindowExecutor",
    "Node",
    "Engine",
]

Scope = tuple[int, "str | None", int]

#: the unsharded scope: layout 1, no key column, shard 0
PLAIN_SCOPE: Scope = (1, None, 0)


class ReaderCatalog(defaultdict):
    """The shared window readers, ``scope -> sharing key -> reader``,
    reference-counted per ``(scope, key)`` by the leaf runtimes bound
    over them.

    Queries with the same window grid in the same scope share one
    reader (the wCache behaviour); the reader is dropped when the last
    runtime holding its key closes.  Checkpoint recovery seeds resumed
    readers straight into ``catalog[scope]`` before it re-registers the
    queries, whose binds then adopt (and reference) them.
    """

    def __init__(self) -> None:
        super().__init__(dict)
        self._refs: Counter[tuple[Scope, str]] = Counter()

    @property
    def refs(self) -> dict[tuple[Scope, str], int]:
        """Live references per ``(scope, key)`` (the audit compares them
        to the registered runtimes' own records)."""
        return dict(self._refs)

    def acquire(
        self, scope: Scope, key: str, build: Callable[[], SharedWindowReader]
    ) -> SharedWindowReader:
        """Take a reference on ``scope``'s reader for ``key``, building
        it on first use.  A failing ``build`` records nothing."""
        readers = self[scope]
        reader = readers.get(key)
        if reader is None:
            reader = readers[key] = build()
        self._refs[scope, key] += 1
        return reader

    def release(self, scope: Scope, key: str) -> None:
        """Drop one reference; the last one drops the reader."""
        self._refs[scope, key] -= 1
        if not self._refs[scope, key]:
            del self._refs[scope, key]
            self[scope].pop(key, None)

#: (database, static SQL text, the database's write counter at
#: materialisation time)
StaticKey = tuple[Database, str, int]


class StaticCatalog:
    """The engine's materialised static relations, one per
    ``(database, SQL text)``, reference-counted by the runtimes bound
    over them.

    The static side of a fleet is evaluated once and probed by many
    continuous queries: every query, alias, session and shard whose
    plan names the same SQL on the same database shares one row list
    (through :meth:`StaticTable.view`; the lazily built hash indexes
    stay per view).  A STARQL task arrives as one SQL text per piece of
    its WHERE pattern — each a relation describing one streamed entity,
    which the runtime probes as that stream's *lookup*
    (:meth:`~repro.exastream.plan.ContinuousPlan.lookups`) — so what is
    held grows with the entities, not with their combinations.  The
    database's write counter is part of
    the key, so a ``Database.insert`` makes the *next* registration
    materialise afresh while live runtimes keep the rows they bound;
    an entry is dropped when its last runtime closes.
    """

    def __init__(self, registry: MetricRegistry) -> None:
        self._tables: dict[StaticKey, StaticTable] = {}
        self._refs: dict[StaticKey, int] = {}
        self._materialised = registry.counter(
            "static_relations_materialised_total"
        )
        self._shared = registry.counter("static_relations_shared_total")
        self._rows = registry.gauge("static_relation_rows")

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def refs(self) -> dict[StaticKey, int]:
        """Live references per entry (the audit compares them to the
        registered runtimes' own records)."""
        return dict(self._refs)

    def peek(self, database: Database, sql: str) -> tuple[StaticKey, StaticTable | None]:
        """The key a bind would use now, and its entry if one is live."""
        key = (database, sql, database.version)
        return key, self._tables.get(key)

    def acquire(self, database: Database, sql: str) -> tuple[StaticKey, StaticTable]:
        """Take a reference on the relation of ``sql``, materialising it
        on first use.  A failing query records nothing."""
        key, table = self.peek(database, sql)
        if table is None:
            names, rows = database.query_with_names(sql)
            table = self._tables[key] = StaticTable(Relation(names, rows))
            self._refs[key] = 0
            self._materialised.value += 1
            self._rows.value += len(rows)
        else:
            self._shared.value += 1
        self._refs[key] += 1
        return key, table

    def release(self, key: StaticKey) -> None:
        """Drop one reference; the last one drops the entry."""
        self._refs[key] -= 1
        if not self._refs[key]:
            del self._refs[key]
            self._rows.value -= len(self._tables.pop(key).relation.rows)


class WindowExecutor(ABC):
    """A plan bound to engine resources, executed window by window."""

    plan: ContinuousPlan

    @abstractmethod
    def execute_window(self, window_id: int) -> WindowResult | None:
        """Run window ``window_id`` (ids never decrease across calls);
        ``None`` once any input stream is exhausted."""

    @property
    @abstractmethod
    def leaf_runtimes(self) -> list[PlanRuntime]:
        """The runtimes holding this binding's pane state, demand
        references and MQO bindings (a ``PlanRuntime`` is its own)."""

    @abstractmethod
    def close(self) -> None:
        """The one teardown: give back everything this binding holds —
        reader demand, reader references, static-relation references,
        MQO subscriptions, worker processes.  Idempotent."""

    @abstractmethod
    def demote(self, reason: str = "cost-based demotion") -> bool:
        """Permanently retire the pane tier; ``False`` when there is
        none to retire (or it cannot be reached)."""

    @property
    @abstractmethod
    def demoted(self) -> bool: ...

    @property
    @abstractmethod
    def last_pane_stats(self) -> tuple[int, int, int] | None:
        """``(reused, fresh, panes)`` tuple counts of the last window
        when a pane tier served it — the re-planning guard's feed."""

    @abstractmethod
    def snapshot_state(self) -> dict: ...

    @abstractmethod
    def restore_state(self, state: dict) -> None: ...


@dataclass(frozen=True)
class Node:
    """What one node of a deployment owns.  Everything else — sources,
    databases, both catalogs — lives once, on the engine."""

    #: the window cache (wCache) the node's readers materialise into
    cache: WindowCache
    #: the bundle the node's runtimes count and trace through
    obs: Observability
    #: per-query counter views over ``obs.registry``
    metrics: EngineMetrics


class Engine(ABC):
    """One deployment of ``shards`` nodes: sources, static databases,
    the shared-reader and static-relation catalogs, the per-node
    records, and ``bind``.

    ``shards`` is the deployment's width; each ``bind`` may lay a plan
    out over any ``1..shards`` of the nodes.  ``parallel="fork"`` runs
    the shards of a multi-node binding in forked worker processes
    (Linux/macOS); the default (``None`` or ``"serial"``) runs them
    in-process, which is deterministic and cheap for small queries; any
    other value is an :class:`~repro.errors.InvalidOption`.
    ``scheduler`` receives the shard assignments and observed per-shard
    load of such bindings.
    """

    def __init__(
        self,
        shards: int = 1,
        udfs: UDFRegistry | None = None,
        cache_capacity: int = 4096,
        parallel: str | None = None,
        scheduler=None,
        incremental: bool = True,
        mqo: bool = True,
        obs: Observability | None = None,
        adaptive: bool = False,
    ) -> None:
        if shards < 1:
            raise InvalidOption("need at least one shard")
        if parallel not in (None, "serial", "fork"):
            raise InvalidOption(
                f"parallel={parallel!r}: expected None, 'serial' or 'fork'"
            )
        #: the widest layout ``bind`` accepts
        self.default_shards = shards
        self.udfs = udfs or builtin_registry()
        self.parallel = parallel
        self.scheduler = scheduler
        #: the metric registry every counter view writes through, plus
        #: the (off-by-default) tracer
        self.obs = obs if obs is not None else Observability()
        #: run PANE-INCREMENTAL / PANE_JOIN plans on their pane tier
        #: (``False`` binds every plan recompute-only — the independent
        #: path the differential tests compare against)
        self.incremental = incremental
        #: allow shared-subplan execution across registered queries
        self.mqo = mqo
        #: cost-based adaptive planning: the gateway costs each
        #: registration against :attr:`estimator` and attaches mid-flight
        #: re-planning guards; every choice is demote-only.  The
        #: estimator samples through this engine's one source registry,
        #: so registration-time choices do not depend on the width.
        self.adaptive = adaptive
        self.estimator = None
        if adaptive:
            from .estimator import StatisticsCatalog

            self.estimator = StatisticsCatalog(self)
        self._sources: dict[str, StreamSource] = {}
        self._databases: dict[str, Database] = {}
        #: stream name -> (materialised tuples, first ts, last ts), for
        #: the partitioned slices multi-node layouts read
        self._materialized: dict[
            str, tuple[list[tuple], float | None, float | None]
        ] = {}
        #: the shared-reader catalog: queries with the same window grid
        #: in the same scope share materialised windows (the wCache
        #: behaviour), each leaf runtime holding a reference per input
        self.catalog = ReaderCatalog()
        #: the materialised static relations, shared by every runtime —
        #: in any scope — whose plan reads the same SQL
        self.static_catalog = StaticCatalog(self.obs.registry)
        #: the gateways registering queries on this engine (a recovered
        #: gateway may sit beside a live one); the audit sums their
        #: runtimes' references against :attr:`static_catalog`
        self.gateways: weakref.WeakSet = weakref.WeakSet()
        # One node keeps its books in the engine's own bundle, so a
        # plain deployment's registry, exports and span attributes carry
        # no shard.  N nodes count into per-shard views that
        # ``metrics_snapshot`` merges, and the engine's own
        # :attr:`metrics` holds the merged per-query window/tuple totals
        # on a *private* registry: the same work is already counted
        # node-side, and snapshots must not double-report it.
        views = (
            [self.obs] if shards == 1
            else [self.obs.shard_view(shard) for shard in range(shards)]
        )
        #: node *i* serves every scope whose shard index is *i*
        self.nodes = [
            Node(
                WindowCache(cache_capacity), view,
                EngineMetrics(registry=view.registry),
            )
            for view in views
        ]
        #: node 0's window cache (the one-node layout's)
        self.cache = self.nodes[0].cache
        self.metrics = self.nodes[0].metrics if shards == 1 else EngineMetrics()
        #: the live multi-node runtimes: their fork workers ship metric
        #: deltas into :meth:`metrics_snapshot` and end with :meth:`close`
        self._runtimes: weakref.WeakSet = weakref.WeakSet()

    # -- sources and static databases ---------------------------------------

    def register_stream(self, source: StreamSource) -> None:
        """Register a stream source under its stream name."""
        self._sources[source.stream.name] = source
        self._materialized.pop(source.stream.name, None)
        if self.estimator is not None:
            self.estimator.invalidate(source.stream.name)

    def attach_database(self, name: str, database: Database) -> None:
        """Attach a static database under a source name."""
        self._databases[name] = database

    def stream(self, name: str) -> StreamSource:
        return self._sources[name]

    def database(self, name: str) -> Database:
        return self._databases[name]

    @property
    def databases(self) -> list[Database]:
        return list(self._databases.values())

    def locate_table(self, table: str) -> str | None:
        """The attached database containing ``table``, or ``None``."""
        for name, database in self._databases.items():
            if table in database.schema:
                return name
        return None

    @property
    def stream_names(self) -> set[str]:
        return set(self._sources)

    # -- the reader catalog and its per-scope resources ---------------------

    @property
    def shared_reader_count(self) -> int:
        return sum(len(readers) for readers in self.catalog.values())

    def shared_reader(
        self, catalog: ReaderCatalog, ref, plan: ContinuousPlan, scope: Scope
    ) -> SharedWindowReader:
        """Take a reference on ``scope``'s reader for one windowed input
        of ``plan`` in ``catalog``: the one already there (shared by
        another query, or resumed from a checkpoint), else a new one
        over the scope's slice.  The caller records
        :meth:`shared_reader_key` and releases it through the catalog."""
        n, _key_column, shard = scope
        key = self.shared_reader_key(ref, plan)
        # the partition column of a multi-node layout's slice
        key_index = (
            plan.partitioning.stream_keys.get(ref.stream) if n > 1 else None
        )

        def build() -> SharedWindowReader:
            source, anchor = self.reader_source(ref.stream, scope, key_index)
            return SharedWindowReader(
                # The cache identity encodes the partition layout: a
                # node's WindowCache is shared across layouts, and a
                # full-stream reader and a slice reader would otherwise
                # serve each other's batches for the same window.
                key if n == 1 else f"{key}#p{n}k{key_index}s{shard}",
                source,
                ref.spec,
                self._sources[ref.stream].stream.schema.time_index,
                self.scope_cache(scope),
                start=plan.start if plan.start is not None else anchor,
            )

        return catalog.acquire(scope, key, build)

    @staticmethod
    def shared_reader_key(ref, plan: ContinuousPlan) -> str:
        """Sharing identity of one windowed input.

        The pulse anchor is part of the identity: two queries only share
        materialised windows when their grids coincide.
        """
        return f"{ref.reader_key}@{plan.start}"

    @property
    def caches(self) -> list[WindowCache]:
        """The window caches, by node."""
        return [node.cache for node in self.nodes]

    def scope_cache(self, scope: Scope) -> WindowCache:
        """The window cache the scope's readers materialise into."""
        return self.nodes[scope[2]].cache

    def reader_source(
        self, stream: str, scope: Scope, key_index: int | None
    ) -> tuple[Callable[[], Iterator], float | None]:
        """``(replayable tuple factory, default pulse anchor)`` of the
        scope's slice of ``stream`` (``key_index``: partition column).
        A one-shard scope reads the full stream, anchored by the plan."""
        source = self._sources.get(stream)
        if source is None:
            raise KeyError(f"stream {stream!r} is not registered")
        n, _key_column, shard = scope
        if n == 1:
            return (lambda: iter(source)), None
        cached = self._materialized.get(stream)
        if cached is None:
            data = list(iter(source))
            time_index = source.stream.schema.time_index
            first = data[0][time_index] if data else None
            last = data[-1][time_index] if data else None
            cached = self._materialized[stream] = (data, first, last)
        data, first_ts, last_ts = cached
        return partitioned_tuples(data, shard, n, key_index, last_ts), first_ts

    # -- binding and execution ----------------------------------------------

    def resolve_shards(self, plan: ContinuousPlan, shards: int | None) -> int:
        """The layout a ``bind(plan, shards=shards)`` would use."""
        if plan.partitioning.mode is PartitionMode.SINGLETON:
            return 1
        n = shards if shards is not None else self.default_shards
        if n < 1:
            raise InvalidOption("need at least one shard")
        if n > self.default_shards:
            raise InvalidOption(
                f"shards={n} exceeds the engine's pool of "
                f"{self.default_shards} (build the engine with a larger "
                "shards=)"
            )
        return n

    def bind(
        self, plan: ContinuousPlan, shards: int | None = None, mqo=None
    ) -> WindowExecutor:
        """Bind a plan to sources/databases over the shared catalog.

        ``mqo`` is the gateway's shared-pipeline registry, which the
        engine scopes per layout slice.  A bind that raises has closed
        the leaves it built, so the catalogs are as it found them.
        """
        return self._bind(plan, shards, mqo, self.catalog)

    @abstractmethod
    def _bind(
        self, plan, shards, mqo, catalog: ReaderCatalog
    ) -> WindowExecutor:
        """``bind`` over ``catalog`` — the one part of the contract this
        module cannot state, because it builds the runtimes
        (:class:`~repro.exastream.engine.StreamEngine`).  A multi-node
        runtime is added to :attr:`_runtimes`."""

    def metrics_snapshot(self):
        """A picklable point-in-time copy of the engine's registries,
        merged into one snapshot.

        Per-mode merge folds the nodes: work counters (tuples, panes,
        MQO hits) sum across shards, window counters and wall clocks
        take the max — every shard executes the same window ids over
        overlapping wall time.  Fork workers additionally ship their
        post-fork registry deltas back over the worker pipe.
        """
        snapshot = self.obs.registry.snapshot()
        if len(self.nodes) > 1:
            for node in self.nodes:
                snapshot = snapshot.merge(node.obs.registry.snapshot())
        for runtime in self._runtimes:
            for shard_snapshot in runtime.metric_snapshots():
                snapshot = snapshot.merge(shard_snapshot)
        return snapshot

    def close(self) -> None:
        """Terminate every live shard worker (forked processes)."""
        for runtime in list(self._runtimes):
            runtime.close()

    def __enter__(self) -> Engine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_continuous(
        self,
        plan: ContinuousPlan,
        max_windows: int | None = None,
        shards: int | None = None,
    ) -> Iterator[WindowResult]:
        """Execute one plan until stream end (or ``max_windows``) over
        private readers — nothing enters the shared catalog."""
        runtime = self._bind(plan, shards, None, ReaderCatalog())
        try:
            window_id = 0
            while max_windows is None or window_id < max_windows:
                result = runtime.execute_window(window_id)
                if result is None:
                    return
                yield result
                window_id += 1
        finally:
            runtime.close()
