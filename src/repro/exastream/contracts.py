"""The two contracts every deployment shape implements.

One STARQL task runs on one node or on many, and nothing above the
engine may care which.  The gateway, the durability layer, the
estimator and the audit verifier program against two base classes
instead of probing for the shape they were handed:

* :class:`WindowExecutor` — a plan bound to engine resources.  A
  :class:`~repro.exastream.engine.PlanRuntime` executes windows itself;
  a :class:`~repro.exastream.sharded.ShardedPlanRuntime` coordinates one
  ``PlanRuntime`` per shard.  Pane state, demand references and MQO
  bindings always live in the *leaf* runtimes.
* :class:`Engine` — sources, static databases, ``bind``, the
  shared-reader catalog and the :class:`StaticCatalog`, for
  :class:`~repro.exastream.engine.StreamEngine` and
  :class:`~repro.exastream.sharded.ShardedEngine` alike.

Readers, caches and MQO pipelines are shared per **scope**, a ``(layout
n, key column, shard)`` triple: a one-node engine is the single scope
:data:`PLAIN_SCOPE`, a sharded engine adds one scope per layout slice.
Static relations do not depend on the stream layout, so one
:class:`StaticCatalog` serves every scope of an engine.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

from ..obs import MetricRegistry, Observability
from ..relational import Database
from ..streams import SharedWindowReader, StreamSource, WindowCache
from .operators import Relation, StaticTable
from .plan import ContinuousPlan
from .sharding import PartitionMode, analyze_partitioning
from .udf import UDFRegistry, builtin_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import PlanRuntime, WindowResult

__all__ = [
    "PLAIN_SCOPE",
    "Scope",
    "Catalog",
    "StaticKey",
    "StaticCatalog",
    "WindowExecutor",
    "Engine",
]

Scope = tuple[int, "str | None", int]
#: scope -> reader sharing key -> reader
Catalog = defaultdict[Scope, dict[str, SharedWindowReader]]

#: the unsharded scope: layout 1, no key column, shard 0
PLAIN_SCOPE: Scope = (1, None, 0)

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
    stay per view).  The database's write counter is part of
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
    def release_demand(self) -> None:
        """Drop every reader demand reference (idempotent)."""

    @abstractmethod
    def close(self) -> None:
        """Release execution resources — static-relation references,
        worker processes; idempotent."""

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


class Engine(ABC):
    """Sources, static databases, the shared-reader and static-relation
    catalogs, and ``bind``."""

    #: the widest layout ``bind`` accepts
    default_shards = 1

    def __init__(
        self,
        udfs: UDFRegistry | None,
        incremental: bool,
        mqo: bool,
        obs: Observability | None,
        adaptive: bool,
    ) -> None:
        self.udfs = udfs or builtin_registry()
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
        #: re-planning guards; every choice is demote-only
        self.adaptive = adaptive
        self.estimator = None
        if adaptive:
            from .estimator import StatisticsCatalog

            self.estimator = StatisticsCatalog(self)
        self._sources: dict[str, StreamSource] = {}
        self._databases: dict[str, Database] = {}
        #: the shared-reader catalog: queries with the same window grid
        #: in the same scope share materialised windows (the wCache
        #: behaviour).  The gateway reference-counts the sharing keys.
        self.catalog: Catalog = defaultdict(dict)
        #: the materialised static relations, shared by every runtime —
        #: in any scope — whose plan reads the same SQL
        self.static_catalog = StaticCatalog(self.obs.registry)
        #: the gateways registering queries on this engine (a recovered
        #: gateway may sit beside a live one); the audit sums their
        #: runtimes' references against :attr:`static_catalog`
        self.gateways: weakref.WeakSet = weakref.WeakSet()

    # -- sources and static databases ---------------------------------------

    def register_stream(self, source: StreamSource) -> None:
        """Register a stream source under its stream name."""
        self._sources[source.stream.name] = source
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

    def release_reader(self, key: str) -> None:
        """Drop a shared reader from every scope (its last query left)."""
        for readers in self.catalog.values():
            readers.pop(key, None)

    def shared_reader(
        self, readers: dict, ref, plan: ContinuousPlan, scope: Scope,
        key_index: int | None = None,
    ) -> SharedWindowReader:
        """``scope``'s reader for one windowed input of ``plan``: the
        one already in ``readers`` (shared by another query, or resumed
        from a checkpoint), else a new one over the scope's slice."""
        key = self.shared_reader_key(ref, plan)
        reader = readers.get(key)
        if reader is None:
            n, _key_column, shard = scope
            source, anchor = self.reader_source(ref.stream, scope, key_index)
            reader = readers[key] = SharedWindowReader(
                # The cache identity encodes the partition layout: a
                # shard's WindowCache is shared across layouts, and a
                # full-stream reader and a slice reader would otherwise
                # serve each other's batches for the same window.
                key if n == 1 else f"{key}#p{n}k{key_index}s{shard}",
                source,
                ref.spec,
                self._sources[ref.stream].stream.schema.time_index,
                self.scope_cache(scope),
                start=plan.start if plan.start is not None else anchor,
            )
        return reader

    @staticmethod
    def shared_reader_key(ref, plan: ContinuousPlan) -> str:
        """Sharing identity of one windowed input.

        The pulse anchor is part of the identity: two queries only share
        materialised windows when their grids coincide.  The gateway
        reference-counts shared readers across queries by these keys.
        """
        return f"{ref.reader_key}@{plan.start}"

    @property
    @abstractmethod
    def caches(self) -> list[WindowCache]:
        """The window caches, by shard."""

    def scope_cache(self, scope: Scope) -> WindowCache:
        """The window cache the scope's readers materialise into."""
        return self.caches[scope[2]]

    def reader_source(
        self, stream: str, scope: Scope, key_index: int | None
    ) -> tuple[Callable[[], Iterator], float | None]:
        """``(replayable tuple factory, default pulse anchor)`` of the
        scope's slice of ``stream`` (``key_index``: partition column).
        A one-shard scope reads the full stream, anchored by the plan."""
        source = self._sources.get(stream)
        if source is None:
            raise KeyError(f"stream {stream!r} is not registered")
        return (lambda: iter(source)), None

    # -- binding and execution ----------------------------------------------

    def resolve_shards(self, plan: ContinuousPlan, shards: int | None) -> int:
        """The layout a ``bind(plan, shards=shards)`` would use."""
        decision = plan.partitioning or analyze_partitioning(plan, self)
        if decision.mode is PartitionMode.SINGLETON:
            return 1
        n = shards if shards is not None else self.default_shards
        if n < 1:
            raise ValueError("need at least one shard")
        if n > self.default_shards:
            raise ValueError(
                f"shards={n} exceeds the engine's pool of "
                f"{self.default_shards} (a ShardedEngine provides more)"
            )
        return n

    def bind(
        self, plan: ContinuousPlan, shards: int | None = None, mqo=None,
        **layout,
    ) -> WindowExecutor:
        """Bind a plan to sources/databases over the shared catalog.

        ``mqo`` is the gateway's shared-pipeline registry, which the
        engine scopes per layout slice; ``layout`` takes shape-specific
        keywords (a sharded engine's ``parallel=``).  A bind that raises
        leaves the catalogs as it found them.
        """
        before = {scope: len(readers) for scope, readers in self.catalog.items()}
        try:
            return self._bind(plan, shards, mqo, self.catalog, **layout)
        except Exception:
            # Readers this bind created have no query to release them;
            # a bind only ever adds, so they are each scope's newest.
            for scope, readers in self.catalog.items():
                while len(readers) > before.get(scope, 0):
                    readers.popitem()
            raise

    @abstractmethod
    def _bind(self, plan, shards, mqo, catalog: Catalog) -> WindowExecutor:
        """``bind`` over ``catalog[scope]`` reader dictionaries."""

    def metrics_snapshot(self):
        """A picklable point-in-time copy of the engine's registries."""
        return self.obs.registry.snapshot()

    def run_continuous(
        self,
        plan: ContinuousPlan,
        max_windows: int | None = None,
        shards: int | None = None,
        **layout,
    ) -> Iterator[WindowResult]:
        """Execute one plan until stream end (or ``max_windows``) over
        private readers — nothing enters the shared catalog."""
        runtime = self._bind(plan, shards, None, defaultdict(dict), **layout)
        try:
            window_id = 0
            while max_windows is None or window_id < max_windows:
                result = runtime.execute_window(window_id)
                if result is None:
                    return
                yield result
                window_id += 1
        finally:
            runtime.release_demand()
            runtime.close()
