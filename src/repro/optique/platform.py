"""The OPTIQUE platform facade.

One object wiring the full OBSSDI lifecycle end-to-end:

* **deployment assets** — ontology + mappings, either hand-curated or
  bootstrapped with BOOTOX (``bootstrap_from``) and then refined;
* **verification** — OWL 2 QL profile + mapping quality checks;
* **query processing** — STARQL in, enrichment → unfolding → SQL(+) →
  EXASTREAM execution, answers out, dashboards updated.

Query processing is session-based: :meth:`OptiquePlatform.session` yields
a :class:`~repro.optique.session.Session` whose ``prepare()`` caches
translations by normalized query text and whose ``submit()`` returns a
:class:`~repro.optique.session.QueryHandle` with an explicit lifecycle
(pause/resume/cancel) and bounded incremental result delivery
(``poll``/``subscribe``).  Execution is cooperative — ``step(n)``
interleaves every registered query — while the legacy batch pair
``register_task()`` + ``run()`` survives as a compatibility wrapper over
the same machinery.

This is the API the examples and the demo scenarios (S1-S3) use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bootox import DirectMapper, ProvenanceCatalog, QualityReport, verify_deployment
from ..exastream import (
    BoundedResultSink,
    GatewayServer,
    Scheduler,
    Stopwatch,
    StreamEngine,
)
from ..mappings import MappingCollection
from ..ontology import Ontology
from ..rdf import IRI, Namespace
from ..relational import Database, Schema
from ..siemens.dashboard import Dashboard
from ..starql import (
    MacroRegistry,
    STARQLTranslator,
    TranslationResult,
    parse_aggregate_macro,
)
from ..streams import StreamSource
from .session import AsyncSession, Session

__all__ = ["RegisteredTask", "OptiquePlatform"]


@dataclass
class RegisteredTask:
    """One continuous diagnostic task registered on the platform."""

    name: str
    translation: TranslationResult
    registered: object  # exastream.RegisteredQuery

    @property
    def fleet_size(self) -> int:
        return self.translation.fleet_size

    def alerts(self) -> list[tuple]:
        """CONSTRUCTed triples of the results retained by the task's sink.

        Results are routed through the query's bounded sink, so with a
        bounded sink this answers from the retained tail of most recent
        windows (bounded, predictable).
        """
        triples = []
        for result in self.registered.results():
            for row in result.rows:
                triples.extend(self.translation.construct.triples_for(row))
        return triples


class OptiquePlatform:
    """End-to-end OBSSDI system instance.

    ``engine_options`` go to the one engine constructor,
    :class:`~repro.exastream.contracts.Engine` (``shards=``,
    ``parallel=``, ``incremental=``, ``mqo=``, ``adaptive=`` ...).
    """

    def __init__(
        self,
        ontology: Ontology | None = None,
        mappings: MappingCollection | None = None,
        workers: int = 4,
        primary_keys: dict[str, tuple[str, ...]] | None = None,
        **engine_options,
    ) -> None:
        self.ontology = ontology or Ontology()
        self.mappings = mappings or MappingCollection()
        self.scheduler = Scheduler(workers)
        self.engine = StreamEngine(scheduler=self.scheduler, **engine_options)
        self.gateway = GatewayServer(self.engine, scheduler=self.scheduler)
        self.macros = MacroRegistry()
        self.dashboard = Dashboard()
        self.primary_keys = dict(primary_keys or {})
        self._translator: STARQLTranslator | None = None
        self._tasks: dict[str, RegisteredTask] = {}
        self._compat_session: Session | None = None

    # -- deployment assets ------------------------------------------------------

    def attach_database(self, name: str, database: Database) -> None:
        """Attach a static source and record its primary keys."""
        self.engine.attach_database(name, database)
        for table in database.schema:
            if table.primary_key:
                self.primary_keys[table.name] = table.primary_key
        self._translator = None

    def register_stream(self, source: StreamSource) -> None:
        self.engine.register_stream(source)

    def bootstrap_from(
        self,
        schema: Schema,
        database: Database,
        source_name: str,
        vocabulary: Namespace,
    ) -> QualityReport:
        """BOOTOX a static source into the deployment (S3 scenario)."""
        mapper = DirectMapper(vocabulary)
        result = mapper.bootstrap_schema(schema, source_name)
        self.ontology.extend(result.ontology.axioms)
        self.ontology.classes |= result.ontology.classes
        self.ontology.object_properties |= result.ontology.object_properties
        self.ontology.data_properties |= result.ontology.data_properties
        self.mappings.extend(result.mappings.assertions)
        self.attach_database(source_name, database)
        return self.verify()

    def register_macro(self, text: str) -> None:
        """Register a CREATE AGGREGATE macro from text."""
        self.macros.register(parse_aggregate_macro(text))
        self._translator = None

    def verify(self, workload_terms: set[IRI] | None = None) -> QualityReport:
        """Quality verification of the current assets."""
        return verify_deployment(self.ontology, self.mappings, workload_terms)

    def provenance(self) -> ProvenanceCatalog:
        """Provenance catalog over the current mappings."""
        return ProvenanceCatalog(self.mappings)

    # -- query processing -----------------------------------------------------------

    @property
    def translator(self) -> STARQLTranslator:
        if self._translator is None:
            self._translator = STARQLTranslator(
                self.ontology,
                self.mappings,
                self.engine,
                self.macros,
                primary_keys=self.primary_keys,
            )
        return self._translator

    def session(
        self,
        sink_capacity: int | None = 256,
        overflow: str = BoundedResultSink.DROP_OLDEST,
        name: str | None = None,
    ) -> Session:
        """A client session issuing prepared queries and query handles.

        Handles submitted through a session deliver results into bounded
        ring-buffer sinks (``poll``/``subscribe``) and update the platform
        dashboard as they execute.
        """
        return Session(
            lambda: self.translator,
            self.gateway,
            dashboard=self.dashboard,
            sink_capacity=sink_capacity,
            overflow=overflow,
            name=name,
        )

    def async_session(
        self,
        sink_capacity: int | None = 256,
        overflow: str = BoundedResultSink.DROP_OLDEST,
        name: str | None = None,
    ) -> AsyncSession:
        """An asyncio client session: ``await session.serve()`` drives
        pulses off the event loop while handles are consumed with
        ``async for result in handle`` (see :class:`AsyncSession`)."""
        return AsyncSession(
            lambda: self.translator,
            self.gateway,
            dashboard=self.dashboard,
            sink_capacity=sink_capacity,
            overflow=overflow,
            name=name,
        )

    async def serve(self, **kwargs) -> int:
        """Drive the gateway's asyncio pulse loop; see
        :meth:`~repro.exastream.gateway.GatewayServer.serve`."""
        return await self.gateway.serve(**kwargs)

    def register_task(
        self, starql_text: str, name: str | None = None
    ) -> RegisteredTask:
        """Translate and register one STARQL diagnostic task.

        Compatibility wrapper over the session API: translations are
        cached by normalized text, and the task keeps every result
        (unbounded sink) as the batch workflow expects.
        """
        if self._compat_session is None:
            self._compat_session = Session(
                lambda: self.translator,
                self.gateway,
                dashboard=self.dashboard,
                sink_capacity=None,
            )
        handle = self._compat_session.submit(starql_text, name=name)
        task = RegisteredTask(
            handle.name, handle.prepared.translation, handle.registered
        )
        self._tasks[task.name] = task
        return task

    def step(self, n_windows: int = 1) -> int:
        """Advance the cooperative executor; see ``GatewayServer.step``."""
        return self.gateway.step(n_windows)

    def run(self, max_windows: int | None = None) -> float:
        """Run all registered tasks to exhaustion (batch compatibility).

        Dashboard panels update as results arrive through each query's
        subscribers.  Returns wall-clock seconds.
        """
        watch = Stopwatch()
        while self.gateway.step(window_limit=max_windows):
            pass
        elapsed = watch.elapsed()
        self.engine.metrics.wall_seconds += elapsed
        return elapsed

    def task(self, name: str) -> RegisteredTask:
        return self._tasks[name]

    @property
    def tasks(self) -> list[RegisteredTask]:
        return list(self._tasks.values())

    def total_fleet_size(self) -> int:
        """Low-level queries generated across all registered tasks."""
        return sum(t.fleet_size for t in self._tasks.values())
