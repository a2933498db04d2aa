"""The OPTIQUE platform: the one deployment object.

An :class:`OptiquePlatform` is the single place a deployment is wired —
one scheduler, one engine, one gateway — and the object an engineer
holds afterwards:

* **deployment assets** — ontology + mappings, either hand-curated or
  bootstrapped with BOOTOX (``bootstrap_from``) and then refined;
  static databases (``attach_database`` records their primary keys for
  the unfolder), streams and aggregate macros;
* **verification** — OWL 2 QL profile + mapping quality checks;
* **query processing** — STARQL in, enrichment → unfolding → SQL(+) →
  EXASTREAM execution, answers out, dashboard panels updated;
* **observation** — ``monitor()`` / ``metrics_snapshot()`` over the
  whole deployment.

There is one way to run a task: open a session
(:meth:`OptiquePlatform.session`, or :meth:`~OptiquePlatform.async_session`
for the asyncio executor), ``submit()`` STARQL text for a
:class:`~repro.optique.session.QueryHandle` with an explicit lifecycle
(pause/resume/cancel) and bounded result delivery
(``poll``/``subscribe``/``async for``), and drive the shared cooperative
executor with ``step(n)`` or ``await serve()``.  ``max_windows=`` on
``submit()`` bounds a task; ``sink_capacity=None`` keeps every result.

:func:`repro.siemens.deploy` builds the preconfigured Siemens platform;
the examples and the demo scenarios (S1-S3) use nothing else.
"""

from __future__ import annotations

from ..bootox import DirectMapper, ProvenanceCatalog, QualityReport, verify_deployment
from ..exastream import GatewayServer, Scheduler, StreamEngine
from ..mappings import MappingCollection
from ..obs import Monitor
from ..ontology import Ontology
from ..rdf import IRI, Namespace
from ..relational import Database, Schema
from ..siemens.dashboard import Dashboard
from ..starql import MacroRegistry, STARQLTranslator, parse_aggregate_macro
from ..streams import StreamSource
from .session import AsyncSession, Session

__all__ = ["OptiquePlatform"]


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
        #: the generated scenario behind the deployment, when
        #: :func:`repro.siemens.deploy` built it
        self.fleet = None
        self._translator: STARQLTranslator | None = None

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

    def _open(self, session_class, session_options):
        return session_class(
            lambda: self.translator,
            self.gateway,
            dashboard=self.dashboard,
            **session_options,
        )

    def session(self, **session_options) -> Session:
        """A client session issuing prepared queries and query handles.

        ``session_options`` go to :class:`~repro.optique.session.Session`
        (``sink_capacity=``, ``overflow=``, ``name=``).  Handles
        submitted through a session deliver results into bounded
        ring-buffer sinks (``poll``/``subscribe``) and update the
        platform dashboard as they execute.
        """
        return self._open(Session, session_options)

    def async_session(self, **session_options) -> AsyncSession:
        """An asyncio client session: ``await session.serve()`` drives
        pulses off the event loop while handles are consumed with
        ``async for result in handle`` (see :class:`AsyncSession`)."""
        return self._open(AsyncSession, session_options)

    def step(self, n_windows: int = 1) -> int:
        """Advance the cooperative executor; see ``GatewayServer.step``."""
        return self.gateway.step(n_windows)

    async def serve(self, **kwargs) -> int:
        """Drive the gateway's asyncio pulse loop; see
        :meth:`~repro.exastream.gateway.GatewayServer.serve`."""
        return await self.gateway.serve(**kwargs)

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self):
        """The deployment's merged registry snapshot (shards included)."""
        return self.gateway.metrics_snapshot()

    def monitor(self) -> Monitor:
        """The live monitoring surface over this deployment (S2).

        ``monitor().render()`` is the per-task throughput / latency /
        MQO-hit progress table, re-rendered per call from the registry.
        """
        return Monitor(self)
