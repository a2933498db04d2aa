"""Session-based query lifecycle over the OPTIQUE facade.

The paper's continuous diagnostic tasks are registered through the
Asynchronous Gateway Server and live indefinitely; a batch
run-to-exhaustion API cannot serve that shape under multi-tenant load.
This module is the client-facing lifecycle layer on top of the gateway's
cooperative executor:

* :class:`Session` — issued by ``OptiquePlatform.session()``; prepares
  STARQL text into cached translations and submits them as query
  handles;
* :class:`PreparedQuery` — parse + translate exactly once per normalized
  query text, reusable across submissions and sessions;
* :class:`QueryHandle` — explicit lifecycle (``REGISTERED → RUNNING →
  PAUSED/CANCELLED/COMPLETED``) with incremental, bounded result
  delivery: pull via ``poll(max_results=n)`` (ring-buffer sink) or
  ``subscribe(callback)``, push via the await-able ``stream()`` /
  ``async for result in handle`` event-bus surface.  Handles are
  context managers: leaving the block cancels and deregisters.
* :class:`AsyncSession` — the asyncio entry point: ``await
  session.serve()`` drives pulses off the event loop while any number
  of ``async for`` consumers await their own bounded queues, so idle
  dashboard sessions cost nothing between results.

Execution is either cooperative — ``session.step(n)`` (delegating to
:meth:`~repro.exastream.gateway.GatewayServer.step`) advances every
runnable query round-robin, so many sessions interleave on one gateway
without any call blocking to exhaustion — or event-driven via
``serve()``; both deliver byte-identical results in identical per-query
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..errors import QueryNotFound
from ..exastream import BoundedResultSink, GatewayServer, QueryState, WindowResult
from ..exastream.bus import Subscription
from ..exastream.gateway import RegisteredQuery

if TYPE_CHECKING:
    from ..starql import STARQLTranslator, TranslationResult

__all__ = ["PreparedQuery", "QueryHandle", "Session", "AsyncSession"]

_session_counter = itertools.count(1)
_INHERIT = object()  # sentinel: submit() inherits the session's sink config


@dataclass(frozen=True)
class PreparedQuery:
    """A STARQL query parsed and translated once, reusable many times."""

    text: str  # normalized query text — the translation-cache key
    translation: TranslationResult

    @property
    def fleet_size(self) -> int:
        return self.translation.fleet_size

    @property
    def sql(self) -> str:
        """The SQL(+) program the engine runs for this query."""
        return self.translation.sql


class QueryHandle:
    """One submitted continuous query with an explicit lifecycle."""

    def __init__(
        self,
        session: Session,
        prepared: PreparedQuery,
        registered: RegisteredQuery,
    ) -> None:
        self.session = session
        self.prepared = prepared
        self.registered = registered

    @property
    def name(self) -> str:
        return self.registered.name

    @property
    def state(self) -> QueryState:
        """The handle's lifecycle state (the one canonical accessor)."""
        return self.registered.state

    @property
    def windows_executed(self) -> int:
        return self.registered.next_window

    @property
    def sink(self) -> BoundedResultSink:
        return self.registered.sink

    # -- lifecycle ----------------------------------------------------------

    def pause(self) -> None:
        self.registered.pause()

    def resume(self) -> None:
        self.registered.resume()

    def cancel(self) -> None:
        self.registered.cancel()

    def close(self) -> None:
        """Cancel and deregister this handle (idempotent).

        The terminal transition happens exactly once even when a
        subscriber callback closes the handle mid-delivery; gateway
        resources (shared readers, MQO subscriptions, scheduler
        placements, bus topic) are released.
        """
        self.registered.cancel()
        gateway = self.session.gateway
        if self.name in gateway:
            gateway.deregister(self.name)
        self.session._handles.pop(self.name, None)

    def __enter__(self) -> QueryHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- result delivery ----------------------------------------------------

    def poll(self, max_results: int | None = None) -> list[WindowResult]:
        """Drain up to ``max_results`` window results, oldest first."""
        return self.registered.poll(max_results)

    def subscribe(self, callback: Callable[[WindowResult], None]) -> None:
        """Register a per-handle result callback."""
        self.registered.subscribe(callback)

    def stream(
        self,
        capacity: int | None = None,
        policy: str | None = None,
    ) -> Subscription:
        """An await-able subscription to this handle's future results.

        Iterate with ``async for result in handle.stream()`` (or the
        shorthand ``async for result in handle``, which consumes to the
        end); iteration finishes once the query reaches a terminal
        state and the queue drains.  Each subscription owns its bounded
        queue — ``capacity``/``policy`` default to the handle's sink
        configuration, so a ``block`` policy back-pressures the serving
        executor per subscriber while ``drop_oldest`` keeps slow
        consumers from stalling anyone.  Close partially consumed
        subscriptions (``async with handle.stream() as sub`` or
        ``sub.close()``) to release the topic reference; cancelling a
        task awaiting the subscription releases it too.
        """
        return self.registered.stream(capacity=capacity, policy=policy)

    def __aiter__(self) -> Subscription:
        return self.stream()

    def stats(self) -> dict:
        """This handle's registry series, flattened (windows, tuples,
        throughput, latency percentiles, MQO hits) — one row of the
        session's :meth:`Session.metrics` report."""
        from ..obs.monitor import query_stats

        return query_stats(self.session.metrics_snapshot(), self.name)

    def alerts(self, max_results: int | None = None) -> list[tuple]:
        """Drain up to ``max_results`` results into CONSTRUCTed triples."""
        construct = self.prepared.translation.construct
        triples: list[tuple] = []
        for result in self.poll(max_results):
            for row in result.rows:
                triples.extend(construct.triples_for(row))
        return triples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryHandle({self.name!r}, {self.state.value}, "
            f"windows={self.windows_executed}, buffered={len(self.sink)})"
        )


class Session:
    """A client session: prepared queries and handles on a shared gateway.

    ``sink_capacity``/``overflow`` configure the bounded ring-buffer sink
    every submitted handle gets (overridable per submit); ``translator``
    may be a :class:`~repro.starql.STARQLTranslator` or a zero-argument
    callable returning one (so deployments that rebuild their translator
    stay consistent).
    """

    def __init__(
        self,
        translator,
        gateway: GatewayServer,
        dashboard=None,
        sink_capacity: int | None = 256,
        overflow: str = BoundedResultSink.DROP_OLDEST,
        name: str | None = None,
    ) -> None:
        self._translator = translator
        self.gateway = gateway
        self.dashboard = dashboard
        self.sink_capacity = sink_capacity
        self.overflow = overflow
        self.name = name or f"session{next(_session_counter)}"
        self._handles: dict[str, QueryHandle] = {}

    @property
    def translator(self) -> STARQLTranslator:
        translator = self._translator
        return translator() if callable(translator) else translator

    # -- prepared queries ----------------------------------------------------

    def prepare(self, starql_text: str) -> PreparedQuery:
        """Parse + translate ``starql_text``, reusing cached translations.

        The same normalized text translates exactly once per translator
        (enrichment, unfolding and plan building are all skipped on a
        cache hit).
        """
        translator = self.translator
        translation = translator.translate_text(starql_text)
        return PreparedQuery(translator.normalize_text(starql_text), translation)

    # -- static analysis -----------------------------------------------------

    def explain(self, query: PreparedQuery | str, name=None):
        """Static analysis of a query *without* registering it.

        Returns an :class:`~repro.analysis.AnalysisReport` of everything
        the analyzer can establish against this session's deployment:
        type errors, unsatisfiable predicates, window-grid behaviour,
        the MQO pipelines a registration made now would share (read
        from the gateway's registry) and its filter-subsumption
        relations to the registered queries, and what registration
        would cost: the piece/UCQ/SQL-block counts of the translation
        and, per static input, whether its relation is already
        materialised and shared — or keyed by two windows, and so no
        window's lookup.  Accepts raw STARQL text (also covers
        syntax/reference errors) or an already-prepared query; ``name``
        is the name analysed (a registered query is never its own
        sharing peer).

        Nothing is bound: readers, static relations, MQO subscriptions
        and scheduler placements are as they were.  To refuse a query
        with error-severity findings, check ``report.has_errors`` and do
        not :meth:`submit` it.
        """
        from ..analysis import analyze_plan, analyze_starql
        from ..analysis.analyzer import check_translation

        if isinstance(query, str):
            return analyze_starql(
                query, self.translator, gateway=self.gateway, name=name
            )
        report = analyze_plan(
            query.translation.plan,
            self.gateway.engine,
            gateway=self.gateway,
            name=name,
            undecomposed=query.translation.undecomposed,
        )
        check_translation(query.translation, self.gateway.engine, report)
        return report

    def lint(self, query: PreparedQuery | str, name=None) -> list:
        """The diagnostics of :meth:`explain`, most severe first."""
        report = self.explain(query, name=name)
        return sorted(report, key=lambda d: -d.severity.rank)

    def plan_choice(self, name: str):
        """The costed-plan explain record of one registered query.

        ``None`` unless the deployment runs an adaptive engine (see
        :class:`~repro.exastream.estimator.PlanChoice`): chosen tier vs
        ceiling, per-tier cost estimates, the advisory hints, and any
        mid-flight demotion record.
        """
        return getattr(self.gateway.query(name).plan, "choice", None)

    def submit(
        self,
        query: PreparedQuery | str,
        name: str | None = None,
        max_windows: int | None = None,
        sink_capacity=_INHERIT,
        overflow=_INHERIT,
        shards: int | None = None,
    ) -> QueryHandle:
        """Register a prepared query (or raw STARQL text) for execution.

        The cached plan is cloned per submission, so one prepared query
        can back many concurrently registered handles.  ``shards=N``
        requests data-parallel execution on a sharded deployment; the
        default inherits the engine's configuration (plain engines run
        single-shard).  Submission does not analyse the query; see
        :meth:`explain`.
        """
        if isinstance(query, str):
            query = self.prepare(query)
        if sink_capacity is _INHERIT:
            sink_capacity = self.sink_capacity
        if overflow is _INHERIT:
            overflow = self.overflow
        plan = replace(query.translation.plan)  # private copy: register renames
        registered = self.gateway.register(
            plan,
            name=name,
            sink_capacity=sink_capacity,
            sink_policy=overflow,
            window_limit=max_windows,
            shards=shards,
        )
        handle = QueryHandle(self, query, registered)
        self._handles[handle.name] = handle
        if self.dashboard is not None:
            self.dashboard.subscribe(handle)
        return handle

    # -- execution -----------------------------------------------------------

    def step(self, n_windows: int = 1) -> int:
        """Advance the shared cooperative executor by ``n_windows`` rounds.

        All runnable queries on the gateway progress round-robin — this
        session's handles interleave with every other session's.  Returns
        the number of window executions performed.
        """
        return self.gateway.step(n_windows)

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self):
        """The gateway's merged registry snapshot (``Monitor`` source)."""
        return self.gateway.metrics_snapshot()

    def metrics(self):
        """A :class:`~repro.obs.MetricsReport` over the deployment.

        ``report.render()`` is the per-query progress table (S2's
        monitoring view); ``report.query(name)`` flattens one query's
        series; ``report.to_prometheus()`` is the text exposition.
        """
        from ..obs import MetricsReport

        return MetricsReport(self.metrics_snapshot())

    # -- handle management ---------------------------------------------------

    def handle(self, name: str) -> QueryHandle:
        try:
            return self._handles[name]
        except KeyError:
            raise QueryNotFound(name) from None

    @property
    def handles(self) -> list[QueryHandle]:
        return list(self._handles.values())

    def close(self) -> None:
        """Cancel and deregister every handle issued by this session.

        Safe to call from inside a subscriber callback while a delivery
        is in flight (and idempotent): the handle map is detached before
        anything is cancelled, so re-entrant closes see an empty
        session, and each handle's terminal transition fires exactly
        once.
        """
        handles, self._handles = list(self._handles.values()), {}
        for handle in handles:
            handle.close()

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncSession(Session):
    """A session whose executor runs on the asyncio event loop.

    Everything a :class:`Session` does (prepare/submit/poll) plus the
    event-driven entry point: ``await session.serve()`` pulses every
    runnable query on the shared gateway, publishing each window result
    to the event bus, while consumers iterate ``async for result in
    handle`` on their own bounded queues.  Idle subscribers cost
    nothing — no poll cycles — so one serving task supports thousands
    of dashboard sessions.

    Use as an async context manager; leaving the block closes every
    handle the session issued::

        async with platform.async_session() as session:
            handle = session.submit(prepared)
            server = asyncio.create_task(session.serve())
            async for result in handle:
                ...
            await server
    """

    async def serve(
        self,
        window_limit: int | None = None,
        stop_when_idle: bool = True,
        drain_poll: float = 0.05,
    ) -> int:
        """Drive the shared gateway's pulse loop on the event loop.

        All runnable queries progress round-robin (this session's and
        every other session's — like :meth:`Session.step`, the executor
        is shared); delivery order and content are byte-identical to
        the cooperative ``step()`` oracle.  Returns the number of
        window executions performed; see
        :meth:`~repro.exastream.gateway.GatewayServer.serve`.
        """
        return await self.gateway.serve(
            window_limit=window_limit,
            stop_when_idle=stop_when_idle,
            drain_poll=drain_poll,
        )

    async def drain(self, handle: QueryHandle) -> list[WindowResult]:
        """Collect every remaining result of ``handle`` via the bus."""
        return [result async for result in handle.stream()]

    async def __aenter__(self) -> AsyncSession:
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
