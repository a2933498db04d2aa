"""The Asynchronous Gateway Server: query registration and cooperative runs.

"Queries are registered through the Asynchronous Gateway Server.  Each
registered query passes through the EXAREME parser and then is fed to the
Scheduler module."  Our gateway accepts either SQL(+) text (parsed and
planned) or ready :class:`~repro.exastream.plan.ContinuousPlan` objects,
keeps the catalog of registered continuous queries, and drives them over
*shared* window readers so the wCache benefits apply across queries.
Registration is plan → bind → place and nothing else: static analysis
(:mod:`repro.analysis`) runs on demand, through ``Session.explain``, and
reads what registration recorded — the MQO registry's subscriptions —
instead of keeping a copy of its own.

Two executors drive the same registered queries:

* :meth:`GatewayServer.step` — cooperative and re-entrant: advances
  every runnable query by up to ``n_windows`` windows round-robin and
  returns, so many client sessions can interleave execution without any
  one call blocking to exhaustion.  This is the synchronous oracle the
  async path is differentially tested against.
* :meth:`GatewayServer.serve` — the asyncio event-bus runtime: the same
  round-robin pulse loop driven off an event loop, publishing each
  completed window to the query's :class:`~repro.exastream.bus.Topic`
  so await-able subscribers (``async for result in handle``) are fanned
  out to without polling.  Idle subscribers cost nothing; a full
  ``block``-policy subscriber defers only its own query's next window,
  exactly like a full ``BLOCK`` sink does under ``step()``.

Each query owns an explicit lifecycle (``REGISTERED → RUNNING →
PAUSED/CANCELLED/COMPLETED``) whose terminal transition fires exactly
once (closing the query's topic), and a bounded
:class:`~repro.exastream.engine.BoundedResultSink` for incremental pull
delivery.

The gateway owns the *query catalog* and nothing a query holds: shared
readers, static relations, MQO subscriptions and worker processes belong
to the query's runtime, whose ``close()`` gives them back
(:mod:`repro.exastream.contracts`), and operator placements to the
scheduler, whose ``remove(name)`` does.  Deregistration is cancel →
``runtime.close()`` → ``scheduler.remove(name)``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Callable

from ..errors import QueryNotFound
from .bus import EventBus, Subscription
from .contracts import Engine, WindowExecutor
from .engine import BoundedResultSink, WindowResult
from .metrics import BusMetrics, Stopwatch
from .mqo import SharedPipelineRegistry
from .estimator import ReplanGuard
from .partial_agg import IncrementalMode
from .plan import ContinuousPlan
from .planner import costed_plan, plan_sql
from .scheduler import Scheduler

__all__ = ["QueryState", "RegisteredQuery", "GatewayServer"]


class QueryState(Enum):
    """Lifecycle of one registered continuous query."""

    REGISTERED = "registered"
    RUNNING = "running"
    PAUSED = "paused"
    CANCELLED = "cancelled"
    COMPLETED = "completed"

    @property
    def is_terminal(self) -> bool:
        return self in (QueryState.CANCELLED, QueryState.COMPLETED)


@dataclass
class RegisteredQuery:
    """A continuous query registered at the gateway.

    Results flow into :attr:`sink` (a bounded ring buffer) and to every
    per-query :attr:`subscribers` callback; ``window_limit`` optionally
    completes the query after that many windows.
    """

    name: str
    plan: ContinuousPlan
    runtime: WindowExecutor
    sink: BoundedResultSink = field(default_factory=BoundedResultSink)
    state: QueryState = QueryState.REGISTERED
    next_window: int = 0
    window_limit: int | None = None
    subscribers: list[Callable[[WindowResult], None]] = field(
        default_factory=list
    )
    #: the owning gateway's event bus (push-side delivery); set at
    #: registration, ``None`` only for hand-built instances
    bus: EventBus | None = field(default=None, repr=False)
    #: mid-flight re-planning guard (adaptive registrations of pane
    #: plans only) — fed one observation per executed pulse; when it
    #: fires, the gateway demotes the runtime permanently
    guard: object | None = field(default=None, repr=False)
    #: this query's ``bus_delivery_seconds`` histogram, bound on its
    #: first timed delivery
    deliver_seconds: object | None = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        """Legacy view: the query still wants execution."""
        return self.state in (QueryState.REGISTERED, QueryState.RUNNING)

    def results(self) -> list[WindowResult]:
        """Snapshot of the results currently retained by the sink."""
        return self.sink.snapshot()

    def poll(self, max_results: int | None = None) -> list[WindowResult]:
        """Drain up to ``max_results`` results from the sink, oldest first."""
        return self.sink.poll(max_results)

    def subscribe(self, callback: Callable[[WindowResult], None]) -> None:
        """Per-query result delivery.

        Idempotent per callback: subscribing the same callable twice
        (e.g. a dashboard auto-attached by a session and again by hand)
        delivers each result once.
        """
        if callback not in self.subscribers:
            self.subscribers.append(callback)

    def stream(
        self,
        capacity: int | None = None,
        policy: str | None = None,
    ) -> Subscription:
        """Open an await-able subscription to this query's results.

        Returns a :class:`~repro.exastream.bus.Subscription` — iterate
        with ``async for result in query.stream()``; iteration ends once
        the query reaches a terminal state and the queue drains.
        ``capacity``/``policy`` default to this query's sink
        configuration, so a ``block``-policy query back-pressures the
        async executor exactly as it back-pressures ``step()``.
        """
        if self.bus is None:
            raise RuntimeError(
                f"query {self.name!r} is not attached to an event bus"
            )
        subscription = self.bus.subscribe(
            self.name,
            capacity=self.sink.capacity if capacity is None else capacity,
            policy=self.sink.policy if policy is None else policy,
        )
        if self.state.is_terminal:
            # nothing will ever be published; end iteration immediately
            self.bus.finish(self.name)
        return subscription

    # -- lifecycle ----------------------------------------------------------

    def _set_state(self, state: QueryState) -> bool:
        """Transition (terminal states win exactly once; re-entrant safe).

        A subscriber callback running inside :meth:`_deliver` may cancel
        this query (or close its whole session) mid-delivery; the first
        terminal transition sticks, fires the topic ``finish`` exactly
        once, and every later transition attempt is a no-op.
        """
        if self.state.is_terminal:
            return False
        self.state = state
        if state.is_terminal and self.bus is not None:
            self.bus.finish(self.name)
        return True

    def pause(self) -> None:
        if self.state.is_terminal:
            raise ValueError(
                f"cannot pause {self.name!r}: already {self.state.value}"
            )
        self._set_state(QueryState.PAUSED)

    def resume(self) -> None:
        if self.state.is_terminal:
            raise ValueError(
                f"cannot resume {self.name!r}: already {self.state.value}"
            )
        if self.state is QueryState.PAUSED:
            self._set_state(QueryState.RUNNING)
            if self.bus is not None:
                self.bus.wake()  # a parked serve() loop has work again

    def cancel(self) -> None:
        """Terminal: the executor will never touch this query again."""
        self._set_state(QueryState.CANCELLED)

    def _deliver(self, result: WindowResult) -> None:
        self.sink.offer(result)
        for callback in self.subscribers:
            callback(result)
        if self.bus is not None:
            self.bus.publish(self.name, result)


class GatewayServer:
    """Front door of the distributed engine (single-node execution core).

    The gateway registers queries, lets the :class:`Scheduler` place their
    operators on workers (for placement/ balance accounting), and executes
    all active queries round-robin, window by window, against the
    engine's shared readers.

    A deployment has one scheduler, the engine's: ``scheduler`` is
    installed on an engine that has none and must otherwise be the
    engine's own.
    """

    def __init__(self, engine: Engine, scheduler: Scheduler | None = None):
        self.engine = engine
        engine.gateways.add(self)
        if engine.scheduler is None:
            engine.scheduler = scheduler
        elif scheduler is not None and scheduler is not engine.scheduler:
            raise ValueError(
                "the engine already has a scheduler; a deployment has one"
            )
        self.scheduler = engine.scheduler
        #: the engine's observability bundle — bus counters, MQO stats
        #: and the per-query delivery histograms all write through it
        self.obs = engine.obs
        #: push-side delivery: per-query topics with await-able,
        #: individually bounded subscriber queues (``serve()`` publishes
        #: and ``step()`` publishes too, so either executor feeds
        #: ``async for`` consumers)
        self.bus = EventBus(metrics=BusMetrics(registry=self.obs.registry))
        self._queries: dict[str, RegisteredQuery] = {}
        self._name_counter = itertools.count(1)
        #: the multi-query-optimization registry: per-(signature, pane)
        #: results shared across every registered query whose pipeline
        #: prefix matches.  ``mqo=False`` on the engine disables it.
        self.mqo: SharedPipelineRegistry | None = (
            SharedPipelineRegistry(registry=self.obs.registry)
            if engine.mqo else None
        )
        #: audit mode: verify the engine's refcount/ring/signature
        #: invariants on every register/deregister and whenever a step
        #: drains (CI sets REPRO_AUDIT=1; read-only, output-identical)
        self.audit = bool(os.environ.get("REPRO_AUDIT"))
        #: attached durability layer (see
        #: :class:`repro.exastream.durability.CheckpointManager`);
        #: ``on_pulse()`` fires after every executed window
        self.checkpointer = None

    # -- registration ----------------------------------------------------------

    def register(
        self,
        query: str | ContinuousPlan,
        name: str | None = None,
        sink_capacity: int | None = None,
        sink_policy: str = BoundedResultSink.DROP_OLDEST,
        window_limit: int | None = None,
        shards: int | None = None,
    ) -> RegisteredQuery:
        """Register SQL(+) text or a prepared plan as a continuous query:
        plan the text, name it, cost it (adaptive engines), bind it,
        place it on the scheduler.

        An explicit duplicate ``name`` raises; when the name is derived
        from the plan (or auto-generated) a fresh unique name is chosen,
        so the same prepared plan can be submitted repeatedly.

        ``shards`` requests data-parallel execution across that many
        shards; the engine refuses (:class:`~repro.errors.InvalidOption`)
        a width below 1 or wider than its pool — the ``shards=`` it was
        built with, 1 by default.  A plan naming a column no input has
        is refused too (:class:`~repro.errors.BindError`), with nothing
        left bound.

        Registration does not analyse the query.  To refuse one on
        error-severity findings before anything binds, analyse it first
        (``Session.explain(q).has_errors``) and do not register it.
        """
        if isinstance(query, str):
            plan = plan_sql(query, self.engine, name=name)
        else:
            plan = query
        if name is None:
            base = plan.name or f"q{next(self._name_counter)}"
            name = base
            while name in self._queries:
                name = f"{base}_{next(self._name_counter)}"
        elif name in self._queries:
            raise ValueError(f"query name {name!r} already registered")
        plan.name = name
        # Cost-based adaptive planning (engines built with
        # ``adaptive=True``): refresh the estimator from the live
        # registry — fork-worker shards ship their deltas back over the
        # ("metrics",) pipe inside this snapshot — then cost every
        # eligible tier and apply the (demote-only) tier decision before
        # anything binds.  ``plan.choice`` carries the explain record.
        if self.engine.estimator is not None:
            self.engine.estimator.refresh(self.metrics_snapshot())
            costed_plan(plan, self.engine, scheduler=self.scheduler)
        runtime = self.engine.bind(plan, shards=shards, mqo=self.mqo)
        registered = RegisteredQuery(
            name=name,
            plan=plan,
            runtime=runtime,
            sink=BoundedResultSink(sink_capacity, sink_policy),
            window_limit=window_limit,
            bus=self.bus,
        )
        choice = plan.choice
        if (
            choice is not None
            and choice.chosen is not IncrementalMode.RECOMPUTE
        ):
            # Mid-flight re-planning guard: the registration kept a pane
            # tier on estimates alone, so watch the realized overlap win
            # (deterministic tuple counts, never wall time) and demote
            # through the permanent-fallback machinery if the win never
            # materializes.
            registered.guard = ReplanGuard()
        self._queries[name] = registered
        self.bus.wake()  # a parked serve() loop has new work
        if self.scheduler is not None:
            # placed under the identity the runtime shares under: queries
            # over different static materialisations are two pipelines
            leaf = runtime.leaf_runtimes[0]
            self.scheduler.place_query(
                plan,
                leaf.signature if self.mqo is not None else None,
                leaf.scope,
            )
        if self.audit:
            self._verify()
        return registered

    def _verify(self) -> None:
        """Audit-mode invariant check (raises InvariantViolation)."""
        from ..analysis import verify_gateway

        verify_gateway(self)

    def metrics_snapshot(self):
        """The deployment-wide registry snapshot (shards merged in).

        Scheduler load gauges are refreshed from
        :meth:`~repro.exastream.scheduler.Scheduler.load_report` right
        before snapshotting, so the monitoring surface sees current
        worker loads without reaching into scheduler privates.
        """
        if self.scheduler is not None:
            registry = self.obs.registry
            report = self.scheduler.load_report()
            for worker in report.workers:
                registry.gauge(
                    "scheduler_worker_load", worker=worker.node_id
                ).set(worker.load)
            registry.gauge("scheduler_balance").set(report.balance)
        return self.engine.metrics_snapshot()

    def deregister(self, name: str) -> None:
        """Remove a query from the catalog.

        Raises :class:`~repro.errors.QueryNotFound` (a ``KeyError``) for
        unknown names.  The runtime gives back everything the query
        held (a shared reader goes once its last query is gone), the
        scheduler everything it placed for it.
        """
        if name not in self._queries:
            raise QueryNotFound(name)
        registered = self._queries.pop(name)
        registered.cancel()
        registered.runtime.close()
        if self.scheduler is not None:
            self.scheduler.remove(name)
        if self.audit:
            self._verify()

    def query(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise QueryNotFound(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    @property
    def queries(self) -> list[RegisteredQuery]:
        return list(self._queries.values())

    @property
    def shared_reader_count(self) -> int:
        """Live shared readers in the engine's catalog, over every scope."""
        return self.engine.shared_reader_count

    # -- execution ------------------------------------------------------------------

    #: outcomes of one pulse attempt on one query
    _EXECUTED = "executed"
    _BLOCKED = "blocked"  # waiting on a consumer (sink or subscriber)
    _IDLE = "idle"

    def _pulse_query(
        self, registered: RegisteredQuery, window_limit: int | None
    ) -> str:
        """Advance one query by at most one window.

        The single pulse path both executors share: ``step()`` and
        ``serve()`` differ only in how they loop over it, so the async
        runtime's delivery is byte-identical (content and per-query
        order) to the cooperative oracle by construction.  Delivery
        happens *before* the terminal transition, so the final limited
        window still reaches every subscriber queue of a topic that
        ``finish()`` is about to close.
        """
        if not registered.active:
            return self._IDLE
        limit = registered.window_limit
        if limit is not None and registered.next_window >= limit:
            registered._set_state(QueryState.COMPLETED)
            return self._IDLE
        if (
            window_limit is not None
            and registered.next_window >= window_limit
        ):
            return self._IDLE
        if registered.sink.would_block():
            return self._BLOCKED
        if self.bus.would_block(registered.name):
            self.bus.metrics.backpressure_deferrals += 1
            return self._BLOCKED
        registered._set_state(QueryState.RUNNING)
        obs = self.obs
        # the root span of this pulse's trace tree; every engine/deliver
        # span below nests under it (no-op context when tracing is off)
        pulse = (
            obs.span("pulse", registered.name, window=registered.next_window)
            if obs.tracer.enabled else None
        )
        if pulse is not None:
            pulse.__enter__()
        try:
            watch = Stopwatch() if self.scheduler is not None else None
            result = registered.runtime.execute_window(registered.next_window)
            if watch is not None:
                # pulse accounting: fold the observed per-window cost into
                # the scheduler's tracked load for this query's placements
                self.scheduler.observe(
                    registered.name,
                    seconds=watch.elapsed(),
                    tuples=len(result.rows) if result is not None else 0,
                )
            if result is None:
                registered._set_state(QueryState.COMPLETED)
                return self._IDLE
            registered.next_window += 1
            if registered.guard is not None and not registered.guard.fired:
                # Mid-flight re-planning: score the window just executed
                # on its deterministic pane-reuse counts; a sustained
                # shortfall demotes the plan to recompute between pulses
                # (the demoted plan's output stays byte-identical — only
                # how the next windows are computed changes).
                reason = registered.guard.observe(
                    registered.runtime.last_pane_stats
                )
                if reason is not None:
                    self._demote_query(registered, reason)
            deliver_watch = Stopwatch() if obs.enabled else None
            if pulse is not None:
                with obs.span("deliver", registered.name):
                    registered._deliver(result)
            else:
                registered._deliver(result)
            if deliver_watch is not None:
                # sink offer + subscriber callbacks + bus publish: the
                # delivery lag between engine output and consumers
                if registered.deliver_seconds is None:
                    registered.deliver_seconds = obs.registry.histogram(
                        "bus_delivery_seconds", query=registered.name
                    )
                registered.deliver_seconds.observe(deliver_watch.elapsed())
            # completing on the last limited window (not one visit later)
            # keeps the state accurate the moment work is done; a no-op if a
            # subscriber callback already cancelled the query mid-delivery
            if limit is not None and registered.next_window >= limit:
                registered._set_state(QueryState.COMPLETED)
            if self.checkpointer is not None:
                # after delivery: a checkpoint taken here captures the sink
                # with this window already retained, so a recovered run never
                # re-delivers it (fault injection may raise SimulatedCrash)
                self.checkpointer.on_pulse()
            return self._EXECUTED
        finally:
            if pulse is not None:
                pulse.__exit__(None, None, None)

    def _demote_query(self, registered: RegisteredQuery, reason: str) -> bool:
        """Apply a guard-triggered mid-flight demotion to recompute.

        Routes through the runtime's tier retirement (ring flush +
        demand switch), then records the decision on the costed
        plan's explain record and bumps ``plan_demotions_total`` so the
        ANA050 diagnostic and the monitor can surface it.  Fork-parallel
        sharded runtimes refuse to demote (their pane state lives in
        child processes); the guard simply stays armed and keeps
        observing ``None`` stats, which never strike.
        """
        if not registered.runtime.demote(reason):
            return False
        choice = registered.plan.choice
        if choice is not None:
            # next_window was already advanced: it names the first window
            # that will run under the recompute tier.
            choice.demoted_at_window = registered.next_window
            choice.demotion_reason = reason
        self.obs.registry.counter(
            "plan_demotions_total", query=registered.name
        ).inc()
        return True

    def step(
        self,
        n_windows: int = 1,
        window_limit: int | None = None,
    ) -> int:
        """Advance every runnable query by up to ``n_windows`` windows.

        One round visits the queries in registration order and executes at
        most one window each, so concurrent queries (and the sessions
        holding them) make interleaved progress; round-robin per window id
        also keeps all readers near the cache frontier, so shared windows
        are materialised exactly once.  The call is re-entrant — clients
        alternate ``step()`` with ``poll()`` — and never blocks to
        exhaustion.  Queries whose ``BLOCK``-policy sink (or any
        ``block``-policy bus subscriber) is full are skipped until a
        consumer drains them.  ``window_limit`` is a per-call cap on
        window ids (queries beyond it stay runnable).

        Returns the number of window executions performed; ``0`` means no
        query could make progress.
        """
        executed = 0
        for _ in range(n_windows):
            progressed = False
            for registered in list(self._queries.values()):
                outcome = self._pulse_query(registered, window_limit)
                if outcome == self._EXECUTED:
                    progressed = True
                    executed += 1
            if not progressed:
                break
        if self.audit and executed == 0:
            self._verify()  # quiescent points are where refcounts settle
        return executed

    async def serve(
        self,
        window_limit: int | None = None,
        stop_when_idle: bool = True,
        drain_poll: float = 0.05,
    ) -> int:
        """Drive pulses off the event loop, publishing to the bus.

        The asyncio runtime: the same round-robin pulse loop as
        :meth:`step`, yielding to the loop after every executed window
        so ``async for`` subscribers consume concurrently.  A query
        whose ``block``-policy subscriber (or ``BLOCK`` sink) is full is
        deferred — only that query waits, everything else keeps pulsing —
        and the loop parks on the bus until a consumer drains
        (``drain_poll`` caps the park so pull-side ``poll()`` drains,
        which have no wake channel, are noticed too).

        With ``stop_when_idle`` (default) the call returns once no query
        can make progress and none is waiting on a consumer — mirroring
        ``step()`` returning 0.  ``stop_when_idle=False`` keeps serving:
        the loop parks when idle and wakes on ``register()`` or
        ``resume()``, which is how a long-lived deployment runs; cancel
        the task to stop it.

        Returns the number of window executions performed.
        """
        executed_total = 0
        while True:
            progressed = False
            blocked = False
            for registered in list(self._queries.values()):
                outcome = self._pulse_query(registered, window_limit)
                if outcome == self._EXECUTED:
                    progressed = True
                    executed_total += 1
                    # yield: consumers drain their queues between windows
                    await asyncio.sleep(0)
                elif outcome == self._BLOCKED:
                    blocked = True
            if progressed:
                continue
            if self.audit:
                self._verify()  # quiescent points: refcounts settled
            if blocked:
                await self.bus.wait(drain_poll)
                continue
            if stop_when_idle:
                break
            await self.bus.wait(drain_poll)
        return executed_total
