"""The asyncio event bus: await-able per-query result fan-out.

The cooperative ``step()`` executor delivers results by being polled —
every idle dashboard session still costs a poll cycle.  This module is
the push half of the gateway: pulse completion publishes each
:class:`~repro.exastream.engine.WindowResult` to the query's *topic*,
and every subscriber holds its own bounded queue over that topic, so
thousands of idle sessions cost nothing until a result actually
arrives.

* :class:`EventBus` — one per gateway; maps query name → live
  :class:`Topic`.  Topics exist only while someone subscribes: a
  publish to a topicless query is a no-op, so queries with no async
  subscribers pay nothing.
* :class:`Topic` — the per-query fan-out point.  Reference-counted by
  its live subscriptions and dropped when the last one closes;
  ``finish()`` (fired exactly once when the query reaches a terminal
  state) lets every subscriber drain its queue and then end iteration.
* :class:`Subscription` — one subscriber's bounded queue, an async
  iterator (``async for result in handle`` / ``handle.stream()``).
  The queue is a :class:`~repro.exastream.engine.BoundedResultSink`,
  the pull-side channel's type, so overflow honours the same two
  policies: ``drop_oldest`` evicts (counting drops, also into the bus's
  ``results_dropped``), ``block`` back-pressures the *producer* —
  the serve loop defers the query's next window until the subscriber
  drains, exactly like a full ``BLOCK`` sink defers it under
  ``step()``.

Producers never block inside ``publish()``; the contract is
check-then-publish (``Topic.would_block()``), mirroring the sink's
``would_block()``.  Offering a full ``block`` queue anyway raises
:class:`~repro.errors.SinkOverflow`.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from ..errors import SinkOverflow
from .engine import BoundedResultSink
from .metrics import BusMetrics

if TYPE_CHECKING:
    from .engine import WindowResult

__all__ = ["EventBus", "Topic", "Subscription"]


class Subscription:
    """One subscriber's bounded queue over a topic — an async iterator.

    Iterate with ``async for result in subscription``; iteration ends
    (``StopAsyncIteration``) once the topic is finished *and* the queue
    is drained.  Closing — explicitly via :meth:`close`, by ``async
    with``, by full consumption, or by cancellation of a task awaiting
    :meth:`get`/``__anext__`` — releases the topic reference exactly
    once.
    """

    def __init__(
        self,
        topic: Topic,
        capacity: int | None = None,
        policy: str = BoundedResultSink.DROP_OLDEST,
    ) -> None:
        self.topic = topic
        #: the bounded queue — a query's pull-side sink type, so both
        #: channels validate and overflow identically
        self._queue = BoundedResultSink(capacity, policy)
        #: set while items are available or the topic has finished
        self._ready = asyncio.Event()
        self.delivered = 0
        self.closed = False
        self._finished = False

    @property
    def capacity(self) -> int | None:
        return self._queue.capacity

    @property
    def policy(self) -> str:
        return self._queue.policy

    @property
    def dropped(self) -> int:
        return self._queue.dropped

    def __len__(self) -> int:
        return len(self._queue)

    def would_block(self) -> bool:
        """True when the producer should defer the next window for us."""
        return self._queue.would_block()

    # -- producer side ------------------------------------------------------

    def _offer(self, result: WindowResult) -> None:
        """Enqueue one result (topic-internal; producers use publish)."""
        if self.closed:
            return
        queue = self._queue
        if queue.would_block():
            raise SinkOverflow(
                f"block-policy subscription on {self.topic.name!r} "
                f"offered a result while full (capacity "
                f"{queue.capacity}); producers must check "
                "would_block() and defer the window"
            )
        dropped = queue.dropped
        queue.offer(result)
        if queue.dropped != dropped:
            self.topic.bus.metrics.results_dropped += queue.dropped - dropped
        if queue:
            self._ready.set()

    def _finish(self) -> None:
        """No more results will ever be published (query is terminal)."""
        self._finished = True
        self._ready.set()

    # -- consumer side ------------------------------------------------------

    def __aiter__(self) -> Subscription:
        return self

    async def __anext__(self) -> WindowResult:
        while True:
            if self._queue:
                (item,) = self._queue.poll(1)
                self.delivered += 1
                if not self._queue and not self._finished:
                    self._ready.clear()
                # a blocked producer may now have room — wake the serve loop
                self.topic.bus.wake()
                return item
            if self._finished or self.closed:
                self.close()
                raise StopAsyncIteration
            self._ready.clear()
            try:
                await self._ready.wait()
            except asyncio.CancelledError:
                # cancellation mid-iteration must not leak the topic ref
                self.close()
                raise

    async def get(self) -> WindowResult | None:
        """Await one result; ``None`` once the subscription ends."""
        try:
            return await self.__anext__()
        except StopAsyncIteration:
            return None

    def close(self) -> None:
        """Detach from the topic (idempotent), releasing its reference."""
        if self.closed:
            return
        self.closed = True
        self._queue.clear()
        self._ready.set()  # wake any consumer awaiting __anext__
        self.topic._release(self)

    async def aclose(self) -> None:
        self.close()

    async def __aenter__(self) -> Subscription:
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else (
            "finished" if self._finished else "live"
        )
        return (
            f"Subscription({self.topic.name!r}, {state}, "
            f"queued={len(self._queue)}, delivered={self.delivered})"
        )


class Topic:
    """The fan-out point for one query's results."""

    def __init__(self, bus: EventBus, name: str) -> None:
        self.bus = bus
        self.name = name
        self._subscriptions: list[Subscription] = []
        self.finished = False

    @property
    def refcount(self) -> int:
        """Live subscriptions — the bus drops the topic at zero."""
        return len(self._subscriptions)

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subscriptions)

    def subscribe(
        self,
        capacity: int | None = None,
        policy: str = BoundedResultSink.DROP_OLDEST,
    ) -> Subscription:
        subscription = Subscription(self, capacity, policy)
        if self.finished:
            subscription._finish()
        self._subscriptions.append(subscription)
        metrics = self.bus.metrics
        metrics.peak_subscribers = max(
            metrics.peak_subscribers, self.bus.subscriber_count
        )
        return subscription

    def would_block(self) -> bool:
        """True when any ``block``-policy subscriber has no room."""
        return any(s.would_block() for s in self._subscriptions)

    def publish(self, result: WindowResult) -> None:
        """Fan one result out to every subscriber (producer checked
        :meth:`would_block` first — a full ``block`` queue raises)."""
        metrics = self.bus.metrics
        metrics.results_published += 1
        for subscription in list(self._subscriptions):
            subscription._offer(result)
            metrics.fanout_deliveries += 1

    def finish(self) -> None:
        """Mark the query terminal: subscribers drain, then end."""
        if self.finished:
            return
        self.finished = True
        for subscription in self._subscriptions:
            subscription._finish()
        self.bus._maybe_drop(self)

    def _release(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:  # pragma: no cover - close() is idempotent
            return
        # a blocked producer may have been waiting on this subscriber
        self.bus.wake()
        self.bus._maybe_drop(self)


class EventBus:
    """Per-gateway registry of topics plus the producer wake-up channel.

    The serve loop parks on :meth:`wait` when every runnable query is
    deferred behind a full ``block`` subscriber; consumers draining (or
    closing) wake it.  Registration-side events (new query, resume) call
    :meth:`wake` too, so a parked ``serve(stop_when_idle=False)`` picks
    new work up immediately.
    """

    def __init__(self, metrics: BusMetrics | None = None) -> None:
        self._topics: dict[str, Topic] = {}
        self.metrics = metrics if metrics is not None else BusMetrics()
        self._wakeup = asyncio.Event()

    # -- topics -------------------------------------------------------------

    def topic(self, name: str) -> Topic | None:
        """The live topic for ``name``, or ``None`` (nobody subscribed)."""
        return self._topics.get(name)

    @property
    def topics(self) -> dict[str, Topic]:
        return dict(self._topics)

    @property
    def topic_refcounts(self) -> dict[str, int]:
        """query name → live subscriber count (the verifier's view)."""
        return {name: topic.refcount for name, topic in self._topics.items()}

    @property
    def subscriber_count(self) -> int:
        return sum(topic.refcount for topic in self._topics.values())

    def subscribe(
        self,
        name: str,
        capacity: int | None = None,
        policy: str = BoundedResultSink.DROP_OLDEST,
    ) -> Subscription:
        """Open a bounded subscription to ``name``'s future results."""
        topic = self._topics.get(name)
        if topic is None:
            topic = self._topics[name] = Topic(self, name)
        return topic.subscribe(capacity, policy)

    def publish(self, name: str, result: WindowResult) -> None:
        """Fan ``result`` out to ``name``'s subscribers (no-op without)."""
        topic = self._topics.get(name)
        if topic is not None:
            topic.publish(result)

    def would_block(self, name: str) -> bool:
        """True when publishing to ``name`` must wait for a subscriber."""
        topic = self._topics.get(name)
        return topic is not None and topic.would_block()

    def finish(self, name: str) -> None:
        """The query reached a terminal state: end its topic's iterators."""
        topic = self._topics.get(name)
        if topic is not None:
            topic.finish()

    def _maybe_drop(self, topic: Topic) -> None:
        if topic.refcount == 0 and self._topics.get(topic.name) is topic:
            del self._topics[topic.name]

    # -- producer parking ---------------------------------------------------

    def wake(self) -> None:
        """Signal the serve loop that progress may be possible again."""
        self._wakeup.set()

    async def wait(self, timeout: float | None = None) -> None:
        """Park until :meth:`wake` (or ``timeout`` seconds, as a backstop
        for pull-side drains — ``sink.poll()`` has no wake channel).

        Built on ``asyncio.wait`` rather than ``wait_for``: a timeout is
        reported by return, never by exception, so cancelling the parked
        serve task can never be mistaken for (and swallowed as) a
        timeout.
        """
        if timeout is None:
            await self._wakeup.wait()
        else:
            waiter = asyncio.ensure_future(self._wakeup.wait())
            try:
                await asyncio.wait((waiter,), timeout=timeout)
            finally:
                if not waiter.done():
                    waiter.cancel()
        self._wakeup.clear()
