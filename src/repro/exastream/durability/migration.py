"""Live query migration: state handoff between gateways.

:func:`migrate_query` moves one registered single-runtime query from a
source gateway to a target gateway without recomputation: its runtime
rings, reader positions and sink contents are deep-copied through a
pickle round-trip (the exact record a checkpoint would write), the
target's readers re-read their sources from those positions, and the
source registration is dropped only after the target registration
succeeds.  The scheduler's
:meth:`~repro.exastream.scheduler.Scheduler.rebalance` uses this as its
crash-safe "move the hot query" mechanism, instead of recomputing the
query from the stream head on the destination.
"""

from __future__ import annotations

import pickle

from ...errors import RecoveryError
from ..sharded import ShardedPlanRuntime
from .snapshot import (
    PLAIN_SCOPE,
    _query_record,
    _record_readers,
    _reinstate,
    _seed_scope,
)

__all__ = ["migrate_query"]


def migrate_query(source_gateway, name: str, target_gateway):
    """Move query ``name`` with its live state; returns the new handle.

    Both gateways run in this process (the single-node core stands in
    for two nodes); the pickle round-trip keeps the handoff faithful to
    what a cross-node transfer would ship.  Sharded layouts migrate
    through checkpoint recovery, not live handoff.
    """
    registered = source_gateway.query(name)
    runtime = registered.runtime
    if isinstance(runtime, ShardedPlanRuntime):
        raise RecoveryError(
            f"query {name!r} runs a sharded layout; migrate it through "
            "checkpoint recovery, not live handoff"
        )
    if name in target_gateway._queries:
        raise RecoveryError(
            f"target gateway already has a query named {name!r}"
        )

    scope = {"readers": {}, "runtimes": {}}
    _record_readers(
        scope, source_gateway.engine, runtime, registered.plan,
        max(0, registered.next_window - 1),
    )
    payload = pickle.loads(
        pickle.dumps(
            {
                **_query_record(registered),
                "shards": 1,  # the PLAIN_SCOPE layout, on either engine shape
                "runtime": runtime.snapshot_state(),
                "scope": scope,
            },
            pickle.HIGHEST_PROTOCOL,
        )
    )

    target_engine = target_gateway.engine
    for key in payload["scope"]["readers"]:
        if key in target_engine.catalog[PLAIN_SCOPE]:
            raise RecoveryError(
                f"target gateway already materialises reader {key!r}; "
                "a state handoff would clobber its live position"
            )
    _seed_scope(target_engine, PLAIN_SCOPE, payload["scope"])
    handle = _reinstate(
        target_gateway, payload, lambda leaf: payload["runtime"]
    )
    source_gateway.deregister(name)
    return handle
