"""Engine-state walker: snapshot and rebuild a gateway's live state.

Checkpoints are organised per **scope** — one ``(layout n, key column,
shard)`` triple — exactly the engine contract's scopes
(:mod:`repro.exastream.contracts`): every leaf runtime names the scope
it was bound in, and the engine hands out each scope's readers, cache
and stream source.  Each scope record carries its readers' positions
in their sources and per-query runtime rings; the gateway record
carries the query catalog (plans, lifecycle, sinks) and the
shared-pipeline (MQO) entries, whose scoped signature keys re-derive
deterministically when the same plans re-register.

No record holds a stream tuple.  Sources rewind (the
:class:`~repro.streams.StreamSource` contract), so a reader's record
says where it is in its source and from which pulse on the windows its
scope's queries can still read were built; recovery re-reads the source
from there (upstream backup).

Restore inverts the walk: resume readers first — each re-reads its
source and rebuilds its live buffer and the cache entries from the
scope's window floor on — re-register every plan in original order
(``bind`` adopts the resumed readers instead of restarting the
streams), then overlay runtime rings, sinks, lifecycle state and MQO
entries, and finally audit that the re-derived demand refcounts match
the checkpoint exactly.
"""

from __future__ import annotations

from ...errors import RecoveryError
from ...streams import SharedWindowReader
from ..contracts import PLAIN_SCOPE
from ..sharded import ShardedPlanRuntime

__all__ = ["snapshot_gateway", "restore_gateway", "PLAIN_SCOPE"]


# -- snapshot ----------------------------------------------------------------


def snapshot_gateway(gateway) -> dict:
    """A picklable image of every query, reader position and shared
    pipeline behind ``gateway``, keyed for per-scope log files.

    A follower query behind its shared reader's frontier reads windows
    it has not consumed yet from the cache, so each reader records the
    positions to rebuild every entry some live query can still ask
    for: window ids only move forward, so nothing below the scope's
    slowest query is needed and the record stays flat-sized over the
    run."""
    engine = gateway.engine
    scopes: dict[tuple, dict] = {}

    queries = []
    for name, q in gateway._queries.items():
        runtime = q.runtime
        entry = _query_record(q)
        leaves = runtime.leaf_runtimes
        entry["shards"] = len(leaves)
        if isinstance(runtime, ShardedPlanRuntime):
            # the coordinator's own state; refuses fork-parallel shards
            entry["sharded"] = runtime.snapshot_state()
        for leaf in leaves:
            record = scopes.setdefault(leaf.scope, {"readers": {}, "runtimes": {}})
            record["runtimes"][name] = leaf.snapshot_state()
        queries.append(entry)

    floors = {
        scope: _scope_window_floor(gateway, record)
        for scope, record in scopes.items()
    }
    for q in gateway._queries.values():
        for leaf in q.runtime.leaf_runtimes:
            _record_readers(
                scopes[leaf.scope], engine, leaf, q.plan, floors[leaf.scope]
            )

    return {
        "queries": queries,
        "mqo": None
        if gateway.mqo is None
        else gateway.mqo.snapshot_pipelines(),
        "scopes": scopes,
    }


def _query_record(q) -> dict:
    """One registered query's catalog entry: plan, lifecycle and sink."""
    return {
        "name": q.name,
        "plan": q.plan,
        "state": q.state.value,
        "next_window": q.next_window,
        "window_limit": q.window_limit,
        "sink": {
            "capacity": q.sink.capacity,
            "policy": q.sink.policy,
            "results": q.sink.snapshot(),
            "accepted": q.sink.accepted,
            "dropped": q.sink.dropped,
        },
    }


def _record_readers(record: dict, engine, leaf, plan, floor: int) -> None:
    """Capture each of ``plan``'s readers in ``leaf``'s scope (once per
    key), from window ``floor`` on."""
    n, _key_column, shard = leaf.scope
    for ref in plan.windows:
        key = engine.shared_reader_key(ref, plan)
        if key in record["readers"]:
            continue
        reader = leaf.readers[ref.reader_key]
        if n > 1:
            key_index = plan.partitioning.stream_keys.get(ref.stream)
            source = ("sharded", ref.stream, shard, n, key_index)
        else:
            key_index = None
            source = ("plain", ref.stream)
        _factory, anchor = engine.reader_source(
            ref.stream, leaf.scope, key_index
        )
        start = plan.start if plan.start is not None else anchor
        record["readers"][key] = {
            "cache_name": reader.stream_name,
            "stream": ref.stream,
            "spec": reader.spec,
            "time_index": reader.time_index,
            "source": source,
            "start": start,
            "state": reader.snapshot_state(floor),
            "batch_refs": reader.batch_demand,
            "pane_refs": reader.pane_demand,
        }


def _scope_window_floor(gateway, record: dict) -> int:
    """The oldest window id any of the scope's queries can still read.

    ``next_window`` is the id a query's next pulse delivers, so the
    scope minimum is exact; one window of margin guards the edge slice
    of the window just delivered."""
    nexts = [
        gateway._queries[name].next_window for name in record["runtimes"]
    ]
    return max(0, min(nexts, default=0) - 1)


def _source_factory(engine, descriptor: tuple):
    """Rebuild a reader's tuple source from its checkpoint descriptor.

    Sources themselves are outside the checkpoint — the recovery engine
    must have the same streams registered; the descriptor only records
    how the original reader sliced them (full stream vs partition).
    """
    kind, stream = descriptor[:2]
    if stream not in engine.stream_names:
        raise RecoveryError(
            f"stream {stream!r} is not registered on the recovery engine"
        )
    if kind == "plain":
        scope, key_index = PLAIN_SCOPE, None
    else:
        _, _, shard, n, key_index = descriptor
        scope = (n, None, shard)  # slicing ignores the key column *name*
    return engine.reader_source(stream, scope, key_index)[0]


# -- restore -----------------------------------------------------------------


def _seed_scope(engine, scope: tuple, record: dict) -> None:
    """Put a scope record's resumed readers in place before
    registration: ``bind`` adopts a seeded reader instead of restarting
    its stream.  A record written before positions also carries cache
    slices, seeded as they are."""
    target = engine.catalog[scope]
    cache = engine.scope_cache(scope)
    for key, reader_record in record["readers"].items():
        state = reader_record["state"]
        if state is None:
            # never advanced: bind recreates it verbatim — it must not
            # adopt a reader another session on this engine already shares
            target.pop(key, None)
            continue
        target[key] = SharedWindowReader.resume(
            reader_record["cache_name"],
            _source_factory(engine, reader_record["source"]),
            reader_record["spec"],
            reader_record["time_index"],
            cache,
            state,
            start=reader_record["start"],
        )
    if record.get("cache"):
        cache.restore_entries(record["cache"])


def _reinstate(gateway, entry: dict, leaf_state):
    """Re-register one recorded query, then overlay its checkpointed
    runtime rings (``leaf_state(leaf)`` per leaf runtime), sink contents
    and lifecycle state."""
    from ..gateway import QueryState

    name = entry["name"]
    registered = gateway.register(
        entry["plan"],
        name=name,
        sink_capacity=entry["sink"]["capacity"],
        sink_policy=entry["sink"]["policy"],
        window_limit=entry["window_limit"],
        shards=entry["shards"],
    )
    runtime = registered.runtime
    if "sharded" in entry:
        if not isinstance(runtime, ShardedPlanRuntime):
            raise RecoveryError(
                f"query {name!r} re-bound unsharded; the recovery "
                "engine disagrees with the checkpointed layout"
            )
        runtime.restore_state(entry["sharded"])
    for leaf in runtime.leaf_runtimes:
        leaf.restore_state(leaf_state(leaf))
    registered.sink.restore(
        entry["sink"]["results"],
        accepted=entry["sink"]["accepted"],
        dropped=entry["sink"]["dropped"],
    )
    registered.next_window = entry["next_window"]
    state = QueryState(entry["state"])
    if state is not QueryState.REGISTERED:
        if state.is_terminal:
            registered._set_state(state)
        else:
            registered.state = state
    return registered


def restore_gateway(engine, gateway_state, scope_records, scheduler=None):
    """Rebuild a gateway on a freshly constructed ``engine``.

    ``engine`` must match the checkpointed deployment's shape: the same
    streams and static databases registered, and (when sharded) a pool
    at least as large as any checkpointed layout.
    """
    from ..gateway import GatewayServer

    gateway = GatewayServer(engine, scheduler=scheduler)

    # 1. Resume every reader (re-reading its source) before any
    # registration.
    for scope, record in scope_records.items():
        if scope[0] > engine.default_shards:
            raise RecoveryError(
                f"checkpoint scope {scope!r} needs an engine with "
                f"shards >= {scope[0]} behind the recovery gateway"
            )
        _seed_scope(engine, scope, record)

    # 2. Re-register every plan in original order, overlaying each
    # query's checkpointed state.
    for entry in gateway_state["queries"]:
        name = entry["name"]

        def leaf_state(leaf):
            record = scope_records.get(leaf.scope)
            if record is None or name not in record["runtimes"]:
                raise RecoveryError(
                    f"checkpoint lacks runtime state for query {name!r} "
                    f"in scope {leaf.scope!r}"
                )
            return record["runtimes"][name]

        _reinstate(gateway, entry, leaf_state)

    # 3. Shared-pipeline (MQO) overlay: memoized per-pane results whose
    # scoped signature keys re-derived identically at re-registration.
    if gateway.mqo is not None and gateway_state.get("mqo"):
        gateway.mqo.restore_pipelines(gateway_state["mqo"])

    _audit_demand(gateway, scope_records)
    return gateway


def _audit_demand(gateway, scope_records) -> None:
    """Recovered demand refcounts must equal the checkpointed ones.

    Demand references are *re-derived* (each runtime re-takes its own at
    restore), so a divergence means a query rebound differently than it
    ran — fail loudly rather than hand back an engine whose incremental
    machinery silently degraded.
    """
    mismatches = []
    for scope, record in scope_records.items():
        live = gateway.engine.catalog[scope]
        for key, reader_record in record["readers"].items():
            reader = live.get(key)
            if reader is None:
                mismatches.append(f"{scope}: reader {key!r} not rebound")
                continue
            expected = (reader_record["batch_refs"], reader_record["pane_refs"])
            actual = (reader.batch_demand, reader.pane_demand)
            if expected != actual:
                mismatches.append(
                    f"{scope}: reader {key!r} demand (batch, pane)="
                    f"{actual} != checkpointed {expected}"
                )
    if mismatches:
        raise RecoveryError(
            "recovered demand refcounts diverge from the checkpoint: "
            + "; ".join(mismatches)
        )
