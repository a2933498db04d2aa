"""Sharded data-parallel stream execution: N per-shard engines + merge.

This is the execution half of the sharding subsystem (the planning half
lives in :mod:`repro.exastream.sharding`).  :class:`ShardedEngine` is the
many-scope :class:`~repro.exastream.contracts.Engine`: it inherits the
source/database registry and the shared-reader catalog, and its ``bind``

* hash-partitions every windowed stream by the plan's key column across
  ``shards`` per-shard :class:`StreamEngine` instances, one catalog
  scope per shard of the layout (static databases are attached to every
  shard, and every shard binds over the coordinator's one
  :class:`~repro.exastream.contracts.StaticCatalog`, so a static
  relation is materialised once per deployment, not once per shard);
* binds one leaf :class:`~repro.exastream.engine.PlanRuntime` per shard
  under a :class:`ShardedPlanRuntime`, the coordinating
  :class:`~repro.exastream.contracts.WindowExecutor`, which merges shard
  results per window (``merge[concat]`` for shard-local groups, a
  recombining ``merge[combine]`` for partial aggregates);
* optionally runs each shard in a *forked worker process*, driven over
  a pipe in prefetched window batches.  Fork workers hold their leaf
  state in the child, so such a runtime refuses ``demote()`` and
  ``snapshot_state()``.

A one-shard layout (``shards=1``, or any SINGLETON plan) binds a plain
``PlanRuntime`` on shard 0 in the scope a one-node engine uses:
byte-for-byte the single-node behaviour.
"""

from __future__ import annotations

import heapq
import multiprocessing
import sys

from ..errors import RecoveryError
from ..obs import Observability
from ..relational import Database
from ..streams import StreamSource
from .contracts import PLAIN_SCOPE, Engine, Scope, WindowExecutor
from .engine import PlanRuntime, StreamEngine, WindowResult
from .metrics import EngineMetrics, Stopwatch
from .plan import ContinuousPlan
from .sharding import (
    CombinerSpec,
    analyze_partitioning,
    canonical_row_key,
    combine_partials,
    make_shard_plan,
    partitioned_tuples,
)
from .udf import UDFRegistry

__all__ = ["ShardedEngine", "ShardedPlanRuntime", "build_engine"]

#: (window_id, window_end, columns, rows, tuples_in, seconds) — one
#: shard's output for one window, as shipped over the worker protocol.
#: ``seconds`` is the shard's own execution time, so observed load stays
#: correct under fork parallelism (coordinator-side timing would only
#: measure pipe wait).
_Payload = tuple[int, float, list[str], list[tuple], int, float]


def fork_available() -> bool:
    return (
        sys.platform != "win32"
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _execute_batch(
    runtime: PlanRuntime, start: int, count: int
) -> list[_Payload | None]:
    """Run windows ``[start, start+count)``; ``None`` terminates on EOS."""
    out: list[_Payload | None] = []
    for window_id in range(start, start + count):
        before = runtime.metrics.tuples_in
        watch = Stopwatch()
        result = runtime.execute_window(window_id)
        if result is None:
            out.append(None)
            break
        out.append(
            (
                result.window_id,
                result.window_end,
                result.columns,
                result.rows,
                runtime.metrics.tuples_in - before,
                watch.elapsed(),
            )
        )
    return out


class LocalShardWorker:
    """In-process shard execution (the default, deterministic path)."""

    def __init__(self, runtime: PlanRuntime) -> None:
        self._runtime = runtime
        self._pending: tuple[int, int] | None = None

    def request(self, start: int, count: int) -> None:
        self._pending = (start, count)

    def collect(self) -> list[_Payload | None]:
        assert self._pending is not None
        start, count = self._pending
        self._pending = None
        return _execute_batch(self._runtime, start, count)

    def metrics_snapshot(self):
        """``None``: an in-process shard writes straight into its shard
        engine's registry, which the coordinator snapshots directly."""
        return None

    def close(self) -> None:
        pass


def _shard_server(conn, runtime: PlanRuntime) -> None:
    """Worker-process loop: batched window execution over a pipe."""
    if runtime.obs is not None:
        # Fresh registry + tracer cut: the child counts only post-fork
        # work (the parent reports the inherited pre-fork counts) and
        # must not share the parent's span exporter file handle.
        runtime.rebind_obs(runtime.obs.forked())
    try:
        while True:
            message = conn.recv()
            if message[0] == "close":
                break
            if message[0] == "metrics":
                conn.send(
                    runtime.obs.registry.snapshot()
                    if runtime.obs is not None else None
                )
                continue
            _, start, count = message
            try:
                conn.send(_execute_batch(runtime, start, count))
            except Exception as exc:  # ship the failure to the coordinator
                conn.send(("__error__", f"{type(exc).__name__}: {exc}"))
                break
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ForkShardWorker:
    """One shard in a forked OS process (real data-parallel execution).

    The fork inherits the bound runtime — plans, compiled closures,
    partitioned data and UDFs cross without pickling; only window
    results come back over the pipe.
    """

    def __init__(self, runtime: PlanRuntime) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_shard_server, args=(child, runtime), daemon=True
        )
        self._process.start()
        child.close()

    def request(self, start: int, count: int) -> None:
        self._conn.send(("exec", start, count))

    def collect(self) -> list[_Payload | None]:
        reply = self._conn.recv()
        if isinstance(reply, tuple) and reply and reply[0] == "__error__":
            self.close()
            raise RuntimeError(f"shard worker failed: {reply[1]}")
        return reply

    def metrics_snapshot(self):
        """The child's post-fork registry delta, shipped over the pipe.

        Only safe between batches (request/collect pairs are synchronous
        inside ``execute_window``, so any caller outside a pulse is).
        Returns ``None`` once the worker is gone.
        """
        if not self._process.is_alive():
            return None
        try:
            self._conn.send(("metrics",))
            return self._conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            return None

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=2.0)
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.terminate()
        self._conn.close()


class ShardedPlanRuntime(WindowExecutor):
    """A plan bound across shards: batched dispatch + merge operators.

    Windows are requested from all shards in ``prefetch``-sized batches
    — with forked workers every shard computes its batch concurrently —
    then merged per window.
    """

    def __init__(
        self,
        plan: ContinuousPlan,
        combiner: CombinerSpec | None,
        shard_runtimes: list[PlanRuntime],
        metrics,
        udfs: UDFRegistry,
        parallel: str | None = None,
        prefetch: int = 8,
        scheduler=None,
    ) -> None:
        self.plan = plan
        #: the recombining merge operator (PARTIAL mode); ``None``
        #: merges group-disjoint shard outputs by concatenation
        self._combiner = combiner
        self.metrics = metrics
        self._udfs = udfs
        self._prefetch = max(1, prefetch)
        self._scheduler = scheduler
        use_fork = parallel in ("fork", "process") and fork_available()
        worker_cls = ForkShardWorker if use_fork else LocalShardWorker
        self.parallel = "fork" if use_fork else "serial"
        self._shard_runtimes = shard_runtimes
        self.workers: list[LocalShardWorker | ForkShardWorker] = [
            worker_cls(runtime) for runtime in shard_runtimes
        ]
        self._buffers: list[dict[int, _Payload]] = [{} for _ in self.workers]
        self._exhausted = [False] * len(self.workers)
        self._next_fetch = 0
        self._done = False
        self._closed = False
        if scheduler is not None:
            scheduler.assign_shards(plan.name, len(self.workers))

    def _fetch_batch(self) -> None:
        start, count = self._next_fetch, self._prefetch
        active = [
            i for i, done in enumerate(self._exhausted)
            if not done
        ]
        for i in active:  # dispatch to every shard first ...
            self.workers[i].request(start, count)
        for i in active:  # ... then gather, so forked shards overlap
            seconds = 0.0
            for payload in self.workers[i].collect():
                if payload is None:
                    self._exhausted[i] = True
                    break
                self._buffers[i][payload[0]] = payload
                seconds += payload[5]
            if self._scheduler is not None:
                self._scheduler.observe_shard(
                    self.plan.name, i, seconds=seconds
                )
        self._next_fetch = start + count

    def execute_window(self, window_id: int) -> WindowResult | None:
        if self._done:
            return None
        watch = Stopwatch()
        while (
            any(window_id in buffer for buffer in self._buffers) is False
            and not all(self._exhausted)
            and self._next_fetch <= window_id
        ):
            self._fetch_batch()
        payloads = [buffer.pop(window_id, None) for buffer in self._buffers]
        if all(p is None for p in payloads):
            self._done = True
            return None
        window_end = next(p[1] for p in payloads if p is not None)
        columns, rows = self._merge(payloads)
        self.metrics.windows_processed += 1
        self.metrics.tuples_in += sum(p[4] for p in payloads if p is not None)
        self.metrics.tuples_out += len(rows)
        self.metrics.wall_seconds += watch.elapsed()
        return WindowResult(self.plan.name, window_id, window_end, columns, rows)

    def _merge(
        self, payloads: list[_Payload | None]
    ) -> tuple[list[str], list[tuple]]:
        present = [p for p in payloads if p is not None]
        if self._combiner is not None:
            rows = combine_partials(
                [p[3] for p in present], self._combiner, self._udfs
            )
            return list(self._combiner.out_columns), rows
        # merge[concat]: shard outputs are each canonically ordered and
        # (PARTITIONED) group-disjoint — a k-way merge preserves the
        # exact single-shard order.
        columns = present[0][2]
        if len(present) == 1:
            return columns, present[0][3]
        rows = list(heapq.merge(*(p[3] for p in present), key=canonical_row_key))
        return columns, rows

    @property
    def leaf_runtimes(self) -> list[PlanRuntime]:
        """The per-shard bindings, in shard order."""
        return list(self._shard_runtimes)

    def release_demand(self) -> None:
        for runtime in self._shard_runtimes:
            runtime.release_demand()

    # -- adaptive re-planning ------------------------------------------------

    @property
    def last_pane_stats(self) -> tuple[int, int, int] | None:
        """Summed ``(reused, fresh, panes)`` across in-process shards.

        ``None`` under fork parallelism (the runtimes live in child
        processes; their stats flow back only through the ``("metrics",)``
        snapshot pipe) or when no shard ran a pane-path window — the
        re-planning guard treats that as "no signal".
        """
        if self.parallel == "fork":
            return None
        stats = [
            stats
            for stats in (r.last_pane_stats for r in self._shard_runtimes)
            if stats is not None
        ]
        return tuple(map(sum, zip(*stats))) if stats else None

    @property
    def demoted(self) -> bool:
        return any(runtime.demoted for runtime in self._shard_runtimes)

    def demote(self, reason: str = "cost-based demotion") -> bool:
        """Forward a cost-based demotion to every in-process shard.

        Safe between pulses (request/collect pairs are synchronous, so
        no shard is mid-window); each shard retires its tier the same
        way, so the merged output is unchanged.  Fork-parallel runtimes
        refuse (``False``): their pane state lives in child processes,
        mirroring the checkpoint restriction below.
        """
        if self.parallel == "fork":
            return False
        # a list, not a generator: every shard must be asked
        return any([runtime.demote(reason) for runtime in self._shard_runtimes])

    def metric_snapshots(self) -> list:
        """Registry deltas of this runtime's *fork* workers (in-process
        shards report ``None`` — their counts already live in the shard
        engine registries the coordinator snapshots)."""
        if self._closed:
            return []
        return [
            snapshot
            for snapshot in (w.metrics_snapshot() for w in self.workers)
            if snapshot is not None
        ]

    # -- checkpoint / restore -----------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable coordinator state: prefetched-but-unmerged payload
        buffers and the fetch cursor.  Per-shard incremental state is
        snapshotted separately via :attr:`leaf_runtimes` (it belongs to
        each shard's checkpoint scope).

        Fork-parallel runtimes hold their state in child processes and
        cannot be checkpointed; they raise :class:`RecoveryError`.
        """
        if self.parallel == "fork":
            raise RecoveryError(
                f"query {self.plan.name!r} runs fork-parallel shards; "
                "worker state lives in child processes and cannot be "
                "checkpointed (use parallel='serial')"
            )
        return {
            "buffers": [dict(buffer) for buffer in self._buffers],
            "exhausted": list(self._exhausted),
            "next_fetch": self._next_fetch,
            "done": self._done,
        }

    def restore_state(self, state: dict) -> None:
        self._buffers = [dict(buffer) for buffer in state["buffers"]]
        self._exhausted = list(state["exhausted"])
        self._next_fetch = state["next_fetch"]
        self._done = state["done"]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.close()
        for runtime in self._shard_runtimes:
            runtime.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class ShardedEngine(Engine):
    """N per-shard stream engines behind the one engine contract.

    ``shards`` fixes the worker pool size; each ``bind`` may use any
    ``1..shards`` of them.  ``parallel="fork"`` executes shards in
    forked worker processes (Linux/macOS); the default executes them
    in-process, which is deterministic and cheap for small queries.
    """

    def __init__(
        self,
        shards: int = 2,
        udfs: UDFRegistry | None = None,
        cache_capacity: int = 4096,
        parallel: str | None = None,
        prefetch: int = 8,
        scheduler=None,
        incremental: bool = True,
        mqo: bool = True,
        obs: Observability | None = None,
        adaptive: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        # The coordinator bundle carries the gateway's bus/MQO/scheduler
        # series; per-shard engines get their own registries (via
        # ``shard_view``) that ``metrics_snapshot`` merges in.  The
        # estimator samples through this engine's own source registry,
        # so registration-time choices are identical to ``shards=1``.
        super().__init__(udfs, incremental, mqo, obs, adaptive)
        self.default_shards = shards
        self.parallel = parallel
        self.prefetch = prefetch
        self.scheduler = scheduler
        #: coordinator-side per-query counters (merged window/tuple
        #: totals) on a *private* registry: the same work is already
        #: counted shard-side, and snapshots must not double-report it
        self.metrics = EngineMetrics()
        # Per-shard engines run pane tiers shard-locally: join-key-
        # partitioned layouts route both streams' matching tuples to the
        # same shard and shard slices preserve stream order, so each
        # shard's output — and therefore the merge — is unchanged by the
        # tier.
        self.shard_engines = [
            StreamEngine(
                udfs=self.udfs,
                cache_capacity=cache_capacity,
                incremental=incremental,
                mqo=mqo,
                obs=self.obs.shard_view(shard),
            )
            for shard in range(shards)
        ]
        for engine in self.shard_engines:
            engine.static_catalog = self.static_catalog
        #: stream name -> (materialised tuples, first ts, last ts)
        self._materialized: dict[str, tuple[list[tuple], float | None, float | None]] = {}
        self._runtimes: list[ShardedPlanRuntime] = []

    # -- sources and static databases (replicated to every shard) -----------

    def register_stream(self, source: StreamSource) -> None:
        super().register_stream(source)
        self._materialized.pop(source.stream.name, None)
        for engine in self.shard_engines:
            engine.register_stream(source)

    def attach_database(self, name: str, database: Database) -> None:
        super().attach_database(name, database)
        for engine in self.shard_engines:
            engine.attach_database(name, database)

    # -- per-scope resources -------------------------------------------------

    @property
    def cache(self):
        """Shard 0's window cache (the one-shard layout's)."""
        return self.shard_engines[0].cache

    @property
    def caches(self):
        return [engine.cache for engine in self.shard_engines]

    def reader_source(self, stream: str, scope: Scope, key_index: int | None):
        n, _key_column, shard = scope
        if n == 1:
            return super().reader_source(stream, scope, None)
        data, first_ts, last_ts = self._materialize(stream)
        return partitioned_tuples(data, shard, n, key_index, last_ts), first_ts

    def _materialize(self, stream: str) -> tuple[list[tuple], float | None, float | None]:
        cached = self._materialized.get(stream)
        if cached is None:
            source = self._sources[stream]
            data = list(iter(source))
            time_index = source.stream.schema.time_index
            first = data[0][time_index] if data else None
            last = data[-1][time_index] if data else None
            cached = (data, first, last)
            self._materialized[stream] = cached
        return cached

    # -- binding ------------------------------------------------------------

    def _bind(self, plan, shards, mqo, catalog, parallel=None):
        """One leaf runtime per shard scope of the chosen layout.  The
        MQO registry is scoped per (layout, shard) like the readers —
        shard slices must never interchange results across layouts."""
        if plan.partitioning is None:
            plan.partitioning = analyze_partitioning(plan, self)
        decision = plan.partitioning
        n = self.resolve_shards(plan, shards)
        if n == 1:
            # the one-node layout: the plan verbatim over full streams
            return self.shard_engines[0].bind_scope(
                plan,
                catalog[PLAIN_SCOPE],
                None if mqo is None else mqo.scoped("1:none:0"),
                PLAIN_SCOPE,
            )
        shard_plan, combiner = make_shard_plan(plan, decision)
        shard_runtimes = []
        for shard in range(n):
            scope = (n, decision.key_column, shard)
            for ref in plan.windows:  # this shard's partitioned readers
                self.shared_reader(
                    catalog[scope], ref, plan, scope,
                    decision.stream_keys.get(ref.stream),
                )
            shard_runtimes.append(
                self.shard_engines[shard].bind_scope(
                    shard_plan,
                    catalog[scope],
                    None if mqo is None
                    else mqo.scoped(f"{n}:{decision.key_column}:{shard}"),
                    scope,
                )
            )
        runtime = ShardedPlanRuntime(
            plan=plan,
            combiner=combiner,
            shard_runtimes=shard_runtimes,
            metrics=self.metrics.query(plan.name),
            udfs=self.udfs,
            parallel=parallel if parallel is not None else self.parallel,
            prefetch=self.prefetch,
            scheduler=self.scheduler,
        )
        self._runtimes.append(runtime)
        return runtime

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self):
        """Coordinator + per-shard registries, merged into one snapshot.

        Per-mode merge folds the shards: work counters (tuples, panes,
        MQO hits) sum across shards, window counters and wall clocks
        take the max — every shard executes the same window ids over
        overlapping wall time.  Fork workers additionally ship their
        post-fork registry deltas back over the worker pipe.
        """
        snapshot = self.obs.registry.snapshot()
        for engine in self.shard_engines:
            snapshot = snapshot.merge(engine.metrics_snapshot())
        for runtime in self._runtimes:
            for shard_snapshot in runtime.metric_snapshots():
                snapshot = snapshot.merge(shard_snapshot)
        return snapshot

    def close(self) -> None:
        """Terminate every live shard worker (forked processes)."""
        for runtime in self._runtimes:
            runtime.close()
        self._runtimes.clear()

    def __enter__(self) -> ShardedEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_engine(
    shards: int = 1, parallel: str | None = None, scheduler=None, **options
) -> Engine:
    """The engine of a ``shards``-wide deployment — the one place that
    picks the shape.  ``options`` are the keywords both engines share
    (``incremental=``, ``mqo=``, ``adaptive=``, ``obs=`` ...)."""
    if shards > 1:
        return ShardedEngine(
            shards=shards, parallel=parallel, scheduler=scheduler, **options
        )
    return StreamEngine(**options)
