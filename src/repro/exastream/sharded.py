"""Sharded data-parallel stream execution: N leaf runtimes + merge.

This is the execution half of the sharding subsystem (the planning half
lives in :mod:`repro.exastream.sharding`).  When
:class:`~repro.exastream.engine.StreamEngine` lays a plan out over
``n > 1`` of its nodes it hash-partitions every windowed stream by the
plan's key column, one catalog scope per shard of the layout, and binds
one leaf :class:`~repro.exastream.engine.PlanRuntime` per shard under
what this module provides:

* :class:`ShardedPlanRuntime`, the coordinating
  :class:`~repro.exastream.contracts.WindowExecutor`, which drives the
  leaves in window batches and merges their results per window
  (``merge[concat]`` for shard-local groups, a recombining
  ``merge[combine]`` for partial aggregates);
* the two shard workers behind it: in-process (the default), or one
  *forked worker process* per shard, driven over a pipe.  Fork workers
  hold their leaf state in the child, so such a runtime refuses
  ``demote()`` and ``snapshot_state()`` and reports no pane statistics.

A one-shard layout (``shards=1``, or any SINGLETON plan) never comes
here: the engine binds a plain ``PlanRuntime`` on node 0.
"""

from __future__ import annotations

import heapq
import multiprocessing
import sys

from ..errors import RecoveryError
from .contracts import WindowExecutor
from .engine import PlanRuntime, StreamEngine, WindowResult
from .metrics import Stopwatch
from .plan import ContinuousPlan
from .sharding import CombinerSpec, canonical_row_key, combine_partials
from .udf import UDFRegistry

__all__ = ["ShardedEngine", "ShardedPlanRuntime"]

#: windows requested from every shard per dispatch round
PREFETCH = 8

#: (window_id, window_end, columns, rows, tuples_in, seconds, pane
#: stats) — one shard's output for one window, as shipped over the
#: worker protocol.  ``seconds`` is the shard's own execution time, so
#: observed load stays correct under fork parallelism (coordinator-side
#: timing would only measure pipe wait).  ``pane stats`` is the leaf's
#: ``last_pane_stats`` for *this* window: shards run ahead in batches,
#: so the leaves' current value describes a later window.
_Payload = tuple[
    int, float, list[str], list[tuple], int, float,
    tuple[int, int, int] | None,
]


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
                runtime.last_pane_stats,
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
        """``None``: an in-process shard writes straight into its node's
        registry, which the engine snapshots directly."""
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

    The fork inherits the bound runtime — plans, generated kernels,
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

    Windows are requested from all shards in :data:`PREFETCH`-sized
    batches — with forked workers every shard computes its batch
    concurrently — then merged per window.
    """

    def __init__(
        self,
        plan: ContinuousPlan,
        combiner: CombinerSpec | None,
        shard_runtimes: list[PlanRuntime],
        metrics,
        udfs: UDFRegistry,
        parallel: str | None = None,
        scheduler=None,
    ) -> None:
        self.plan = plan
        #: the recombining merge operator (PARTIAL mode); ``None``
        #: merges group-disjoint shard outputs by concatenation
        self._combiner = combiner
        self.metrics = metrics
        self._udfs = udfs
        self._scheduler = scheduler
        use_fork = parallel == "fork" and fork_available()
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
        self._last_pane_stats: tuple[int, int, int] | None = None
        if scheduler is not None:
            scheduler.assign_shards(plan.name, len(self.workers))

    def _fetch_batch(self) -> None:
        start, count = self._next_fetch, PREFETCH
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
        # a payload buffered by a checkpoint older than the stats field
        # has six items: no signal
        stats = [
            p[6] for p in payloads
            if p is not None and len(p) > 6 and p[6] is not None
        ]
        self._last_pane_stats = (
            tuple(map(sum, zip(*stats))) if stats else None
        )
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

    # -- adaptive re-planning ------------------------------------------------

    @property
    def last_pane_stats(self) -> tuple[int, int, int] | None:
        """Summed ``(reused, fresh, panes)`` across the shards, for the
        window just merged.

        ``None`` under fork parallelism (a refusal: such a runtime
        cannot act on the signal, see :meth:`demote`) or when no shard
        served the window from its pane tier — the re-planning guard
        treats that as "no signal".
        """
        if self.parallel == "fork":
            return None
        return self._last_pane_stats

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
        shards report ``None`` — their counts already live in the node
        registries the engine snapshots)."""
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


#: The engine of a multi-node deployment is the engine: width is the
#: constructor's ``shards=``.  The name stays for existing imports.
ShardedEngine = StreamEngine
