"""Checkpoint coordination: one frame per epoch in one append-only log.

One checkpoint **epoch** is a consistent cut of the whole deployment,
written as one frame in ``gateway.log``: the gateway catalog (queries,
sinks, MQO pipelines) and every (layout, shard) scope's record (reader
positions, runtime rings), pickled once.  A query's plan does not
change after registration, so it is pickled once per registration into
a plan frame, written ahead of the first epoch frame that names it, and
every epoch refers to it by byte offset.  An epoch's frames go to disk
in one write and one fsync (group commit, DeWitt et al., SIGMOD 1984):
an epoch is durable exactly when its frame is intact, so there is no
pointer file to flip and a crash anywhere mid-checkpoint can only lose
the in-flight epoch.

Recovery walks the frame headers from the front, seeking over the
payloads, truncates a torn tail, and checksums only the candidates:
the newest epoch frame first, with the plan frames it names, falling
back to older epochs while one fails.  A directory written when each
scope had its own ``engine-*.log`` (catalogs that list
``scope_files``) still recovers, read-only.
"""

from __future__ import annotations

import gc
import logging
import pickle
from contextlib import contextmanager
from pathlib import Path

from ..metrics import Stopwatch
from .log import KIND_GATEWAY, KIND_PLAN, KIND_SCOPE, CheckpointLog, frame
from .snapshot import restore_gateway, snapshot_gateway

__all__ = ["CheckpointManager", "recover", "GATEWAY_LOG"]

logger = logging.getLogger(__name__)

GATEWAY_LOG = "gateway.log"


@contextmanager
def _gc_paused():
    """Suspend the cyclic collector for a bulk (un)pickle section.

    Snapshotting or restoring a gateway allocates hundreds of
    thousands of short-lived container objects in one burst; each
    generational collection that burst triggers re-scans the whole
    live heap without finding garbage.  Pausing collection for the
    critical section is the standard bulk-load remedy and cuts
    checkpoint and recovery latency several-fold on busy heaps.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _open_log(directory: Path, **options) -> tuple[CheckpointLog, list, int]:
    """The directory's log, its frame headers and its end, a torn tail
    cut off."""
    log = CheckpointLog(directory / GATEWAY_LOG, **options)
    frames, end, error = log.frames()
    if error is not None:
        logger.warning(
            "%s: %s; truncating to the last intact record", log.path, error
        )
        log.truncate(end)
    return log, frames, end


class CheckpointManager:
    """Pulse-driven checkpointing for one gateway.

    Attaches itself as ``gateway.checkpointer``; the gateway calls
    :meth:`on_pulse` after every delivered window and every
    ``interval``-th pulse writes a full epoch.  ``max_retries`` /
    ``base_delay`` configure the log's transient-IO retry policy and are
    validated eagerly; ``faults`` threads a
    :class:`~repro.exastream.durability.FaultInjector` through both the
    pulse hook and every log write.
    """

    def __init__(
        self,
        gateway,
        directory,
        *,
        interval: int = 1,
        max_retries: int = 3,
        base_delay: float = 0.002,
        max_delay: float = 0.25,
        fsync: bool = True,
        faults=None,
    ) -> None:
        if not isinstance(interval, int) or isinstance(interval, bool):
            raise ValueError(f"interval must be an int, got {interval!r}")
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.gateway = gateway
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self.faults = faults
        # The log ctor validates the retry knobs (ValueError on a bad
        # max_retries/base_delay) before anything attaches.
        self.log, frames, self._end = _open_log(
            self.directory,
            max_retries=max_retries,
            base_delay=base_delay,
            max_delay=max_delay,
            fsync=fsync,
            faults=faults,
        )
        # Continue the epoch sequence past the newest frame: a
        # post-recovery manager must append strictly newer epochs.
        self.epoch = max((f.epoch for f in frames), default=0)
        # query name -> (its plan, the offset of that plan's frame)
        self._plans: dict[str, tuple[object, int]] = {}
        self.pulses = 0
        # Flush-time series live in the gateway's registry; the span
        # opened per flush nests under the pulse span (when tracing).
        self._obs = getattr(gateway, "obs", None)
        self._h_flush = (
            self._obs.registry.histogram("checkpoint_flush_seconds")
            if self._obs is not None and self._obs.enabled else None
        )
        gateway.checkpointer = self

    # -- gateway hook --------------------------------------------------------

    def on_pulse(self) -> None:
        """One delivered window; checkpoint on every ``interval``-th."""
        self.pulses += 1
        if self.faults is not None:
            self.faults.on_pulse()  # may raise SimulatedCrash
        if self.pulses % self.interval == 0:
            self.checkpoint()

    def checkpoint(self) -> int:
        """Write one epoch: its frame, after the frames of plans
        registered since the last epoch, in one write and one fsync."""
        obs = self._obs
        watch = Stopwatch() if self._h_flush is not None else None
        if obs is not None and obs.tracer.enabled:
            with obs.span("checkpoint_flush", epoch=self.epoch + 1):
                with _gc_paused():
                    epoch = self._checkpoint()
        else:
            with _gc_paused():
                epoch = self._checkpoint()
        if watch is not None:
            self._h_flush.observe(watch.elapsed())
        return epoch

    def _checkpoint(self) -> int:
        epoch = self.epoch + 1
        frames: list[bytes] = []
        plans: dict[str, tuple[object, int]] = {}
        at = self._end

        def plan_at(q) -> int:
            nonlocal at
            known = self._plans.get(q.name)
            if known is None or known[0] is not q.plan:
                frames.append(
                    frame(
                        KIND_PLAN,
                        epoch,
                        pickle.dumps(q.plan, pickle.HIGHEST_PROTOCOL),
                    )
                )
                known = (q.plan, at)
                at += len(frames[-1])
            plans[q.name] = known
            return known[1]

        snap = snapshot_gateway(self.gateway, plan_at)
        frames.append(
            frame(KIND_GATEWAY, epoch, pickle.dumps(snap, pickle.HIGHEST_PROTOCOL))
        )
        data = b"".join(frames)
        self.log.write(data, self._end)
        self._end += len(data)
        self._plans = plans
        self.epoch = epoch
        return epoch

    def close(self) -> None:
        """Detach from the gateway (idempotent)."""
        if self.gateway is not None and self.gateway.checkpointer is self:
            self.gateway.checkpointer = None

    # -- audit ---------------------------------------------------------------

    def audit_violations(self) -> list[str]:
        """Checkpoint bookkeeping invariants (for ``verify_gateway``)."""
        violations = []
        if self.gateway is not None and self.gateway.checkpointer is not self:
            violations.append(
                "gateway.checkpointer does not point back at the attached "
                "checkpoint manager"
            )
        if self.pulses < 0 or self.epoch < 0:
            violations.append(
                f"negative checkpoint counters (pulses={self.pulses}, "
                f"epoch={self.epoch})"
            )
        newest = max((f.epoch for f in self.log.frames()[0]), default=0)
        if newest > self.epoch:
            violations.append(
                f"the log holds epoch {newest}, ahead of the manager's "
                f"epoch {self.epoch}"
            )
        return violations


def recover(directory, engine, scheduler=None, *, max_retries: int = 3, base_delay: float = 0.002):
    """Rebuild a gateway from the newest intact checkpoint epoch.

    ``engine`` must be freshly constructed with the same streams and
    static databases registered — sources live outside the checkpoint,
    which records only positions into them.  Returns ``None`` when no
    usable checkpoint exists (callers fall back to replaying from
    scratch).  A torn log tail is logged and truncated; recovery then
    reads the newest epoch frame whose checksum, and whose plan frames'
    checksums, hold — older frames are never checksummed.
    """
    with _gc_paused():
        return _recover(
            Path(directory),
            engine,
            scheduler,
            dict(max_retries=max_retries, base_delay=base_delay),
        )


def _recover(directory: Path, engine, scheduler, options):
    log, frames, _end = _open_log(directory, **options)
    by_offset = {found.offset: found for found in frames}
    legacy: dict[str, dict[int, bytes]] = {}
    for found in reversed(frames):
        if found.kind != KIND_GATEWAY:
            continue
        payload = log.read(found)
        catalog = None if payload is None else pickle.loads(payload)
        if catalog is None:
            scopes = None
        elif "scope_files" in catalog:
            scopes = _legacy_scopes(directory, catalog, found.epoch, legacy, options)
        else:
            scopes = catalog["scopes"] if _load_plans(log, by_offset, catalog) else None
        if scopes is None:
            logger.warning(
                "checkpoint epoch %d is incomplete or corrupt; falling "
                "back to an older epoch",
                found.epoch,
            )
            continue
        return restore_gateway(engine, catalog, scopes, scheduler=scheduler)
    return None


def _load_plans(log, by_offset, catalog) -> bool:
    """Put the plan each catalog entry names by frame offset in its
    place; ``False`` when a plan frame is missing or corrupt."""
    for entry in catalog["queries"]:
        found = by_offset.get(entry["plan"])
        body = None if found is None or found.kind != KIND_PLAN else log.read(found)
        if body is None:
            return False
        entry["plan"] = pickle.loads(body)
    return True


def _legacy_scopes(directory, catalog, epoch, cache, options):
    """The scope records of an epoch written with one log per scope, or
    ``None`` when one lacks its record (read-only: nothing truncated)."""
    scopes = {}
    for filename, scope in catalog["scope_files"]:
        if filename not in cache:
            records = CheckpointLog(directory / filename, **options).scan()[0]
            cache[filename] = {
                rec_epoch: body
                for rec_epoch, kind, body in records
                if kind == KIND_SCOPE
            }
        payload = cache[filename].get(epoch)
        if payload is None:
            return None
        scopes[tuple(scope)] = pickle.loads(payload)
    return scopes
