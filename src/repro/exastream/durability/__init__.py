"""Durable engine state: checkpoint logs, crash recovery, fault injection.

The durability layer makes a gateway deployment restartable: a
:class:`CheckpointManager` snapshots every query's runtime rings,
shared reader positions, wCache slices, MQO pipeline entries and
lifecycle state into one append-only log, one frame per epoch, at a
configurable pulse interval, and :func:`recover` rebuilds an equivalent
gateway from the newest intact epoch — the continued run's output is
byte-identical to an uninterrupted one.  :func:`migrate_query` reuses
the same state walker for live query handoff between gateways, and
:mod:`~repro.exastream.durability.faults` provides the deterministic
crash/torn-write/IO-error schedules the recovery tests are built on.
"""

from .checkpoint import CheckpointManager, recover
from .faults import FaultInjector, SimulatedCrash, tear_file
from .log import CheckpointLog
from .migration import migrate_query
from .snapshot import restore_gateway, snapshot_gateway

__all__ = [
    "CheckpointManager",
    "recover",
    "CheckpointLog",
    "FaultInjector",
    "SimulatedCrash",
    "tear_file",
    "migrate_query",
    "snapshot_gateway",
    "restore_gateway",
]
