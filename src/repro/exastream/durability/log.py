"""Append-only checkpoint log: framed, checksummed, torn-tail tolerant.

Each frame is a fixed header — magic, format version, record kind,
epoch, payload length, CRC32 of the payload — followed by the pickled
payload.  Writes go through a capped-exponential-backoff retry wrapper
for transient IO errors.  :meth:`CheckpointLog.frames` walks the
headers front-to-back, seeking over payloads, and stops at the first
header that fails validation or a payload cut short, so a torn tail
(partial header, short payload, garbage) costs exactly the frames after
the last intact one and never an older epoch; a payload's checksum is
checked when it is read.
"""

from __future__ import annotations

import logging
import os
import struct
import time
import zlib
from pathlib import Path
from typing import NamedTuple

from ...errors import CheckpointCorrupt
from .faults import FaultInjector, SimulatedCrash

__all__ = [
    "CheckpointLog",
    "Frame",
    "frame",
    "MAGIC",
    "VERSION",
    "KIND_GATEWAY",
    "KIND_SCOPE",
    "KIND_PLAN",
]

logger = logging.getLogger(__name__)

MAGIC = b"RCKP"
VERSION = 1
#: record kinds: one checkpoint epoch (the gateway catalog with every
#: scope's record), one (layout, shard) scope's engine state (only in
#: logs written before epochs were single frames), one query's plan
KIND_GATEWAY = 1
KIND_SCOPE = 2
KIND_PLAN = 3

#: frame header: magic, version, kind, epoch, payload length, CRC32
_HEADER = struct.Struct(">4sHHQQI")


class Frame(NamedTuple):
    """One frame's header, as :meth:`CheckpointLog.frames` found it."""

    offset: int
    kind: int
    epoch: int
    length: int
    crc: int


def frame(kind: int, epoch: int, payload: bytes) -> bytes:
    """``payload`` framed: header, then the payload."""
    return (
        _HEADER.pack(MAGIC, VERSION, kind, epoch, len(payload), zlib.crc32(payload))
        + payload
    )


class CheckpointLog:
    """One append-only frame log with retried, checksummed writes.

    ``max_retries`` and ``base_delay`` bound the transient-IO retry
    policy (attempt ``k`` sleeps ``min(base_delay * 2**k, max_delay)``);
    both are validated here so misconfiguration fails at construction,
    not at the first crash.
    """

    def __init__(
        self,
        path,
        *,
        max_retries: int = 3,
        base_delay: float = 0.002,
        max_delay: float = 0.25,
        fsync: bool = True,
        faults: FaultInjector | None = None,
    ) -> None:
        if not isinstance(max_retries, int) or isinstance(max_retries, bool):
            raise ValueError(f"max_retries must be an int, got {max_retries!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not isinstance(base_delay, (int, float)) or base_delay < 0:
            raise ValueError(
                f"base_delay must be a number >= 0, got {base_delay!r}"
            )
        if not isinstance(max_delay, (int, float)) or max_delay < base_delay:
            raise ValueError(
                f"max_delay must be a number >= base_delay, got {max_delay!r}"
            )
        self.path = Path(path)
        self.max_retries = max_retries
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.fsync = fsync
        self.faults = faults

    # -- write path ----------------------------------------------------------

    def _with_retry(self, operation: str, fn):
        attempt = 0
        while True:
            try:
                if self.faults is not None:
                    self.faults.io_op()
                return fn()
            except OSError as exc:
                if attempt >= self.max_retries:
                    raise
                delay = min(self.base_delay * (2**attempt), self.max_delay)
                logger.warning(
                    "checkpoint %s on %s failed (%s); retry %d/%d in %.3fs",
                    operation,
                    self.path.name,
                    exc,
                    attempt + 1,
                    self.max_retries,
                    delay,
                )
                if delay:
                    time.sleep(delay)
                attempt += 1

    def write(self, data: bytes, at: int | None = None) -> int:
        """Write ``data`` (whole frames) at byte offset ``at`` — by
        default the end of the file — in one write, optionally
        fsynced.  Returns the offset written at.  A retry after a failed
        write rewrites the same bytes at the same offset, so a partial
        write never leaves garbage between frames."""
        tear = None if self.faults is None else self.faults.tear_offset()
        start = at

        def write() -> int:
            nonlocal start
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                if start is None:
                    start = os.lseek(fd, 0, os.SEEK_END)
                # An injected torn write persists a prefix, then dies:
                # recovery must detect and truncate it.
                view, position = memoryview(data)[:tear], start
                while view:
                    written = os.pwrite(fd, view, position)
                    view, position = view[written:], position + written
                if self.fsync or tear is not None:
                    os.fsync(fd)
            finally:
                os.close(fd)
            if tear is not None:
                raise SimulatedCrash(
                    f"injected torn write at +{tear}B in {self.path.name}"
                )
            return start

        return self._with_retry("write", write)

    def append(self, kind: int, epoch: int, payload: bytes) -> int:
        """Frame and append one record; returns the offset it starts at."""
        return self.write(frame(kind, epoch, payload))

    def truncate(self, offset: int) -> None:
        """Drop the invalid tail (degradation after a torn write)."""

        def do() -> None:
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)

        self._with_retry("truncate", do)

    # -- read path -----------------------------------------------------------

    def frames(self) -> tuple[list[Frame], int, str | None]:
        """Walk the frame headers front-to-back, seeking over payloads.

        Returns ``(frames, valid_end, error)``: the headers that
        validated (magic, version, a payload that fits in the file),
        the byte offset just past the last of them, and ``None`` or a
        reason string describing the invalid tail.  Checksums are not
        checked here; :meth:`read` checks one frame's.
        """
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return [], 0, None
        found: list[Frame] = []
        offset = 0
        error: str | None = None
        with fh:
            size = os.fstat(fh.fileno()).st_size
            while offset < size:
                fh.seek(offset)
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    error = f"truncated header at offset {offset}"
                    break
                magic, version, kind, epoch, length, crc = _HEADER.unpack(header)
                if magic != MAGIC:
                    error = f"bad magic at offset {offset}"
                    break
                if version != VERSION:
                    error = f"unsupported format version {version} at offset {offset}"
                    break
                end = offset + _HEADER.size + length
                if end > size:
                    error = f"truncated payload at offset {offset}"
                    break
                found.append(Frame(offset, kind, epoch, length, crc))
                offset = end
        return found, offset, error

    def read(self, found: Frame) -> bytes | None:
        """``found``'s payload, or ``None`` when its checksum fails."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(found.offset + _HEADER.size)
                payload = fh.read(found.length)
        except OSError:
            return None
        if len(payload) < found.length or zlib.crc32(payload) != found.crc:
            return None
        return payload

    def scan(
        self, strict: bool = False
    ) -> tuple[list[tuple[int, int, bytes]], int, str | None]:
        """Every intact record front-to-back, checksums included.

        Returns ``(records, valid_end, error)``: the ``(epoch, kind,
        payload)`` triples that validated, the byte offset just past the
        last intact record, and ``None`` or a reason string describing
        the invalid tail.  ``strict=True`` raises
        :class:`~repro.errors.CheckpointCorrupt` instead of tolerating
        the tail.
        """
        found, valid_end, error = self.frames()
        records: list[tuple[int, int, bytes]] = []
        for item in found:
            payload = self.read(item)
            if payload is None:
                error = f"checksum mismatch at offset {item.offset}"
                valid_end = item.offset
                break
            records.append((item.epoch, item.kind, payload))
        if error is not None and strict:
            raise CheckpointCorrupt(f"{self.path}: {error}")
        return records, valid_end, error
