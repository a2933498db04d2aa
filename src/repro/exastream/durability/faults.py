"""Deterministic fault injection for the durability layer.

Crash/recovery tests need reproducible failures: an engine killed at an
exact pulse, a checkpoint record torn at an exact byte offset, an IO
error that fails exactly K times before succeeding.  One
:class:`FaultInjector` instance is shared between the
:class:`~repro.exastream.durability.CheckpointManager` (which consults
it per pulse) and every :class:`~repro.exastream.durability.log.CheckpointLog`
(which consults it per low-level write), so a single schedule drives the
whole failure scenario.
"""

from __future__ import annotations

__all__ = ["SimulatedCrash", "FaultInjector", "tear_file"]


class SimulatedCrash(RuntimeError):
    """Raised by fault injection to kill an engine at a chosen point.

    Test drivers catch it at their step loop, discard every in-memory
    object (the "process died") and exercise recovery from the on-disk
    checkpoint logs alone.
    """


class FaultInjector:
    """A deterministic failure schedule.

    * ``crash_after_pulses=N`` — the Nth executed window raises
      :class:`SimulatedCrash` *before* any checkpoint it would trigger,
      so recovery always resumes from strictly older durable state.
    * ``transient_io_errors=K`` — the next K low-level log writes raise
      ``OSError`` once each; the log's capped exponential backoff
      retries through them (or surfaces the error once retries run out).
    * ``tear_write=(W, offset)`` — the Wth log write stops after
      ``offset`` bytes of its frames and raises :class:`SimulatedCrash`:
      a torn write whose tail fails its checksum on recovery.
    """

    def __init__(
        self,
        *,
        crash_after_pulses: int | None = None,
        transient_io_errors: int = 0,
        tear_write: tuple[int, int] | None = None,
    ) -> None:
        if crash_after_pulses is not None and crash_after_pulses < 1:
            raise ValueError("crash_after_pulses must be >= 1 (or None)")
        if transient_io_errors < 0:
            raise ValueError("transient_io_errors must be >= 0")
        if tear_write is not None and (tear_write[0] < 1 or tear_write[1] < 0):
            raise ValueError("tear_write is (append index >= 1, offset >= 0)")
        self.crash_after_pulses = crash_after_pulses
        self.transient_io_errors = int(transient_io_errors)
        self.tear_write = tear_write
        self.pulses = 0
        self.writes = 0

    def on_pulse(self) -> None:
        """Count one executed window; crash if this is the chosen one."""
        self.pulses += 1
        if (
            self.crash_after_pulses is not None
            and self.pulses >= self.crash_after_pulses
        ):
            raise SimulatedCrash(f"injected crash at pulse {self.pulses}")

    def io_op(self) -> None:
        """Gate one low-level write; raises while the error budget lasts."""
        if self.transient_io_errors > 0:
            self.transient_io_errors -= 1
            raise OSError("injected transient IO failure")

    def tear_offset(self) -> int | None:
        """Byte offset to tear the current write at, or ``None``.

        Counts writes across every log sharing this injector, so the
        schedule picks one specific write in the whole checkpoint.
        """
        self.writes += 1
        if self.tear_write is not None and self.writes == self.tear_write[0]:
            return self.tear_write[1]
        return None


def tear_file(path, offset: int) -> None:
    """Truncate ``path`` at ``offset`` bytes: a post-hoc torn tail."""
    with open(path, "r+b") as fh:
        fh.truncate(offset)
