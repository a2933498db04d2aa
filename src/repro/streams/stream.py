"""Stream model: schemas, registered streams and replayable sources.

A stream is an unbounded, timestamp-ordered sequence of relational tuples.
The demo "plays" recorded Siemens data to emulate live streams; sources
here are replayable generators so every experiment is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from ..relational import Column

__all__ = ["StreamSchema", "Stream", "StreamSource", "ListSource", "merge_sources"]


@dataclass(frozen=True)
class StreamSchema:
    """Column layout of a stream; exactly one column carries event time."""

    columns: tuple[Column, ...]
    time_column: str

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stream column names")
        if self.time_column not in names:
            raise ValueError(
                f"time column {self.time_column!r} not among {names}"
            )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def time_index(self) -> int:
        return self.column_names.index(self.time_column)

    def index_of(self, name: str) -> int:
        """Position of ``name``; raises ``ValueError`` when absent."""
        return self.column_names.index(name)

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class Stream:
    """A registered stream: a name plus its schema."""

    name: str
    schema: StreamSchema

    def __str__(self) -> str:
        return f"STREAM {self.name}({', '.join(self.schema.column_names)})"


class StreamSource:
    """A replayable producer of timestamp-ordered tuples for one stream.

    Sources rewind: every pass yields the same items in the same order.
    Checkpoints rely on it — a reader's record holds only item offsets
    into its source, and recovery re-reads the source from them.
    """

    def __init__(
        self,
        stream: Stream,
        factory: Callable[[], Iterable[tuple[Any, ...]]],
    ) -> None:
        self.stream = stream
        self._factory = factory

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        """A fresh pass over the recorded data (replayable)."""
        return iter(self._factory())

    def take(self, n: int) -> list[tuple[Any, ...]]:
        """The first ``n`` tuples (test helper)."""
        out = []
        for i, item in enumerate(self):
            if i >= n:
                break
            out.append(item)
        return out


class ListSource(StreamSource):
    """A source backed by an in-memory tuple list."""

    def __init__(self, stream: Stream, tuples: Sequence[tuple[Any, ...]]) -> None:
        data = list(tuples)
        time_index = stream.schema.time_index
        for previous, current in zip(data, data[1:]):
            if current[time_index] < previous[time_index]:
                raise ValueError("stream tuples must be timestamp-ordered")
        super().__init__(stream, lambda: data)
        self._data = data

    def __len__(self) -> int:
        return len(self._data)


def merge_sources(sources: Sequence[StreamSource]) -> Iterator[tuple[str, tuple]]:
    """Merge several sources into one timestamp-ordered feed.

    Yields ``(stream_name, tuple)`` pairs; a k-way merge on event time, the
    shape the gateway uses to drive multiple input streams in one run.
    """
    import heapq

    iterators = []
    for order, source in enumerate(sources):
        iterator = iter(source)
        time_index = source.stream.schema.time_index
        try:
            first = next(iterator)
        except StopIteration:
            continue
        iterators.append(
            (first[time_index], order, first, iterator, source.stream.name, time_index)
        )
    heap = iterators
    heapq.heapify(heap)
    while heap:
        timestamp, order, item, iterator, name, time_index = heapq.heappop(heap)
        yield name, item
        try:
            nxt = next(iterator)
        except StopIteration:
            continue
        heapq.heappush(heap, (nxt[time_index], order, nxt, iterator, name, time_index))
