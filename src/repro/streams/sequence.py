"""STARQL sequencing semantics.

STARQL "extends snapshot semantics for window operators with sequencing
semantics": the contents of a window are partitioned into a *sequence of
states*.  The standard method ``StdSeq`` groups tuples by their exact
timestamp; state ``i`` holds everything measured at the i-th distinct
timestamp inside the window.  HAVING clauses then quantify over state
indexes (``EXISTS ?k IN SEQ``, ``FORALL ?i < ?j IN seq``) and evaluate
graph patterns *per state* under the ontology — the sequence can also
respect integrity constraints such as functionality of measurement values
(``assert_functional``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from collections.abc import Callable, Iterable
from typing import Any

from ..errors import ReproError
from ..rdf import Graph, Triple
from .window import WindowBatch

__all__ = ["State", "StateSequence", "build_sequence", "SequencingError"]


class SequencingError(ReproError, ValueError):
    """Raised when sequencing violates a declared integrity constraint."""


@dataclass
class State:
    """One state of a window sequence."""

    index: int
    timestamp: Any
    tuples: list[tuple[Any, ...]]
    graph: Graph | None = None

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass
class StateSequence:
    """The ordered states of one window instance."""

    window_id: int
    states: list[State]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    def indexes(self) -> range:
        return range(len(self.states))


def build_sequence(
    batch: WindowBatch,
    time_index: int,
    to_triples: Callable[[tuple[Any, ...]], Iterable[Triple]] | None = None,
    functional_key: Callable[[tuple[Any, ...]], tuple] | None = None,
) -> StateSequence:
    """Build the ``StdSeq`` state sequence of a window batch.

    ``to_triples`` optionally materialises each state as an RDF graph (the
    ABox snapshot STARQL's HAVING patterns are evaluated against).
    ``functional_key`` declares a functionality constraint: two tuples in
    the same state with equal keys but different payloads raise
    :class:`SequencingError` (e.g. one sensor reporting two different
    values at the same instant).
    """
    ordered = sorted(batch.tuples, key=lambda t: t[time_index])
    states: list[State] = []
    for index, (timestamp, group) in enumerate(
        groupby(ordered, key=lambda t: t[time_index])
    ):
        members = list(group)
        if functional_key is not None:
            seen: dict[tuple, tuple[Any, ...]] = {}
            for member in members:
                key = functional_key(member)
                other = seen.get(key)
                if other is not None and other != member:
                    raise SequencingError(
                        f"functionality violated at t={timestamp}: "
                        f"{other} vs {member}"
                    )
                seen[key] = member
        graph = None
        if to_triples is not None:
            graph = Graph()
            for member in members:
                graph.update(to_triples(member))
        states.append(State(index, timestamp, members, graph))
    return StateSequence(batch.window_id, states)
