"""Sharding analysis: which plans partition, and how results merge.

The paper's ExaStream deployment scales by partitioning the turbine
streams across worker machines; this module is the planning half of that
subsystem.  Given a :class:`~repro.exastream.plan.ContinuousPlan` it
decides one of three execution modes:

* ``PARTITIONED`` — the streams hash-partition on a key column, every
  group of the aggregation lives entirely on one shard, and the global
  result is an order-preserving merge (no recombination).  Sequence UDFs
  and HAVING stay shard-local, and per-group float arithmetic is
  bitwise identical to single-shard execution.
* ``PARTIAL`` — rows partition freely (round-robin or by key), shards
  compute *partial* aggregates (``AVG`` decomposes into ``SUM`` +
  ``COUNT``), and a merge operator recombines partials by group key and
  applies HAVING afterwards.  Only the combinable SQL aggregates
  (COUNT/SUM/AVG/MIN/MAX) qualify.
* ``SINGLETON`` — everything else (plain projections, whose row order is
  part of the result, and non-combinable aggregates without a
  co-partitioned group key) executes on a single shard.

The analysis works on join-equivalence classes: the partition key
candidate is any plain group-by column whose equivalence class (under
the plan's equi-joins) reaches a raw schema column of *every* windowed
stream — that is exactly the condition under which hash-partitioning all
inputs on the class keeps each group shard-local.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from ..sql import BinOp, Col, Expr
from ..streams import Heartbeat
from .partial_agg import (
    COMBINABLE as _COMBINABLE,
)
from .partial_agg import (
    CombinerSpec,
    canonical_row_key,
    combine_partials,
    plan_combiner,
)
from .plan import AggregateSpec, ContinuousPlan

__all__ = [
    "PartitionMode",
    "ShardingDecision",
    "CombinerSpec",
    "analyze_partitioning",
    "make_shard_plan",
    "combine_partials",
    "stable_hash",
    "canonical_row_key",
    "partitioned_tuples",
]


# -- deterministic hashing and ordering --------------------------------------


def stable_hash(value: Any) -> int:
    """A process- and run-independent hash for partition keys.

    ``hash()`` is randomized per process for strings, which would make
    shard assignment (and therefore any float-sum evaluation order)
    differ between runs.  CRC32 over a typed byte encoding is stable,
    and numerically equal ints/floats (``2`` vs ``2.0``) agree.
    """
    if isinstance(value, bool):
        data = b"b1" if value else b"b0"
    elif isinstance(value, float) and value.is_integer():
        data = b"i%d" % int(value)
    elif isinstance(value, int):
        data = b"i%d" % value
    elif isinstance(value, float):
        data = b"f" + repr(value).encode()
    elif isinstance(value, str):
        data = b"s" + value.encode("utf-8", "surrogatepass")
    elif value is None:
        data = b"n"
    else:
        data = b"o" + repr(value).encode()
    return zlib.crc32(data)


# -- partition decision -------------------------------------------------------


class PartitionMode(Enum):
    PARTITIONED = "partitioned"
    PARTIAL = "partial"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class ShardingDecision:
    """How one plan executes across shards.

    ``stream_keys`` maps each windowed stream name to the index of its
    partition-key column in the raw stream schema (``None`` values mean
    round-robin partitioning, used by ``PARTIAL`` mode).
    ``partitionable_operators`` / ``merge_operators`` mark the plan's
    operators for the scheduler: partitionable ones replicate per shard,
    merge-requiring ones run once on the coordinator.
    """

    mode: PartitionMode
    key_column: str | None = None
    stream_keys: dict[str, int | None] = field(default_factory=dict)
    reason: str = ""
    partitionable_operators: tuple[str, ...] = ()
    merge_operators: tuple[str, ...] = ()


def _equi_pairs(predicates: Sequence[Expr]) -> list[tuple[str, str, str, str]]:
    pairs = []
    for expr in predicates:
        if (
            isinstance(expr, BinOp)
            and expr.op == "="
            and isinstance(expr.left, Col)
            and isinstance(expr.right, Col)
            and expr.left.table
            and expr.right.table
            and expr.left.table != expr.right.table
        ):
            pairs.append(
                (expr.left.table, expr.left.name, expr.right.table, expr.right.name)
            )
    return pairs


def _equivalence_classes(
    predicates: Sequence[Expr],
) -> dict[tuple[str, str], set[tuple[str, str]]]:
    """Union-find over (alias, column) pairs linked by equi-joins."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x: tuple[str, str]) -> tuple[str, str]:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: tuple[str, str], b: tuple[str, str]) -> None:
        parent[find(a)] = find(b)

    for alias_a, col_a, alias_b, col_b in _equi_pairs(predicates):
        union((alias_a, col_a), (alias_b, col_b))

    classes: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for member in parent:
        classes.setdefault(find(member), set()).add(member)
    return {m: cls for cls in classes.values() for m in cls}


def _operator_names(plan: ContinuousPlan) -> list[str]:
    names = [f"scan[{w.reader_key}]" for w in plan.windows]
    names += [f"static[{s.alias}]" for s in plan.statics]
    names += [f"join[{i}]" for i in range(len(plan.join_predicates))]
    names += [f"filter[{i}]" for i in range(len(plan.filters))]
    names.append("aggregate" if plan.aggregate is not None else "project")
    return names


def analyze_partitioning(plan: ContinuousPlan, engine) -> ShardingDecision:
    """Classify ``plan`` as PARTITIONED, PARTIAL or SINGLETON.

    ``engine`` is anything exposing ``stream(name)`` (a
    :class:`~repro.exastream.engine.StreamEngine`); only the raw stream
    schemas are consulted.
    """
    operators = _operator_names(plan)
    if plan.aggregate is None:
        return ShardingDecision(
            mode=PartitionMode.SINGLETON,
            reason="projection row order must be preserved",
        )

    window_aliases = {w.alias for w in plan.windows}
    raw_columns: dict[str, set[str]] = {}
    for ref in plan.windows:
        raw_columns[ref.alias] = set(
            engine.stream(ref.stream).stream.schema.column_names
        )

    classes = _equivalence_classes(plan.join_predicates)

    def co_partition_key(candidate: tuple[str, str]) -> dict[str, int] | None:
        """Per-stream key indexes when every window reaches ``candidate``."""
        cls = classes.get(candidate, {candidate})
        per_alias: dict[str, str] = {}
        for alias, column in cls:
            if alias in window_aliases and column in raw_columns[alias]:
                per_alias.setdefault(alias, column)
        if set(per_alias) != window_aliases:
            return None
        stream_keys: dict[str, int] = {}
        for ref in plan.windows:
            schema = engine.stream(ref.stream).stream.schema
            index = schema.index_of(per_alias[ref.alias])
            if stream_keys.setdefault(ref.stream, index) != index:
                return None  # one stream, two conflicting key columns
        return stream_keys

    for expr in plan.aggregate.group_by:
        if not (isinstance(expr, Col) and expr.table):
            continue
        keys = co_partition_key((expr.table, expr.name))
        if keys is not None:
            return ShardingDecision(
                mode=PartitionMode.PARTITIONED,
                key_column=expr.name,
                stream_keys=dict(keys),
                reason=f"groups are shard-local under key {expr.table}.{expr.name}",
                partitionable_operators=tuple(operators),
                merge_operators=("merge[concat]",),
            )

    combinable = all(
        c.function.upper() in _COMBINABLE for c in plan.aggregate.calls
    )
    if combinable:
        if len(plan.windows) == 1:
            # one stream: rows are independent, round-robin is safe
            return ShardingDecision(
                mode=PartitionMode.PARTIAL,
                key_column=None,
                stream_keys={plan.windows[0].stream: None},
                reason="combinable aggregates; shards emit partials",
                partitionable_operators=tuple(operators),
                merge_operators=("merge[combine]",),
            )
        # Several windowed streams: round-robin would split matching
        # join pairs across shards and silently drop them.  Partials
        # are still correct when every stream co-partitions on one
        # join-equivalence class; otherwise fall back to one shard.
        # (Candidate order is sorted: the chosen key must not depend on
        # set iteration order, or layouts would differ between runs.)
        for members in sorted({tuple(sorted(v)) for v in classes.values()}):
            sample = members[0]
            keys = co_partition_key(sample)
            if keys is not None:
                return ShardingDecision(
                    mode=PartitionMode.PARTIAL,
                    key_column=sample[1],
                    stream_keys=dict(keys),
                    reason=(
                        "combinable aggregates; streams co-partition on "
                        f"join key {sample[0]}.{sample[1]}"
                    ),
                    partitionable_operators=tuple(operators),
                    merge_operators=("merge[combine]",),
                )
        return ShardingDecision(
            mode=PartitionMode.SINGLETON,
            reason="multi-stream join without a co-partitioned join key",
        )
    return ShardingDecision(
        mode=PartitionMode.SINGLETON,
        reason="non-combinable aggregates without a co-partitioned group key",
    )


# -- partial-aggregate rewriting ---------------------------------------------
#
# The decomposition itself (AVG -> SUM + COUNT, final-call mapping) and the
# recombiner are shared with pane-incremental execution; see
# :mod:`repro.exastream.partial_agg`.


def make_shard_plan(
    plan: ContinuousPlan, decision: ShardingDecision
) -> tuple[ContinuousPlan, CombinerSpec | None]:
    """The per-shard plan plus (for PARTIAL mode) its combiner.

    PARTITIONED and SINGLETON plans execute verbatim on each shard; a
    PARTIAL plan drops HAVING/DISTINCT (applied post-combine) and
    decomposes AVG into SUM + COUNT partials via the shared
    partial-aggregation module.
    """
    if decision.mode is not PartitionMode.PARTIAL:
        return plan, None
    partial_calls, combiner = plan_combiner(plan)
    shard_aggregate = AggregateSpec(
        group_by=plan.aggregate.group_by,
        group_names=plan.aggregate.group_names,
        calls=tuple(partial_calls),
        having=(),
    )
    shard_plan = replace(plan, aggregate=shard_aggregate, distinct=False)
    return shard_plan, combiner


# -- input partitioning -------------------------------------------------------


def partitioned_tuples(
    data: Sequence[tuple],
    shard: int,
    num_shards: int,
    key_index: int | None,
    final_ts: float | None,
) -> Callable[[], Iterator]:
    """A replayable factory for one shard's slice of a materialised stream.

    Tuples route by ``stable_hash`` of the key column (or round-robin
    when ``key_index`` is ``None``); a trailing :class:`Heartbeat` at the
    stream's final timestamp keeps every shard's window grid aligned
    with the full stream's, even when this shard's slice ends early.
    """

    def factory() -> Iterator:
        if key_index is None:
            for i in range(shard, len(data), num_shards):
                yield data[i]
        else:
            for item in data:
                if stable_hash(item[key_index]) % num_shards == shard:
                    yield item
        if final_ts is not None:
            yield Heartbeat(final_ts)

    return factory
