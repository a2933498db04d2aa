"""Per-stream statistics: the cardinality estimator's input layer.

Priors come from two places the engine already owns:

* **sampled stats** — every registered :class:`StreamSource` is
  replayable, so the catalog reads the first ``sample_limit`` tuples
  (one bounded pass, no side effects on execution) for tuple rate,
  per-column distinct counts and numeric ranges; predicate selectivity
  is estimated by *evaluating* the predicate over the sample through
  the same ``compile_expr`` machinery execution uses.
* **DDL-derived bounds** — a join-key column that also appears in an
  attached static table can never exceed that table's row count (the
  mapping layer joins streams to static keys), so key-cardinality
  estimates are clamped by the smallest matching static table.

Observed stats refine the priors: :meth:`StatisticsCatalog.refresh`
folds a registry snapshot's ``operator_rows_in_total`` /
``operator_rows_out_total`` counters (the ``ANA040`` feed from PR 9)
into per-(query, operator) selectivity records, and
:meth:`effective_selectivity` switches from prior to observed once a
query has processed ``converge_windows`` windows — observed truth
overrides estimation, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..operators import Relation, compile_expr

__all__ = [
    "SAMPLE_LIMIT",
    "DEFAULT_SELECTIVITY",
    "CONVERGE_WINDOWS",
    "ColumnStats",
    "StreamStatistics",
    "ObservedOperator",
    "StatisticsCatalog",
]

#: bounded sample size per stream (one replayable pass, read lazily)
SAMPLE_LIMIT = 256
#: prior for predicates the sample cannot evaluate (unknown columns,
#: UDFs over unsampled state) — the classic magic third
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: observed windows after which live stats override the sampled priors
CONVERGE_WINDOWS = 3


@dataclass(frozen=True)
class ColumnStats:
    """Sampled statistics of one stream column."""

    name: str
    #: distinct values in the sample (a lower bound on the true count)
    distinct: int
    #: numeric range over the sample; ``None`` for non-numeric columns
    minimum: float | None = None
    maximum: float | None = None


@dataclass(frozen=True)
class StreamStatistics:
    """Sampled statistics of one registered stream."""

    stream: str
    #: tuples read by the sampling pass
    sampled: int
    #: event-time span covered by the sample (seconds)
    span_seconds: float
    #: estimated tuple rate (tuples per event-time second)
    rate: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


@dataclass
class ObservedOperator:
    """Cumulative observed cardinality of one (query, operator)."""

    rows_in: float = 0.0
    rows_out: float = 0.0

    @property
    def selectivity(self) -> float | None:
        if not self.rows_in:
            return None
        return self.rows_out / self.rows_in


class StatisticsCatalog:
    """Lazily sampled, observation-refined statistics over one engine.

    The catalog holds no execution state: sampling replays a bounded
    prefix of each source, and everything observed arrives through
    registry snapshots — the estimator can be dropped or rebuilt at any
    time without touching a running query.
    """

    def __init__(
        self,
        engine,
        sample_limit: int = SAMPLE_LIMIT,
        converge_windows: int = CONVERGE_WINDOWS,
    ) -> None:
        self.engine = engine
        self.sample_limit = sample_limit
        self.converge_windows = converge_windows
        self._streams: dict[str, StreamStatistics] = {}
        #: (query name, operator) -> cumulative observed cardinalities
        self._observed: dict[tuple[str, str], ObservedOperator] = {}
        #: query name -> windows processed at the last refresh
        self._observed_windows: dict[str, int] = {}

    # -- sampled priors ------------------------------------------------------

    def invalidate(self, stream: str | None = None) -> None:
        """Drop cached samples (after re-registering a source)."""
        if stream is None:
            self._streams.clear()
        else:
            self._streams.pop(stream, None)

    def stream_stats(self, stream: str) -> StreamStatistics:
        stats = self._streams.get(stream)
        if stats is None:
            stats = self._sample(stream)
            self._streams[stream] = stats
        return stats

    def _sample(self, stream: str) -> StreamStatistics:
        source = self.engine.stream(stream)
        schema = source.stream.schema
        names = list(schema.column_names)
        time_index = schema.time_index
        tuples: list[tuple] = []
        for row in source:
            tuples.append(row)
            if len(tuples) >= self.sample_limit:
                break
        columns: dict[str, ColumnStats] = {}
        for index, name in enumerate(names):
            values = [row[index] for row in tuples if row[index] is not None]
            numeric = [v for v in values if isinstance(v, (int, float))]
            columns[name] = ColumnStats(
                name=name,
                distinct=len(set(values)),
                minimum=min(numeric) if numeric else None,
                maximum=max(numeric) if numeric else None,
            )
        span = 0.0
        if len(tuples) >= 2:
            span = float(
                tuples[-1][time_index] - tuples[0][time_index]
            )
        rate = len(tuples) / span if span > 0 else float(len(tuples))
        return StreamStatistics(
            stream=stream,
            sampled=len(tuples),
            span_seconds=span,
            rate=rate,
            columns=columns,
        )

    def key_bound(self, column: str) -> int | None:
        """DDL-derived cardinality ceiling for a (join-key) column name.

        A stream column that also names a column of an attached static
        table is mapping-joined against that table's key domain, so its
        cardinality never exceeds the table's row count.  The smallest
        matching table wins (the tightest bound).
        """
        bound: int | None = None
        for database in self.engine.databases:
            for table in database.schema:
                if column not in table.column_names():
                    continue
                try:
                    count = database.row_count(table.name)
                except Exception:
                    continue
                if bound is None or count < bound:
                    bound = count
        return bound

    def key_cardinality(self, stream: str, column: str) -> float:
        """Estimated distinct count of one stream column, bound-clamped.

        Never exceeds the DDL/mapping-derived bound (the estimator's
        bounds invariant, property-tested): the sample's distinct count
        is a lower bound on the truth, the static key domain an upper
        bound, and the estimate is clamped into ``[1, bound]``.
        """
        stats = self.stream_stats(stream)
        column_stats = stats.column(column)
        estimate = float(column_stats.distinct) if column_stats else 1.0
        bound = self.key_bound(column)
        if bound is not None:
            estimate = min(estimate, float(bound))
        return max(estimate, 1.0)

    def selectivity(self, stream: str, alias: str, predicates) -> float:
        """Combined selectivity of single-alias predicates over a stream.

        Estimated by evaluating each predicate over the sampled prefix
        through the identical compiled-expression machinery the
        executor uses, so the prior is monotone by construction: a
        strictly more selective predicate matches a subset of the
        sample.  Predicates the sample cannot evaluate (computed
        columns, failing UDFs) contribute :data:`DEFAULT_SELECTIVITY`.
        """
        predicates = list(predicates)
        if not predicates:
            return 1.0
        source = self.engine.stream(stream)
        names = [f"{alias}.{c}" for c in source.stream.schema.column_names]
        sample: list[tuple] = []
        for row in source:
            sample.append(row)
            if len(sample) >= self.sample_limit:
                break
        relation = Relation(names, sample)
        result = 1.0
        for predicate in predicates:
            if not sample:
                result *= DEFAULT_SELECTIVITY
                continue
            try:
                fn = compile_expr(predicate, relation, self.engine.udfs)
                matched = sum(1 for row in sample if fn(row))
            except Exception:
                result *= DEFAULT_SELECTIVITY
                continue
            result *= matched / len(sample)
        return max(min(result, 1.0), 0.0)

    # -- observed refinement -------------------------------------------------

    def refresh(self, snapshot) -> None:
        """Fold a registry snapshot's observed cardinalities in.

        Reads the ``operator_rows_in_total``/``operator_rows_out_total``
        series (recorded by every recompute-path window; fork-worker
        shards ship theirs back over the ``("metrics",)`` delta pipe
        before they reach a snapshot) plus ``query_windows_total`` as
        the per-query convergence clock.  Counters are cumulative, so
        the fold is idempotent — refreshing twice with the same
        snapshot changes nothing.
        """
        if snapshot is None:
            return
        for (series, labels) in snapshot.series:
            if series == "query_windows_total":
                label_map = dict(labels)
                query = label_map.get("query")
                if query:
                    windows = snapshot.value(series, **label_map)
                    current = self._observed_windows.get(query, 0)
                    self._observed_windows[query] = max(
                        current, int(windows or 0)
                    )
                continue
            if series != "operator_rows_in_total":
                continue
            label_map = dict(labels)
            query = label_map.get("query")
            operator = label_map.get("operator")
            if not query or not operator:
                continue
            rows_in = snapshot.value(series, **label_map) or 0.0
            rows_out = (
                snapshot.value(
                    "operator_rows_out_total", **label_map
                ) or 0.0
            )
            record = self._observed.setdefault(
                (query, operator), ObservedOperator()
            )
            record.rows_in = max(record.rows_in, float(rows_in))
            record.rows_out = max(record.rows_out, float(rows_out))

    def observed_windows(self, query: str) -> int:
        return self._observed_windows.get(query, 0)

    def observed_selectivity(
        self, query: str, operator: str
    ) -> float | None:
        record = self._observed.get((query, operator))
        return record.selectivity if record is not None else None

    def effective_selectivity(
        self, query: str | None, operator: str, prior: float
    ) -> float:
        """Observed selectivity once converged, the prior before that.

        "Converged" means the query has processed at least
        ``converge_windows`` windows *and* the operator has recorded
        rows — after that, live truth overrides the sampled estimate.
        """
        if query is None:
            return prior
        if self.observed_windows(query) < self.converge_windows:
            return prior
        observed = self.observed_selectivity(query, operator)
        return observed if observed is not None else prior
