"""The Scheduler: operator placement and shard assignment on worker nodes.

"The Scheduler places stream and relational operators on worker nodes
based on the node's load.  These operators are executed by a Stream
Engine instance running on each node."

Two layers share one load account:

* **operator placement** — online least-loaded assignment of a plan's
  operators, keeping stream scans of the same window grid co-located
  (so the wCache stays node-local);
* **shard assignment** — a multi-node binding registers each of its
  shards here, reports *observed* per-shard execution cost back after
  every batch, and :meth:`Scheduler.rebalance` migrates shard
  assignments off overloaded workers when the balance ratio degrades
  (skewed partitions put real, measured weight on their workers).

Every placement is released when its query deregisters — including the
shared-pipeline references :meth:`Scheduler.place_query` took for it and
the scan-affinity entries, which are reference-counted so a departed
query cannot leave behind phantom cache discounts (the load-drift bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import ContinuousPlan, expr_aliases

__all__ = [
    "OperatorPlacement",
    "WorkerNode",
    "WorkerLoad",
    "SchedulerReport",
    "Scheduler",
    "plan_operators",
    "plan_prefix_operators",
    "plan_side_prefix_operators",
    "plan_join_stage_operators",
    "plan_residual_operators",
]


@dataclass
class OperatorPlacement:
    """One operator (or one shard) pinned to a worker."""

    query: str
    operator: str
    cost: float
    worker: int


@dataclass(frozen=True)
class WorkerLoad:
    """One worker's row in a :class:`SchedulerReport`."""

    node_id: int
    load: float
    #: (query, operator, cost) triples currently placed on this worker
    placements: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class SchedulerReport:
    """Read-only snapshot of scheduler state (``Scheduler.load_report``)."""

    workers: list[WorkerLoad]
    #: query name -> summed cost of its current placements (EMA-updated
    #: by ``observe``/``observe_shard``)
    query_costs: dict[str, float]
    #: shared-pipeline key -> subscriber refcount
    pipeline_refs: dict[str, int]
    #: query name -> the shared-pipeline keys it holds a reference on
    query_pipelines: dict[str, tuple[str, ...]]
    #: max/mean worker load ratio — 1.0 is perfectly balanced
    balance: float

    @property
    def loads(self) -> list[float]:
        return [w.load for w in self.workers]

    def placements_of(self, query: str) -> list[tuple[str, str, float]]:
        return [
            placement
            for worker in self.workers
            for placement in worker.placements
            if placement[0] == query
        ]


@dataclass
class WorkerNode:
    """Bookkeeping for one worker: Figure 2's per-node engine instance."""

    node_id: int
    processors: int = 2
    memory_gb: float = 4.0
    load: float = 0.0
    placements: list[OperatorPlacement] = field(default_factory=list)

    def assign(self, placement: OperatorPlacement) -> None:
        placement.worker = self.node_id
        self.placements.append(placement)
        self.load += placement.cost

    def release(self, placement: OperatorPlacement) -> None:
        """Remove one placement by identity and return its cost."""
        for index, existing in enumerate(self.placements):
            if existing is placement:
                del self.placements[index]
                break
        self.load -= placement.cost
        if not self.placements:
            self.load = 0.0  # don't let float residue accumulate


def plan_prefix_operators(plan: ContinuousPlan) -> list[tuple[str, float]]:
    """The plan's shareable pipeline-prefix operators (scan … filter).

    These are the operators the MQO subsystem executes once per shared
    pipeline, however many queries subscribe to it.
    """
    operators: list[tuple[str, float]] = []
    for window in plan.windows:
        volume = window.spec.range_seconds / window.spec.slide_seconds
        operators.append((f"scan[{window.reader_key}]", 1.0 + 0.1 * volume))
    for static in plan.statics:
        operators.append((f"static[{static.alias}]", 0.5))
    for index, _ in enumerate(plan.join_predicates):
        operators.append((f"join[{index}]", 1.0))
    for index, _ in enumerate(plan.filters):
        operators.append((f"filter[{index}]", 0.2))
    return operators


def plan_side_prefix_operators(
    plan: ContinuousPlan, side: int
) -> list[tuple[str, float]]:
    """One stream side's prefix operators of a two-stream join plan.

    The scan and the side's pushed single-alias filters — the work the
    symmetric-hash pane join shares per (side signature, pane), so the
    scheduler accounts it once per side pipeline, however many queries
    join that stream.
    """
    window = plan.windows[side]
    volume = window.spec.range_seconds / window.spec.slide_seconds
    operators: list[tuple[str, float]] = [
        (f"scan[{window.reader_key}]", 1.0 + 0.1 * volume)
    ]
    for index, predicate in enumerate(plan.filters):
        if expr_aliases(predicate) == {window.alias}:
            operators.append((f"filter[{window.alias}:{index}]", 0.2))
    return operators


def plan_join_stage_operators(plan: ContinuousPlan) -> list[tuple[str, float]]:
    """The post-prefix shared join stage of a two-stream join plan:
    stream-stream + static joins and the residual (multi-alias) filters."""
    operators: list[tuple[str, float]] = []
    for static in plan.statics:
        operators.append((f"static[{static.alias}]", 0.5))
    for index, _ in enumerate(plan.join_predicates):
        operators.append((f"join[{index}]", 1.0))
    side_aliases = [{w.alias} for w in plan.windows]
    for index, predicate in enumerate(plan.filters):
        if expr_aliases(predicate) not in side_aliases:
            operators.append((f"filter[{index}]", 0.2))
    return operators


def plan_residual_operators(plan: ContinuousPlan) -> list[tuple[str, float]]:
    """The per-query residual operators (final aggregation / projection)."""
    if plan.aggregate is not None:
        return [("aggregate", 1.0 + 0.5 * len(plan.aggregate.calls))]
    return [("project", 0.2)]


def plan_operators(plan: ContinuousPlan) -> list[tuple[str, float]]:
    """Decompose a plan into (operator name, cost estimate) pairs.

    Costs follow a simple volume model: stream scans dominate, joins cost
    proportionally to their inputs, filters and projections are cheap.
    """
    return plan_prefix_operators(plan) + plan_residual_operators(plan)


class Scheduler:
    """Least-loaded operator and shard placement across a worker pool."""

    def __init__(self, num_workers: int, processors_per_node: int = 2) -> None:
        if num_workers <= 0:
            raise ValueError("need at least one worker")
        self.workers = [
            WorkerNode(i, processors=processors_per_node)
            for i in range(num_workers)
        ]
        self._scan_affinity: dict[str, int] = {}
        self._scan_refs: dict[str, int] = {}
        self._by_query: dict[str, list[OperatorPlacement]] = {}
        #: shared-pipeline key -> subscriber refcount (MQO accounting:
        #: the prefix operators weigh on the cluster once per pipeline)
        self._pipeline_refs: dict[str, int] = {}
        #: query name -> the pipeline keys :meth:`place_query` referenced
        #: for it (one for a single-stream prefix; per-side prefixes plus
        #: the join stage for a two-stream join plan)
        self._query_pipelines: dict[str, list[str]] = {}

    # -- placement --------------------------------------------------------

    def place_query(self, plan: ContinuousPlan, signature, scope) -> None:
        """Place one registered query.  ``signature`` is the plan's MQO
        signature when its prefix executes shared (``None``: every
        operator is the query's own), ``scope`` the ``(layout, key
        column, shard)`` of its first leaf runtime.

        Shared-subplan load accounting: the pipeline prefix is placed
        (and costed) once per *pipeline*, refcounted across its
        subscriber queries; only the per-query residual operators are
        placed per query.  The key is scoped by (shard count, partition
        key column), mirroring the MQO registry's per-layout scoping: a
        shards=1 and a shards=2 registration of the same task — or two
        layouts partitioned on different key columns — share no
        execution, so they must not share a placement either.
        :meth:`remove` releases what this took.
        """
        if signature is None:
            self.place(plan)
            return
        layout, key_column, _shard = scope
        tag = f"shards={layout}:{key_column}"
        relation_key = f"{tag}|{signature.relation_key}"
        # Two-stream join: each side's scan+filter prefix weighs on the
        # cluster once per (scope, side signature) — queries joining the
        # same stream share that side's load even when their partner
        # streams differ — plus one shared join stage per full relation
        # prefix.  Otherwise the whole prefix is one pipeline.
        pipelines = [
            (f"{tag}|side|{side.key}", plan_side_prefix_operators(plan, index))
            for index, side in enumerate(signature.sides)
        ] + [(
            relation_key,
            plan_join_stage_operators(plan) if signature.sides else None,
        )]
        for key, operators in pipelines:
            self.place_pipeline(key, plan, operators=operators)
            self._query_pipelines.setdefault(plan.name, []).append(key)
        self.place_residual(plan)

    #: marginal cost of re-reading a window scan already materialised on
    #: a node (the wCache effect: later queries hit the shared cache)
    CACHED_SCAN_FACTOR = 0.1

    def place(
        self,
        plan: ContinuousPlan,
        operators: list[tuple[str, float]] | None = None,
        query: str | None = None,
    ) -> list[OperatorPlacement]:
        """Place ``operators`` (default: all of ``plan``'s) for a query."""
        if operators is None:
            operators = plan_operators(plan)
        name = query if query is not None else plan.name
        placements: list[OperatorPlacement] = []
        for operator, cost in operators:
            if operator.startswith("scan[") and operator in self._scan_affinity:
                cost *= self.CACHED_SCAN_FACTOR
            placement = OperatorPlacement(name, operator, cost, worker=-1)
            worker = self._choose_worker(operator)
            worker.assign(placement)
            if operator.startswith("scan["):
                self._scan_affinity[operator] = worker.node_id
                self._scan_refs[operator] = self._scan_refs.get(operator, 0) + 1
            placements.append(placement)
        self._by_query.setdefault(name, []).extend(placements)
        return placements

    def place_residual(self, plan: ContinuousPlan) -> list[OperatorPlacement]:
        """Place only the per-query residual operators of ``plan``.

        Used with :meth:`place_pipeline` by :meth:`place_query`: the
        shareable prefix weighs on the cluster once per pipeline, each
        subscriber query adds only its residual aggregation/projection.
        """
        return self.place(plan, operators=plan_residual_operators(plan))

    def place_pipeline(
        self,
        key: str,
        plan: ContinuousPlan,
        operators: list[tuple[str, float]] | None = None,
    ) -> list[OperatorPlacement]:
        """Account one shared pipeline's prefix operators (refcounted).

        The first subscriber places the prefix (``operators`` defaults
        to the plan's full pipeline prefix; :meth:`place_query` passes
        per-side prefixes and the join stage separately for two-stream
        join plans) under the synthetic query id ``mqo::<key>``; later
        subscribers only bump the refcount.  Returns the pipeline's live
        placements.
        """
        refs = self._pipeline_refs.get(key, 0)
        pipeline_query = f"mqo::{key}"
        self._pipeline_refs[key] = refs + 1
        if refs == 0:
            return self.place(
                plan,
                operators=(
                    operators if operators is not None
                    else plan_prefix_operators(plan)
                ),
                query=pipeline_query,
            )
        return self.placements_for(pipeline_query)

    def release_pipeline(self, key: str) -> None:
        """Drop one subscriber of a shared pipeline; release it at zero."""
        refs = self._pipeline_refs.get(key, 0) - 1
        if refs > 0:
            self._pipeline_refs[key] = refs
            return
        self._pipeline_refs.pop(key, None)
        self.remove(f"mqo::{key}")

    def _choose_worker(self, operator: str) -> WorkerNode:
        # Shared stream scans stay where their window cache lives.
        if operator.startswith("scan[") and operator in self._scan_affinity:
            return self.workers[self._scan_affinity[operator]]
        return min(self.workers, key=lambda w: (w.load, w.node_id))

    def remove(self, query: str) -> None:
        """Release every placement of one deregistered query, and its
        references on shared pipelines.

        Scan-affinity entries are reference-counted: once the last query
        scanning a window grid leaves, the affinity (and its cached-scan
        discount) is dropped, so load accounting cannot drift across
        register/deregister cycles.
        """
        for key in self._query_pipelines.pop(query, ()):
            self.release_pipeline(key)
        for placement in self._by_query.pop(query, []):
            self.workers[placement.worker].release(placement)
            operator = placement.operator
            if operator.startswith("scan["):
                remaining = self._scan_refs.get(operator, 0) - 1
                if remaining > 0:
                    self._scan_refs[operator] = remaining
                else:
                    self._scan_refs.pop(operator, None)
                    self._scan_affinity.pop(operator, None)

    # -- shard assignment -------------------------------------------------

    def assign_shards(
        self, query: str, num_shards: int, cost_per_shard: float = 1.0
    ) -> list[int]:
        """Assign ``num_shards`` shards of ``query`` to workers.

        Each shard becomes a live placement (operator ``shard[i]``) on
        the currently lightest worker; the returned list maps shard
        index to worker id.  Observed costs reported via
        :meth:`observe_shard` replace the initial estimate.
        """
        assigned: list[int] = []
        for shard in range(num_shards):
            placement = OperatorPlacement(
                query, f"shard[{shard}]", cost_per_shard, worker=-1
            )
            worker = min(self.workers, key=lambda w: (w.load, w.node_id))
            worker.assign(placement)
            self._by_query.setdefault(query, []).append(placement)
            assigned.append(worker.node_id)
        return assigned

    def observe_shard(
        self, query: str, shard: int, seconds: float = 0.0, tuples: int = 0
    ) -> None:
        """Fold a real measurement into one shard's tracked load.

        The shard's cost becomes an exponential moving average of the
        observed execution cost (seconds, scaled so one second of shard
        wall time weighs like one unit-cost operator, plus a small
        per-tuple term), replacing the static estimate — this is what
        makes skew visible to :meth:`rebalance`.
        """
        operator = f"shard[{shard}]"
        observed = seconds * 1000.0 + tuples * 1e-4
        for placement in self._by_query.get(query, ()):
            if placement.operator == operator:
                updated = 0.5 * placement.cost + 0.5 * observed
                worker = self.workers[placement.worker]
                worker.load += updated - placement.cost
                placement.cost = updated
                return

    def observe(
        self, query: str, seconds: float = 0.0, tuples: int = 0
    ) -> None:
        """Fold one observed pulse (window execution) into a query's load.

        The executors report each window's wall cost here (the pulse
        accounting behind :meth:`rebalance`): the observation is scaled
        like :meth:`observe_shard` and distributed over the query's live
        operator placements proportionally to their current cost
        estimates, each becoming an exponential moving average.  Worker
        loads track the placement costs, so releasing the query later
        still drains every worker back to zero.  Unknown queries (or
        MQO-subscriber queries whose prefix is placed under a shared
        pipeline id) fold into whatever placements the query does own;
        a query with none is a no-op.
        """
        placements = [
            p for p in self._by_query.get(query, ())
            if not p.operator.startswith("shard[")
        ]
        if not placements:
            return
        observed = seconds * 1000.0 + tuples * 1e-4
        total = sum(p.cost for p in placements)
        for placement in placements:
            share = (
                placement.cost / total if total > 0
                else 1.0 / len(placements)
            )
            updated = 0.5 * placement.cost + 0.5 * observed * share
            worker = self.workers[placement.worker]
            worker.load += updated - placement.cost
            placement.cost = updated

    def shard_assignments(self, query: str) -> dict[int, int]:
        """shard index -> worker id for one query's live shards."""
        out: dict[int, int] = {}
        for placement in self._by_query.get(query, ()):
            if placement.operator.startswith("shard["):
                shard = int(placement.operator[6:-1])
                out[shard] = placement.worker
        return out

    def rebalance(
        self,
        threshold: float = 1.25,
        on_move=None,
    ) -> list[tuple[str, str, int, int]]:
        """Migrate shard placements off overloaded workers.

        Repeatedly moves the heaviest movable shard from the most loaded
        worker to the least loaded one while the balance ratio exceeds
        ``threshold`` and each move strictly lowers the maximum load.
        Scan placements never move (their window cache is node-local).
        Returns ``(query, operator, from_worker, to_worker)`` moves.

        ``on_move(query, operator, from_worker, to_worker)`` is invoked
        after each accounting move so the caller can perform the actual
        state handoff — e.g.
        :func:`repro.exastream.durability.migrate_query`, which moves
        the query's live runtime rings, reader positions and cache
        slices to the destination instead of recomputing from the
        stream head.  A callback exception aborts the rebalance after
        reverting the failed move, so accounting never claims a
        migration that did not happen.
        """
        moves: list[tuple[str, str, int, int]] = []
        while self.balance() > threshold:
            source = max(self.workers, key=lambda w: w.load)
            target = min(self.workers, key=lambda w: (w.load, w.node_id))
            movable = [
                p for p in source.placements if p.operator.startswith("shard[")
            ]
            if not movable:
                break
            best = None
            for placement in movable:
                new_max = max(
                    source.load - placement.cost, target.load + placement.cost
                )
                if new_max < source.load and (best is None or new_max < best[0]):
                    best = (new_max, placement)
            if best is None:
                break
            placement = best[1]
            source.release(placement)
            target.assign(placement)
            if on_move is not None:
                try:
                    on_move(
                        placement.query, placement.operator,
                        source.node_id, target.node_id,
                    )
                except BaseException:
                    target.release(placement)
                    source.assign(placement)
                    raise
            moves.append(
                (placement.query, placement.operator,
                 source.node_id, target.node_id)
            )
        return moves

    # -- metrics ---------------------------------------------------------------

    @property
    def loads(self) -> list[float]:
        return [w.load for w in self.workers]

    def balance(self) -> float:
        """max/mean load ratio — 1.0 is perfectly balanced."""
        loads = self.loads
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def total_load(self) -> float:
        return sum(self.loads)

    def placements_for(self, query: str) -> list[OperatorPlacement]:
        return list(self._by_query.get(query, []))

    def query_cost(self, query: str) -> float | None:
        """One query's total tracked cost (EMA-folded observed pulses).

        ``None`` when the query owns no placements yet.  The cost
        estimator blends this into its recompute baseline so repeated
        registrations of a running workload plan against observed load,
        not just priors.
        """
        placements = self._by_query.get(query)
        if not placements:
            return None
        return sum(p.cost for p in placements)

    def load_report(self) -> SchedulerReport:
        """The read API over placement/EMA state.

        Everything the verifier, benches and the monitoring surface used
        to reach into ``_by_query``/``_pipeline_refs`` privates for, as
        one coherent read-only snapshot: per-worker loads with their
        placements, per-query observed (EMA) costs, shared-pipeline
        refcounts, and the balance ratio.
        """
        workers = [
            WorkerLoad(
                node_id=node.node_id,
                load=node.load,
                placements=tuple(
                    (p.query, p.operator, p.cost) for p in node.placements
                ),
            )
            for node in self.workers
        ]
        query_costs = {
            query: sum(p.cost for p in placements)
            for query, placements in self._by_query.items()
        }
        return SchedulerReport(
            workers=workers,
            query_costs=query_costs,
            pipeline_refs=dict(self._pipeline_refs),
            query_pipelines={
                query: tuple(keys)
                for query, keys in self._query_pipelines.items()
            },
            balance=self.balance(),
        )
