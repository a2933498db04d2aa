"""Plan-invariant verifier: debug/audit assertions over live engine state.

The static analyzer reasons about queries *before* they run; this module
checks that the running engine honours the invariants the analyzer (and
the rest of the system) relies on:

* **reader balance** — every ``(scope, key)`` of the engine's reader
  catalog carries exactly the references the live leaf runtimes record,
  every pane/batch demand a runtime declared on a shared window reader
  is matched by the reader's refcount, and all of it returns to zero
  when the last query deregisters;
* **pane-ring bounds** — the per-runtime pane rings (aggregation panes,
  join side prefixes, pane-pair partials) never hold more state than one
  window span, i.e. eviction keeps up with the window grid;
* **static-relation balance** — every entry of the engine's static
  catalog carries exactly the references the live runtimes hold on it,
  and the catalog is empty when the last query deregisters;
* **signature agreement** — the planner's sharing eligibility
  (``plan.signature``) and the MQO runtime's actual subscriptions never
  disagree.

Readers, static relations and the scheduler belong to the engine, which
several gateways may share (a recovered gateway beside a live one), so
those balances are taken over every gateway on the engine.

All checks are read-only.  ``verify_gateway`` raises
:class:`InvariantViolation` listing every violated invariant; the
gateway calls it automatically when the ``REPRO_AUDIT`` environment
variable is set (registration, deregistration, and whenever a ``step()``
makes no progress), and CI runs the full Siemens suite and the
randomized query corpus under it.
"""

from __future__ import annotations

from collections import Counter

from ..errors import ReproError
from ..streams.window import pane_plan

__all__ = ["InvariantViolation", "verify_runtime", "verify_gateway"]


class InvariantViolation(ReproError, AssertionError):
    """One or more engine invariants do not hold."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__(
            "engine invariant violation:\n  - " + "\n  - ".join(violations)
        )


def verify_runtime(runtime, name: str = "") -> list[str]:
    """Invariant violations of one bound runtime (empty list = healthy).

    Pane state, demand references and MQO bindings live in the leaf
    runtimes, so a sharded runtime is verified shard by shard.
    """
    violations: list[str] = []
    label = name or runtime.plan.name or "?"
    leaves = runtime.leaf_runtimes
    for leaf in leaves:
        where = label if len(leaves) == 1 else f"{label}[shard {leaf.scope[2]}]"
        _verify_leaf(leaf, where, violations)
    return violations


def _verify_leaf(leaf, label: str, violations: list[str]) -> None:
    # -- pane-ring bounds ---------------------------------------------------
    tier = leaf.tier
    if tier is not None:
        for what, keys, spec in tier.ring_bounds():
            panes = pane_plan(spec)
            _check_ring_bounds(
                violations, f"{label}: {what}", keys,
                panes.panes_per_window if panes is not None else None,
            )

    # -- demand sanity ------------------------------------------------------
    for reader in map(leaf.readers.get, leaf._batch_demanded):
        if reader.batch_demand <= 0:
            violations.append(
                f"{label}: holds a batch demand on {reader.stream_name!r} "
                f"whose refcount is {reader.batch_demand}"
            )
    for reader in map(leaf.readers.get, leaf._pane_demanded):
        if reader.pane_demand <= 0:
            violations.append(
                f"{label}: holds a pane demand on {reader.stream_name!r} "
                f"whose refcount is {reader.pane_demand}"
            )

    # -- demotion bookkeeping -----------------------------------------------
    # A demoted runtime must have retired its tier (rings and all) and
    # swapped its demand to batches — exactly the retirement contract.
    if leaf.demoted:
        if tier is not None:
            violations.append(
                f"{label}: demoted but still runs its {tier.path} tier"
            )
        if leaf._pane_demanded:
            violations.append(
                f"{label}: demoted but still holds pane demands"
            )
        if not leaf._batch_demanded:
            violations.append(
                f"{label}: demoted but holds no batch demand — the next "
                "window would have no input"
            )

    # -- signature eligibility agreement ------------------------------------
    if leaf.mqo is not None and leaf.plan.signature is None:
        violations.append(
            f"{label}: runtime carries an MQO binding but the plan's "
            "signature deems it ineligible"
        )


def _check_ring_bounds(
    violations: list[str], what: str, keys, panes_per_window: int | None
) -> None:
    keys = list(keys)
    if not keys:
        return
    if panes_per_window is None:
        violations.append(
            f"{what} holds {len(keys)} panes although the window grid is "
            "not pane-decomposable"
        )
        return
    if len(keys) > panes_per_window:
        violations.append(
            f"{what} holds {len(keys)} panes, over the window span of "
            f"{panes_per_window}"
        )
    spread = max(keys) - min(keys)
    if spread >= panes_per_window:
        violations.append(
            f"{what} spans pane ids {min(keys)}..{max(keys)} "
            f"({spread + 1} grid slots), wider than the window span of "
            f"{panes_per_window}: eviction fell behind"
        )


def verify_gateway(gateway) -> None:
    """Assert all cross-query invariants of a gateway; raise on failure."""
    violations: list[str] = []
    queries = gateway._queries

    runtimes = {
        name: registered.runtime for name, registered in queries.items()
    }
    for name, runtime in runtimes.items():
        violations.extend(verify_runtime(runtime, name))

    # Every query on the engine, whichever gateway registered it.
    engine = gateway.engine
    engine_queries = [
        registered
        for sharer in engine.gateways
        for registered in sharer.queries
    ]
    engine_names = {registered.name for registered in engine_queries}
    leaves = [
        leaf
        for registered in engine_queries
        for leaf in registered.runtime.leaf_runtimes
    ]

    # -- reader refcount balance --------------------------------------------
    # A catalog entry's refcount is the number of references the
    # registered queries' leaf runtimes record on it (one per windowed
    # input).
    held_readers = Counter(
        (leaf.scope, key) for leaf in leaves for key in leaf.reader_keys
    )
    reader_refs = engine.catalog.refs
    for scope, key in held_readers.keys() | reader_refs.keys():
        if held_readers[scope, key] != reader_refs.get((scope, key), 0):
            violations.append(
                f"reader {key!r} in scope {scope!r}: refcount is "
                f"{reader_refs.get((scope, key), 0)} but "
                f"{held_readers[scope, key]} runtime reference(s) are "
                "held on it"
            )

    # -- demand balance on shared readers -----------------------------------
    # Every referenced reader of the catalog (all scopes: the one-node
    # scope and every sharded layout slice) carries exactly the demand
    # references the leaf runtimes hold on it.  (An unreferenced reader
    # is one recovery seeded and no re-registration has adopted yet.)
    batch_counts: Counter[int] = Counter()
    pane_counts: Counter[int] = Counter()
    for leaf in leaves:
        readers = leaf.readers
        batch_counts.update(id(readers[k]) for k in leaf._batch_demanded)
        pane_counts.update(id(readers[k]) for k in leaf._pane_demanded)
    for scope, readers in engine.catalog.items():
        for key, reader in readers.items():
            if (scope, key) not in reader_refs:
                continue
            for kind, actual, expected in (
                ("batch", reader.batch_demand, batch_counts[id(reader)]),
                ("pane", reader.pane_demand, pane_counts[id(reader)]),
            ):
                if actual != expected:
                    violations.append(
                        f"reader {key!r} in scope {scope!r}: {kind} demand "
                        f"is {actual} but {expected} runtime(s) hold "
                        f"{kind} demands on it"
                    )

    # -- static-relation balance --------------------------------------------
    # Same rule for the static catalog.
    held = Counter(key for leaf in leaves for key in leaf.static_keys)
    static_refs = engine.static_catalog.refs
    for key in held.keys() | static_refs.keys():
        if held[key] != static_refs.get(key, 0):
            violations.append(
                f"static relation {key[1][:80]!r}: refcount is "
                f"{static_refs.get(key, 0)} but {held[key]} runtime "
                "reference(s) are held on it"
            )

    # -- MQO subscription agreement -----------------------------------------
    mqo = gateway.mqo
    if mqo is not None:
        subscribers = mqo.subscribers()
        for key, names in subscribers.items():
            if not names:
                violations.append(
                    f"MQO pipeline {key[:80]!r} has zero subscribers but "
                    "was not released"
                )
            for sub in names:
                if sub not in queries:
                    violations.append(
                        f"MQO pipeline subscriber {sub!r} is not a "
                        "registered query"
                    )
        for name, runtime in runtimes.items():
            for leaf in runtime.leaf_runtimes:
                if leaf.mqo is not None and name not in subscribers.get(
                    leaf.mqo.relation_pipe.key, ()
                ):
                    violations.append(
                        f"query {name!r} carries an MQO binding but the "
                        "registry has no subscription for it"
                    )

    # -- event-bus bookkeeping ----------------------------------------------
    bus = gateway.bus
    for name, topic in bus.topics.items():
        live = [s for s in topic.subscriptions if not s.closed]
        if topic.refcount != len(live):
            violations.append(
                f"topic {name!r} refcount {topic.refcount} does not "
                f"match its {len(live)} live subscriber(s)"
            )
        if topic.refcount == 0:
            violations.append(
                f"topic {name!r} has zero subscribers but was not "
                "dropped from the bus"
            )
        if name not in queries and not topic.finished:
            violations.append(
                f"topic {name!r} has no registered query but was "
                "never finished: its subscribers would await forever"
            )
        for subscription in topic.subscriptions:
            capacity = subscription.capacity
            if capacity is not None and len(subscription) > capacity:
                violations.append(
                    f"a subscription on topic {name!r} holds "
                    f"{len(subscription)} results over its bound of "
                    f"{capacity}"
                )
    for name, registered in queries.items():
        if registered.state.is_terminal:
            topic = bus.topic(name)
            if topic is not None and not topic.finished:
                violations.append(
                    f"query {name!r} is terminal but its topic was "
                    "not finished (terminal transition fired twice "
                    "or not at all?)"
                )

    # -- scheduler bookkeeping ----------------------------------------------
    scheduler = gateway.scheduler
    if scheduler is not None:
        report = scheduler.load_report()
        pipeline_refs = report.pipeline_refs
        for name in report.query_costs:
            if name.startswith("mqo::"):
                # shared-pipeline placements live under the synthetic id
                # ``mqo::<key>`` for as long as any subscriber holds a ref
                if pipeline_refs.get(name[len("mqo::"):], 0) <= 0:
                    violations.append(
                        f"scheduler still places shared pipeline "
                        f"{name[:80]!r} with no live refs"
                    )
            elif name not in engine_names:
                violations.append(
                    f"scheduler still places operators of deregistered "
                    f"query {name!r}"
                )
        for key, refs in pipeline_refs.items():
            if refs <= 0:
                violations.append(
                    f"scheduler pipeline {key[:80]!r} refcount is {refs}"
                )
        for name in report.query_pipelines:
            if name not in engine_names:
                violations.append(
                    f"scheduler still holds pipeline references of "
                    f"deregistered query {name!r}"
                )
        expected_pipeline_refs = Counter(
            key for keys in report.query_pipelines.values() for key in keys
        )
        if expected_pipeline_refs != pipeline_refs:
            violations.append(
                "scheduler pipeline refcounts do not match its per-query "
                f"pipeline keys ({len(pipeline_refs)} vs "
                f"{len(expected_pipeline_refs)} distinct keys)"
            )

    # -- costed-plan consistency --------------------------------------------
    # The estimator's explain record and the live runtime must agree: a
    # registration-time demotion really planned RECOMPUTE, and a fired
    # mid-flight guard really demoted its runtime (and recorded where).
    for name, registered in queries.items():
        choice = registered.plan.choice
        guard = registered.guard
        if choice is not None and choice.demoted_at_registration:
            decision = registered.plan.incremental
            if decision is not None and (
                decision.mode is not choice.chosen
                or "cost-based" not in decision.reason
            ):
                violations.append(
                    f"query {name!r}: costed plan chose "
                    f"{choice.chosen.name} below its ceiling but the "
                    f"plan's incremental decision is {decision.mode.name} "
                    f"({decision.reason!r})"
                )
        if guard is not None and guard.fired:
            if not registered.runtime.demoted:
                violations.append(
                    f"query {name!r}: re-planning guard fired but the "
                    "runtime was not demoted"
                )
            if choice is not None and choice.demoted_at_window is None:
                violations.append(
                    f"query {name!r}: re-planning guard fired but the "
                    "costed plan carries no demotion record"
                )

    # -- checkpoint bookkeeping ---------------------------------------------
    if gateway.checkpointer is not None:
        violations.extend(gateway.checkpointer.audit_violations())

    # -- span-tree invariants -----------------------------------------------
    # Every opened span must close, parent to a live span, and attribute
    # to a registered query (the tracer records violations as it closes).
    if gateway.obs.tracer.enabled:
        violations.extend(gateway.obs.tracer.audit_violations())

    # -- everything drains at zero ------------------------------------------
    if not queries and mqo is not None and mqo.pipeline_count:
        violations.append(
            "MQO registry not empty after the last deregister: "
            f"{mqo.pipeline_count} pipelines"
        )
    if not engine_queries:
        if engine.shared_reader_count:
            violations.append(
                f"the engine's reader catalog still holds "
                f"{engine.shared_reader_count} reader(s) after the last "
                "deregister"
            )
        if scheduler is not None:
            report = scheduler.load_report()
            if report.pipeline_refs:
                violations.append(
                    "scheduler pipeline refs not empty after the last "
                    "deregister"
                )
            for worker in report.workers:
                if abs(worker.load) > 1e-9:
                    violations.append(
                        f"worker {worker.node_id} load is {worker.load} "
                        "after the last deregister"
                    )

    if violations:
        raise InvariantViolation(violations)
