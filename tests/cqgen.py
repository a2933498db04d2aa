"""Shared randomized-CQ test harness.

The differential suites (``test_incremental``, ``test_mqo``,
``test_sharded``, ``test_pane_join``) all exercise the same property —
byte-identical :class:`WindowResult` sequences across execution modes —
over the same synthetic measurement workload.  This module owns the
pieces they used to copy-paste:

* the measurement stream schema and deterministic row generator (with
  per-sensor gaps and full outages for sparse/empty-pane scenarios);
* the static sensor-metadata database;
* engine/gateway builders and result snapshot helpers;
* seeded random continuous-query generators — single-stream CQs,
  prefix-sharing CQ families, and two-stream join CQs over
  join-compatible templates (both streams carry the shared ``sid`` key,
  so generated equi-joins always have matching domains);
* a seeded random STARQL WHERE pattern with a set of HAVING subjects
  (the input of the translator's ``decompose_where``).

Everything is deterministic under a caller-provided ``random.Random``.
"""

from repro.exastream import (
    GatewayServer,
    IncrementalDecision,
    IncrementalMode,
    StreamEngine,
    analyze_incremental,
    plan_sql,
)
from repro.exastream.durability import (
    CheckpointManager,
    FaultInjector,
    SimulatedCrash,
    recover,
)
from repro.queries import ClassAtom, ConjunctiveQuery, Filter, PropertyAtom
from repro.rdf import Variable
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.streams import ListSource, Stream, StreamSchema

__all__ = [
    "SCHEMA",
    "SPECS",
    "measurement_rows",
    "adversarial_rows",
    "static_db",
    "build_engine",
    "run_engine",
    "snapshot",
    "run_concurrently",
    "run_checkpointed",
    "recover_and_finish",
    "eligible_tiers",
    "force_tier",
    "random_single_stream_sql",
    "random_family",
    "random_join_sql",
    "random_join_family",
    "random_where_pattern",
]

SCHEMA = StreamSchema(
    (
        Column("ts", SQLType.REAL),
        Column("sid", SQLType.INTEGER),
        Column("val", SQLType.REAL),
    ),
    time_column="ts",
)

#: overlap factors r/s ∈ {1, 4, 16} on a 5s slide
SPECS = [(5, 5), (20, 5), (80, 5)]


def measurement_rows(
    n_seconds=200,
    n_sensors=6,
    gap_sensor=None,
    gap=(None, None),
    silence=None,
    value_offset=0.0,
    fraction=0.1234567,
):
    """Float-valued measurements; optional per-sensor gap and full outage.

    ``value_offset`` shifts every value, so two calls produce distinct
    but join-compatible streams (same sensors, same timestamps).
    ``fraction=0.0`` yields integer-valued floats — exact under any
    addition order, which the PARTIAL-mode shard recombination (shard
    sums re-added at the merge) relies on for bitwise equality.
    """
    rows = []
    for t in range(n_seconds):
        if silence is not None and silence[0] <= t < silence[1]:
            continue
        for s in range(n_sensors):
            if s == gap_sensor and gap[0] <= t < gap[1]:
                continue
            rows.append(
                (
                    float(t),
                    s,
                    50.0 + ((t * 7 + s * 13) % 23) + fraction + value_offset,
                )
            )
    return rows


def adversarial_rows(
    rng,
    n_seconds=240,
    n_sensors=6,
    skew=2.0,
    burst_period=60,
    burst_duty=0.25,
    burst_hz=4,
    sparse_p=0.2,
    correlated=True,
):
    """Estimator-hostile measurements: the shapes cost models get wrong.

    * **Skewed key cardinality** — sensor ids drawn with weight
      ``1 / (1 + s) ** skew``, so a couple of hot keys dominate while
      the tail keys barely appear (a uniform-distinct assumption
      overestimates group counts and join fan-out).
    * **Bursty/sparse rate** — each ``burst_period`` opens with a
      ``burst_duty`` fraction of dense ``burst_hz`` traffic, then goes
      near-silent (one tuple per second with probability ``sparse_p``),
      so any single sampled rate misrepresents most of the stream.
    * **Correlated filters** — with ``correlated=True`` the value is a
      function of the sensor id (plus noise), so a value filter's
      selectivity differs per key instead of being independent.

    Deterministic under the caller's ``rng``; rows are timestamp-ordered
    like every other generator here.
    """
    weights = [1.0 / (1 + s) ** skew for s in range(n_sensors)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def pick_sensor():
        u = rng.random()
        for s, edge in enumerate(cumulative):
            if u <= edge:
                return s
        return n_sensors - 1

    rows = []
    burst_seconds = max(1, int(burst_period * burst_duty))
    for t in range(n_seconds):
        in_burst = (t % burst_period) < burst_seconds
        count = burst_hz if in_burst else (1 if rng.random() < sparse_p else 0)
        for k in range(count):
            s = pick_sensor()
            if correlated:
                val = 40.0 + s * 5.0 + rng.uniform(0.0, 10.0)
            else:
                val = 50.0 + rng.uniform(0.0, 23.0)
            rows.append((t + k / float(max(count, 1)), s, val))
    return rows


def static_db(n_sensors=6):
    db = Database(
        Schema(
            "meta",
            {
                "sensors": Table(
                    "sensors",
                    [
                        Column("sid", SQLType.INTEGER),
                        Column("kind", SQLType.TEXT),
                    ],
                )
            },
        )
    )
    db.insert(
        "sensors", [(s, "temp" if s % 3 else "pres") for s in range(n_sensors)]
    )
    return db


def build_engine(
    rows=None,
    *,
    shards=1,
    incremental=True,
    mqo=True,
    cache_capacity=4096,
    streams=None,
    attach_static=True,
    **engine_kwargs,
):
    """An engine over the shared workload.

    ``rows`` registers a single stream ``S``; ``streams`` (a
    ``name -> rows`` mapping) registers several join-compatible streams
    instead.  ``shards`` is the engine's width; extra keyword arguments
    (``parallel``, ``scheduler``, ...) pass through to the engine
    constructor.
    """
    engine = StreamEngine(
        shards=shards,
        incremental=incremental,
        mqo=mqo,
        cache_capacity=cache_capacity,
        **engine_kwargs,
    )
    if streams is None:
        streams = {"S": rows if rows is not None else measurement_rows()}
    for name, stream_rows in streams.items():
        engine.register_stream(ListSource(Stream(name, SCHEMA), stream_rows))
    if attach_static:
        engine.attach_database("meta", static_db())
    return engine


def eligible_tiers(plan):
    """The execution tiers this plan may run under, ceiling first.

    The incremental analysis is a correctness *ceiling*: a plan may run
    at its analyzed tier or anywhere below it (RECOMPUTE is always
    eligible) — never above.  Mirrors the demote-only contract of the
    cost-based planner.
    """
    ceiling = analyze_incremental(plan)
    tiers = [ceiling.mode]
    if ceiling.mode is not IncrementalMode.RECOMPUTE:
        tiers.append(IncrementalMode.RECOMPUTE)
    return tiers


def force_tier(plan, mode):
    """Pin ``plan`` to one eligible execution tier (differential knob).

    Forcing the ceiling reruns the analysis (the pane decisions carry
    the pane grids the runtime needs); forcing RECOMPUTE below a pane
    ceiling installs a bare recompute decision, exactly like the cost
    model's registration-time demotion.  Forcing above the ceiling is a
    harness bug and raises.
    """
    ceiling = analyze_incremental(plan)
    if mode is ceiling.mode:
        plan.incremental = ceiling
    elif mode is IncrementalMode.RECOMPUTE:
        plan.incremental = IncrementalDecision(
            mode=IncrementalMode.RECOMPUTE, reason="forced tier (test harness)"
        )
    else:
        raise ValueError(
            f"tier {mode.name} is above this plan's ceiling "
            f"{ceiling.mode.name}"
        )
    return plan


def run_engine(engine, sql, shards=1, forced_tier=None):
    """Plan + execute one query to exhaustion; hashable result tuples.

    ``forced_tier`` pins the plan to one eligible execution tier before
    binding (see :func:`force_tier`).
    """
    plan = plan_sql(sql, engine, name="q")
    if forced_tier is not None:
        force_tier(plan, forced_tier)
    results = engine.run_continuous(plan, shards=shards)
    return [
        (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
        for r in results
    ]


def snapshot(registered):
    """A registered query's retained results as hashable tuples."""
    return [
        (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
        for r in registered.results()
    ]


def run_concurrently(sqls, engine, shards=1):
    """Register every query on one gateway, run to exhaustion, snapshot.

    Returns ``(snapshots, gateway)``; queries are deregistered before
    returning, so gateway bookkeeping assertions see the final state.
    """
    gateway = GatewayServer(engine)
    registered = [
        gateway.register(
            sql, name=f"q{i}", shards=shards if shards > 1 else None
        )
        for i, sql in enumerate(sqls)
    ]
    while gateway.step():
        pass
    out = [snapshot(q) for q in registered]
    for q in registered:
        gateway.deregister(q.name)
    return out, gateway


# -- fault-injection / recovery drivers ---------------------------------------


def run_checkpointed(
    sqls,
    directory,
    *,
    shards=1,
    interval=1,
    faults=None,
    engine_kwargs=None,
    **checkpoint_kwargs,
):
    """Run the workload under a :class:`CheckpointManager`.

    Registers every query as ``q{i}``, steps to exhaustion (or until an
    injected :class:`SimulatedCrash` kills the engine), and returns
    ``(snapshots_or_None, crashed)`` — snapshots only when the run
    survived.  The crashed engine and gateway are discarded either way,
    exactly like a dead process.
    """
    engine = build_engine(shards=shards, **(engine_kwargs or {}))
    gateway = GatewayServer(engine)
    registered = [
        gateway.register(
            sql, name=f"q{i}", shards=shards if shards > 1 else None
        )
        for i, sql in enumerate(sqls)
    ]
    CheckpointManager(
        gateway, directory, interval=interval, faults=faults,
        **checkpoint_kwargs,
    )
    try:
        while gateway.step():
            pass
    except SimulatedCrash:
        return None, True
    return [snapshot(q) for q in registered], False


def recover_and_finish(sqls, directory, *, shards=1, engine_kwargs=None):
    """Recover from ``directory`` on a fresh engine and run to the end.

    Falls back to registering ``sqls`` from scratch when no usable
    checkpoint exists (the graceful-degradation path).  Returns
    ``(snapshots, recovered)``.
    """
    engine = build_engine(shards=shards, **(engine_kwargs or {}))
    gateway = recover(directory, engine)
    recovered = gateway is not None
    if gateway is None:
        gateway = GatewayServer(engine)
        for i, sql in enumerate(sqls):
            gateway.register(
                sql, name=f"q{i}", shards=shards if shards > 1 else None
            )
    while gateway.step():
        pass
    return [snapshot(gateway.query(f"q{i}")) for i in range(len(sqls))], recovered


# -- seeded random query generators -------------------------------------------

SINGLE_STREAM_AGGREGATES = [
    "AVG(w.val)",
    "SUM(w.val)",
    "COUNT(*)",
    "COUNT(w.val)",
    "MIN(w.val)",
    "MAX(w.val)",
    "AVG(w.val * 2 + 1)",
    "SUM(w.val - 50)",
]

FAMILY_AGGREGATES = [
    "AVG(w.val)",
    "SUM(w.val)",
    "COUNT(*)",
    "MIN(w.val)",
    "MAX(w.val)",
    "AVG(w.val * 2 + 1)",
]

#: join-compatible aggregate templates: every column resolves against
#: the canonical two-stream join prefix (aliases ``a``/``b`` over the
#: shared schema)
JOIN_AGGREGATES = [
    "COUNT(*)",
    "COUNT(b.val)",
    "SUM(a.val)",
    "SUM(a.val + b.val)",
    "AVG(b.val)",
    "AVG(a.val * b.val)",
    "MIN(a.val)",
    "MAX(b.val)",
]


def random_single_stream_sql(rng, r, s):
    """One random single-stream CQ over stream ``S`` (+ static joins)."""
    calls = rng.sample(SINGLE_STREAM_AGGREGATES, rng.randint(1, 3))
    select = ", ".join(f"{c} AS a{i}" for i, c in enumerate(calls))
    group = rng.random() < 0.7
    join = rng.random() < 0.4
    tables = f"timeSlidingWindow(S, {r}, {s}) AS w"
    where = []
    if join:
        tables += ", sensors AS t"
        where.append("w.sid = t.sid")
        if rng.random() < 0.5:
            where.append("t.kind = 'temp'")
    if rng.random() < 0.6:
        where.append(f"w.val > {rng.randint(45, 65)}")
    sql = "SELECT "
    if group:
        sql += "w.sid AS s, "
    sql += select + " FROM " + tables
    if where:
        sql += " WHERE " + " AND ".join(where)
    if group:
        sql += " GROUP BY w.sid"
    return sql


def random_family(rng):
    """A base prefix plus 2-4 variants sharing it (and one outsider)."""
    r, s = rng.choice([(20, 5), (12, 4), (30, 10)])
    join = rng.random() < 0.6
    where = []
    tables = f"timeSlidingWindow(S, {r}, {s}) AS w"
    if join:
        tables += ", sensors AS t"
        where.append("w.sid = t.sid")
        if rng.random() < 0.5:
            where.append("t.kind = 'temp'")
    if rng.random() < 0.7:
        where.append(f"w.val > {rng.randint(48, 62)}")
    prefix = " FROM " + tables
    if where:
        prefix += " WHERE " + " AND ".join(where)
    calls = rng.sample(FAMILY_AGGREGATES, rng.randint(1, 3))
    select = ", ".join(f"{c} AS a{i}" for i, c in enumerate(calls))
    family = []
    for _ in range(rng.randint(2, 4)):
        sql = f"SELECT w.sid AS g, {select}{prefix} GROUP BY w.sid"
        if rng.random() < 0.5:
            sql += f" HAVING {calls[0]} > {rng.randint(40, 80)}"
        family.append(sql)
    # one structurally different query keeps the registry honest
    family.append(
        f"SELECT COUNT(*) AS n FROM timeSlidingWindow(S, {r}, {s}) AS w "
        f"WHERE w.val > {rng.randint(48, 62)}"
    )
    return family


def random_join_sql(rng, spec_a, spec_b=None, streams=("A", "B")):
    """One random two-stream equi-join CQ over streams ``A``/``B``.

    The join key is always the shared ``sid`` column (join-compatible by
    construction); ``spec_b`` defaults to ``spec_a`` and may differ for
    mismatched per-side grids.  Static joins, per-side filters, residual
    cross-stream filters, grouping and HAVING are all randomized.
    """
    ra, sa = spec_a
    rb, sb = spec_b if spec_b is not None else spec_a
    name_a, name_b = streams
    calls = rng.sample(JOIN_AGGREGATES, rng.randint(1, 3))
    select = ", ".join(f"{c} AS a{i}" for i, c in enumerate(calls))
    group = rng.random() < 0.7
    tables = (
        f"timeSlidingWindow({name_a}, {ra}, {sa}) AS a, "
        f"timeSlidingWindow({name_b}, {rb}, {sb}) AS b"
    )
    where = ["a.sid = b.sid"]
    if rng.random() < 0.4:
        tables += ", sensors AS t"
        where.append("a.sid = t.sid")
        if rng.random() < 0.5:
            where.append("t.kind = 'temp'")
    if rng.random() < 0.5:
        where.append(f"a.val > {rng.randint(45, 60)}")
    if rng.random() < 0.4:
        where.append(f"b.val < {rng.randint(58, 78)}")
    if rng.random() < 0.3:
        where.append("a.val < b.val + 20")  # residual cross-stream filter
    sql = "SELECT "
    if group:
        sql += "a.sid AS g, "
    sql += select + " FROM " + tables + " WHERE " + " AND ".join(where)
    if group:
        sql += " GROUP BY a.sid"
        if rng.random() < 0.4:
            sql += f" HAVING {calls[0]} > {rng.randint(0, 60)}"
    return sql


def random_join_family(rng, spec_a, spec_b=None):
    """2-4 join CQs sharing both side prefixes (grouping/HAVING vary)."""
    ra, sa = spec_a
    rb, sb = spec_b if spec_b is not None else spec_a
    tables = (
        f"timeSlidingWindow(A, {ra}, {sa}) AS a, "
        f"timeSlidingWindow(B, {rb}, {sb}) AS b"
    )
    where = ["a.sid = b.sid"]
    if rng.random() < 0.5:
        where.append(f"a.val > {rng.randint(45, 58)}")
    if rng.random() < 0.5:
        where.append(f"b.val < {rng.randint(60, 78)}")
    prefix = f" FROM {tables} WHERE " + " AND ".join(where)
    calls = rng.sample(JOIN_AGGREGATES, rng.randint(1, 3))
    select = ", ".join(f"{c} AS a{i}" for i, c in enumerate(calls))
    family = []
    for _ in range(rng.randint(2, 4)):
        sql = f"SELECT a.sid AS g, {select}{prefix} GROUP BY a.sid"
        if rng.random() < 0.5:
            sql += f" HAVING {calls[0]} > {rng.randint(0, 70)}"
        family.append(sql)
    return family


def random_where_pattern(rng, classes, roles, max_variables=5):
    """A random WHERE pattern and a random set of its variables as HAVING
    subjects: ``(cq, subjects)``.

    ``classes``/``roles`` are predicate IRIs.  Every variable of the
    pattern is an answer variable, as in a STARQL WHERE clause; patterns
    range over chains, stars, cycles and disconnected atoms, with an
    occasional ``!=`` filter, so some decompose per subject and some
    have an atom or filter straddling two subjects.
    """
    variables = [Variable(f"u{i}") for i in range(rng.randint(1, max_variables))]
    atoms = [ClassAtom(rng.choice(classes), variables[0])]
    for i, var in enumerate(variables[1:], 1):
        if rng.random() < 0.85:  # grow a tree: an edge to an earlier variable
            pair = [var, rng.choice(variables[:i])]
            rng.shuffle(pair)
            atoms.append(PropertyAtom(rng.choice(roles), *pair))
        else:  # a component of its own
            atoms.append(ClassAtom(rng.choice(classes), var))
    for _ in range(rng.randint(0, 2)):  # class atoms, cycles, self-loops
        if rng.random() < 0.5:
            atoms.append(ClassAtom(rng.choice(classes), rng.choice(variables)))
        else:
            atoms.append(PropertyAtom(
                rng.choice(roles), rng.choice(variables), rng.choice(variables)
            ))
    rng.shuffle(atoms)
    used = list(dict.fromkeys(v for atom in atoms for v in atom.variables()))
    filters = ()
    if len(used) > 1 and rng.random() < 0.25:
        filters = (Filter("!=", *rng.sample(used, 2)),)
    subjects = rng.sample(used, min(rng.choice((1, 2, 2, 2, 3)), len(used)))
    return ConjunctiveQuery(tuple(used), tuple(atoms), filters), subjects
