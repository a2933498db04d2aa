"""E11 (Figure 2): load-based operator placement across workers.

The Scheduler "places stream and relational operators on worker nodes
based on the node's load".  We place a skewed query population (mixed
operator counts and window volumes) on 16 workers and measure the load
balance, plus placement throughput.

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""


from repro.exastream import Scheduler, StreamEngine, plan_sql
from repro.relational import Column, SQLType
from repro.streams import ListSource, Stream, StreamSchema


def _engine():
    schema = StreamSchema(
        (
            Column("ts", SQLType.REAL),
            Column("sid", SQLType.INTEGER),
            Column("val", SQLType.REAL),
        ),
        time_column="ts",
    )
    engine = StreamEngine()
    for name in ("S_A", "S_B", "S_C", "S_D"):
        engine.register_stream(
            ListSource(Stream(name, schema), [(0.0, 1, 1.0)])
        )
    return engine


def _mixed_plans(engine, count: int):
    plans = []
    for i in range(count):
        stream = ("S_A", "S_B", "S_C", "S_D")[i % 4]
        window = (5, 10, 30, 60)[i % 4]
        if i % 3 == 0:
            sql = (
                f"SELECT w.sid AS s, AVG(w.val) AS m, MAX(w.val) AS mx "
                f"FROM timeSlidingWindow({stream}, {window}, 5) AS w "
                f"WHERE w.val > {i % 7} GROUP BY w.sid"
            )
        else:
            sql = (
                f"SELECT w.sid AS s, COUNT(*) AS n "
                f"FROM timeSlidingWindow({stream}, {window}, 5) AS w "
                f"GROUP BY w.sid"
            )
        plans.append(plan_sql(sql, engine, name=f"q{i}"))
    return plans


def test_placement_balance(benchmark):
    engine = _engine()
    plans = _mixed_plans(engine, 200)

    def place_all():
        scheduler = Scheduler(16)
        for plan in plans:
            scheduler.place(plan)
        return scheduler

    scheduler = benchmark(place_all)
    balance = scheduler.balance()
    loads = scheduler.loads
    print(f"\nbalance (max/mean): {balance:.3f}; "
          f"loads min={min(loads):.1f} max={max(loads):.1f}")
    assert balance < 1.25
    assert all(load > 0 for load in loads)


def test_affinity_keeps_scans_colocated():
    engine = _engine()
    plans = _mixed_plans(engine, 64)
    scheduler = Scheduler(8)
    for plan in plans:
        scheduler.place(plan)
    scan_workers: dict[str, set[int]] = {}
    for worker in scheduler.workers:
        for placement in worker.placements:
            if placement.operator.startswith("scan["):
                scan_workers.setdefault(placement.operator, set()).add(
                    worker.node_id
                )
    # every distinct windowed scan lives on exactly one node (wCache local)
    assert all(len(nodes) == 1 for nodes in scan_workers.values())


def test_removal_rebalances():
    engine = _engine()
    plans = _mixed_plans(engine, 32)
    scheduler = Scheduler(4)
    for plan in plans:
        scheduler.place(plan)
    before = scheduler.total_load()
    for plan in plans[:16]:
        scheduler.remove(plan.name)
    assert scheduler.total_load() < before
