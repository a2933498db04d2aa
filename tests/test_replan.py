"""Mid-flight re-planning: demotion guards and their exactness proof.

A pane-tier plan may be demoted to full recompute at *any* window
boundary — by the gateway's re-planning guard when the estimated
overlap win never materializes, or directly through
``PlanRuntime.demote`` — and the delivered ``WindowResult`` sequence
must be byte-identical to both an uninterrupted pane run and a
recompute-from-the-start run.  That is the same permanent-fallback
contract the pane-break machinery already honors; the guard only adds a
*policy* for pulling the lever.

The regression scenario (PR 3's documented ~0.84x pane trap): an
overlap-2 stream whose dense head baits the estimator into keeping the
pane tier, then goes sparse — the guard must notice the missing reuse
and demote mid-flight.
"""

import pytest

from cqgen import build_engine, run_engine, snapshot
from repro.analysis.verifier import verify_gateway
from repro.exastream import (
    GatewayServer,
    IncrementalMode,
    ReplanGuard,
    plan_sql,
)

#: overlap factor 2: the smallest grid where panes are reused at all,
#: and the one PR 3 measured at ~0.84x on sparse streams
RANGE, SLIDE = 40, 20

SQL = (
    "SELECT w.sid AS s, COUNT(*) AS n, SUM(w.val) AS total "
    f"FROM timeSlidingWindow(S, {RANGE}, {SLIDE}) AS w GROUP BY w.sid"
)

JOIN_SQL = (
    "SELECT a.sid AS g, COUNT(*) AS n, SUM(a.val + b.val) AS total "
    f"FROM timeSlidingWindow(A, {RANGE}, {SLIDE}) AS a, "
    f"timeSlidingWindow(B, {RANGE}, {SLIDE}) AS b "
    "WHERE a.sid = b.sid GROUP BY a.sid"
)


def sparse_rows(n_seconds=300, step=3):
    """~1/3 tuple per second: panes are mostly bookkeeping."""
    return [(float(t), (t // step) % 3, 50.0 + t % 17) for t in
            range(0, n_seconds, step)]


def bait_and_starve_rows():
    """A dense head (what registration samples) then a sparse tail."""
    dense = [
        (t + i / 10.0, (t + i) % 6, 50.0 + (t * 7 + i) % 23)
        for t in range(0, 50)
        for i in range(6)
    ]
    sparse = [(float(t), t % 6, 50.0 + t % 23) for t in range(50, 400, 25)]
    return dense + sparse


def run_demoting(rows, sql, demote_after, *, shards=1, streams=None):
    """Gateway run that demotes the (pane) runtime after ``k`` windows."""
    engine = build_engine(rows, shards=shards, streams=streams)
    gateway = GatewayServer(engine)
    registered = gateway.register(
        sql, name="q", shards=shards if shards > 1 else None
    )
    windows = 0
    while gateway.step(1):
        windows += 1
        if windows == demote_after:
            assert registered.runtime.demote("test demotion"), (
                "demotion must apply while the pane tier is active"
            )
    return snapshot(registered), registered.runtime


class TestDirectDemotion:
    """``demote()`` at an arbitrary window boundary is exact."""

    @pytest.mark.parametrize("demote_after", (1, 3, 7))
    def test_single_stream_pane(self, demote_after):
        rows = sparse_rows()
        demoted, runtime = run_demoting(rows, SQL, demote_after)
        assert runtime.demoted
        uninterrupted = run_engine(build_engine(rows), SQL)
        recompute = run_engine(build_engine(rows, incremental=False), SQL)
        assert uninterrupted == recompute  # the standing house rule
        assert demoted == recompute  # and demotion does not break it

    @pytest.mark.parametrize("demote_after", (2, 5))
    def test_pane_join(self, demote_after):
        streams = {
            "A": sparse_rows(),
            "B": sparse_rows(step=4),
        }
        engine = build_engine(streams=streams)
        plan = plan_sql(JOIN_SQL, engine, name="probe")
        assert plan.incremental.mode is IncrementalMode.PANE_JOIN
        demoted, runtime = run_demoting(
            None, JOIN_SQL, demote_after, streams=streams
        )
        assert runtime.demoted
        oracle = run_engine(
            build_engine(streams=streams, incremental=False), JOIN_SQL
        )
        assert demoted == oracle

    @pytest.mark.parametrize("demote_after", (2,))
    def test_sharded_local(self, demote_after):
        rows = sparse_rows()
        demoted, runtime = run_demoting(rows, SQL, demote_after, shards=2)
        assert runtime.demoted
        oracle = run_engine(
            build_engine(rows, shards=2, incremental=False), SQL, shards=2
        )
        assert demoted == oracle

    def test_demote_is_idempotent_and_gated(self):
        rows = sparse_rows()
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        gateway.step(1)
        assert registered.runtime.demote("once") is True
        assert registered.runtime.demote("twice") is False  # already demoted
        while gateway.step(1):
            pass
        recompute = run_engine(build_engine(rows, incremental=False), SQL)
        assert snapshot(registered) == recompute

    def test_demote_on_recompute_plan_is_refused(self):
        rows = sparse_rows()
        engine = build_engine(rows, incremental=False)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        gateway.step(1)
        assert registered.runtime.demote("pointless") is False


class TestGuardDemotion:
    """The gateway's re-planning guard fires on its own and stays exact."""

    def test_bait_and_starve_regression(self):
        rows = bait_and_starve_rows()
        engine = build_engine(rows, adaptive=True)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        choice = registered.plan.choice
        # the dense head baits the estimator into keeping the pane tier
        assert choice.chosen is IncrementalMode.PANE_INCREMENTAL
        assert registered.guard is not None
        while gateway.step(1):
            pass
        assert registered.guard.fired
        assert registered.runtime.demoted
        assert choice.demoted_at_window is not None
        assert "pane reuse below cost threshold" in choice.demotion_reason
        demotions = gateway.metrics_snapshot().value(
            "plan_demotions_total", query="q"
        )
        assert demotions == 1
        recompute = run_engine(build_engine(rows, incremental=False), SQL)
        uninterrupted = run_engine(build_engine(rows), SQL)
        assert snapshot(registered) == recompute == uninterrupted

    def test_guard_holds_on_dense_streams(self):
        """Dense overlap keeps its pane win: the guard must not fire."""
        rows = [
            (t + i / 10.0, (t + i) % 6, 50.0 + (t * 7 + i) % 23)
            for t in range(0, 120)
            for i in range(4)
        ]
        engine = build_engine(rows, adaptive=True)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        assert registered.guard is not None
        while gateway.step(1):
            pass
        assert not registered.guard.fired
        assert not registered.runtime.demoted
        metrics = engine.metrics.query("q")
        assert metrics.windows_incremental > 0
        assert snapshot(registered) == run_engine(build_engine(rows), SQL)

    def test_guard_demotion_under_audit(self, monkeypatch):
        """The invariant verifier accepts the demoted state end to end."""
        monkeypatch.setenv("REPRO_AUDIT", "1")
        rows = bait_and_starve_rows()
        engine = build_engine(rows, adaptive=True)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        assert gateway.audit
        while gateway.step(1):
            pass
        assert registered.runtime.demoted
        verify_gateway(gateway)  # explicit final check on the demoted state
        recompute = run_engine(build_engine(rows, incremental=False), SQL)
        assert snapshot(registered) == recompute


def rate_drop_rows():
    """400 s of six sensors whose rate drops sixfold at t=200."""
    dense = [
        (t + i / 4.0, (t + i) % 6, 50.0) for t in range(200) for i in range(3)
    ]
    return dense + [(float(t), t % 6, 50.0) for t in range(200, 400, 2)]


def per_window_shard_sums(rows, n_windows):
    """What the guard should be fed at ``shards=2``: for each window,
    the leaves' own ``last_pane_stats`` summed — taken by driving the
    leaves of an identical layout one window at a time, the way a
    ``shards=1`` runtime is driven."""
    engine = build_engine(rows, shards=2)
    runtime = engine.bind(plan_sql(SQL, engine, name="q"), shards=2)
    sums = []
    for window_id in range(n_windows):
        stats = []
        for leaf in runtime.leaf_runtimes:
            leaf.execute_window(window_id)
            if leaf.last_pane_stats is not None:
                stats.append(leaf.last_pane_stats)
        sums.append(tuple(map(sum, zip(*stats))) if stats else None)
    runtime.close()
    return sums


class TestShardedGuardFeed:
    """Shards execute in batches of 8 windows; the guard must still see
    the window just merged, not the last one a leaf happened to run."""

    def test_each_pulse_reports_its_own_window(self):
        rows = rate_drop_rows()
        gateway = GatewayServer(build_engine(rows, shards=2))
        registered = gateway.register(SQL, name="q", shards=2)
        observed = []
        while gateway.step(1):
            observed.append(registered.runtime.last_pane_stats)
        assert observed == per_window_shard_sums(rows, len(observed))
        # the warm-up window and the rate change are both visible
        assert observed[0][0] == 0 == observed[1][0]
        assert len(set(observed)) >= 4

    def test_guard_needs_patience_distinct_windows(self):
        rows = bait_and_starve_rows()
        engine = build_engine(rows, shards=2, adaptive=True)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q", shards=2)
        assert registered.guard is not None
        pulses = 0
        while gateway.step(1):
            pulses += 1
        assert registered.guard.fired
        # a fresh guard fed one observation per window fires at the
        # same window: no window was scored twice
        replay = ReplanGuard()
        fired_at = next(
            window_id
            for window_id, stats in enumerate(
                per_window_shard_sums(rows, pulses)
            )
            if replay.observe(stats)
        )
        assert registered.plan.choice.demoted_at_window == fired_at + 1
        assert fired_at + 1 >= replay.policy.warmup + replay.policy.patience
        oracle = run_engine(build_engine(rows, incremental=False), SQL)
        assert snapshot(registered) == oracle

    def test_payload_from_an_older_checkpoint_carries_no_signal(self):
        rows = rate_drop_rows()
        gateway = GatewayServer(build_engine(rows, shards=2))
        registered = gateway.register(SQL, name="q", shards=2)
        gateway.step(2)
        state = registered.runtime.snapshot_state()
        # the payload shape before the per-window stats were shipped
        state["buffers"] = [
            {window_id: payload[:6] for window_id, payload in buffer.items()}
            for buffer in state["buffers"]
        ]
        registered.runtime.restore_state(state)
        gateway.step(1)
        assert registered.runtime.last_pane_stats is None
        while gateway.step(1):
            pass
        oracle = run_engine(build_engine(rows, incremental=False), SQL)
        assert snapshot(registered) == oracle


class TestDemotionDurability:
    def test_snapshot_restore_preserves_demotion(self):
        rows = sparse_rows()
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        for _ in range(3):
            gateway.step(1)
        assert registered.runtime.demote("pre-checkpoint")
        state = registered.runtime.snapshot_state()
        assert state["demoted"] is True
        assert state["demotion_reason"] == "pre-checkpoint"

        fresh = build_engine(rows)
        fresh_gateway = GatewayServer(fresh)
        recovered = fresh_gateway.register(SQL, name="q")
        recovered.runtime.restore_state(state)
        assert recovered.runtime.demoted
        recovered.next_window = registered.next_window
        while fresh_gateway.step(1):
            pass
        oracle = run_engine(build_engine(rows, incremental=False), SQL)
        tail = snapshot(recovered)
        assert tail == oracle[len(oracle) - len(tail):]

    def test_pre_demotion_state_restores_cleanly(self):
        """A checkpoint taken before this feature has no demotion keys."""
        rows = sparse_rows()
        engine = build_engine(rows)
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q")
        gateway.step(1)
        state = registered.runtime.snapshot_state()
        state.pop("demoted")
        state.pop("demotion_reason")
        fresh = build_engine(rows)
        recovered = GatewayServer(fresh).register(SQL, name="q")
        recovered.runtime.restore_state(state)
        assert recovered.runtime.demoted is False


class TestForkRestriction:
    def test_fork_runtime_refuses_demotion(self):
        """Fork workers hold pane state in child processes: no demotion
        (mirrors the checkpoint RecoveryError restriction), but the run
        itself stays exact."""
        rows = sparse_rows(n_seconds=120)
        engine = build_engine(rows, shards=2, parallel="fork")
        gateway = GatewayServer(engine)
        registered = gateway.register(SQL, name="q", shards=2)
        gateway.step(1)
        assert registered.runtime.demote("not possible") is False
        assert not registered.runtime.demoted
        while gateway.step(1):
            pass
        oracle = run_engine(build_engine(rows, incremental=False), SQL)
        assert snapshot(registered) == oracle
