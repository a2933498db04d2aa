"""Crash/recovery differential suite.

Every test follows the same oracle pattern: run a workload to
exhaustion uninterrupted, then run it again under a
:class:`CheckpointManager` with a deterministic fault schedule, kill
it, recover on a freshly built engine, finish the run, and require the
recovered queries' results to be byte-identical to the oracle's.
Degradation paths (torn tails, missing checkpoints, IO errors) and the
live-migration/rebalance handoff ride the same oracle.
"""

import io
import json
import os
import pickle
import random
import re
from collections import Counter
from unittest import mock

import pytest

from cqgen import (
    build_engine,
    measurement_rows,
    random_join_sql,
    random_single_stream_sql,
    recover_and_finish,
    run_checkpointed,
    snapshot,
)
from repro.analysis import verify_gateway
from repro.errors import CheckpointCorrupt, RecoveryError
from repro.exastream import ContinuousPlan, GatewayServer, Scheduler
from repro.exastream.durability import (
    CheckpointLog,
    CheckpointManager,
    FaultInjector,
    SimulatedCrash,
    migrate_query,
    recover,
    snapshot_gateway,
    tear_file,
)
from repro.exastream.durability import migration as migration_module
from repro.exastream.durability.checkpoint import GATEWAY_LOG
from repro.exastream.durability.log import KIND_GATEWAY, KIND_PLAN, KIND_SCOPE, frame

ROWS = measurement_rows(n_seconds=80)

SQLS = [
    "SELECT w.sid AS s, AVG(w.val) AS a FROM timeSlidingWindow(S, 20, 5) AS w"
    " GROUP BY w.sid",
    "SELECT COUNT(*) AS n FROM timeSlidingWindow(S, 20, 5) AS w"
    " WHERE w.val > 55",
    "SELECT w.sid AS s, SUM(w.val) AS a FROM timeSlidingWindow(S, 80, 5) AS w,"
    " sensors AS t WHERE w.sid = t.sid AND t.kind = 'temp' GROUP BY w.sid",
]


def _tuples(value, seen=None):
    """Every tuple reachable from an unpickled record."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (str, bytes, int, float)):
        return
    seen.add(id(value))
    if isinstance(value, tuple):
        yield value
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = value
    else:
        children = [
            getattr(value, name)
            for name in (
                *getattr(value, "__dict__", ()),
                *getattr(type(value), "__slots__", ()),
            )
            if hasattr(value, name)
        ]
    for child in children:
        yield from _tuples(child, seen)


def _stream_tuples_in(record, rows) -> list:
    found = []
    for item in _tuples(record):
        try:
            if item in rows:
                found.append(item)
        except TypeError:  # an unhashable tuple is no stream row
            pass
    return found


def _oracle(sqls, shards=1, engine_kwargs=None):
    engine = build_engine(shards=shards, **(engine_kwargs or {}))
    gateway = GatewayServer(engine)
    registered = [
        gateway.register(
            sql, name=f"q{i}", shards=shards if shards > 1 else None
        )
        for i, sql in enumerate(sqls)
    ]
    while gateway.step():
        pass
    return [snapshot(q) for q in registered]


class TestCrashRecoveryDifferential:
    """Kill/restart at systematic pulse indices; outputs must be exact."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fixed_cqs_crash_at_every_pulse_mod_k(self, shards, tmp_path):
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, shards, engine_kwargs)
        total = sum(len(s) for s in base)
        assert total > 20
        for crash_after in range(1, total + 2, 6):
            directory = tmp_path / f"crash{crash_after}"
            out, crashed = run_checkpointed(
                SQLS,
                directory,
                shards=shards,
                interval=2,
                faults=FaultInjector(crash_after_pulses=crash_after),
                engine_kwargs=engine_kwargs,
            )
            assert crashed == (crash_after <= total)
            if not crashed:
                assert out == base
                continue
            got, _ = recover_and_finish(
                SQLS, directory, shards=shards, engine_kwargs=engine_kwargs
            )
            assert got == base

    @pytest.mark.parametrize("shards", [1, 2])
    def test_random_cqs_crash_recovery(self, shards, tmp_path):
        rng = random.Random(20260808 + shards)
        sqls = [
            random_single_stream_sql(rng, 20, 5),
            random_single_stream_sql(rng, 80, 5),
            random_single_stream_sql(rng, 5, 5),
        ]
        engine_kwargs = {"rows": ROWS}
        base = _oracle(sqls, shards, engine_kwargs)
        total = sum(len(s) for s in base)
        for crash_after in range(3, total, max(1, total // 4)):
            directory = tmp_path / f"crash{crash_after}"
            out, crashed = run_checkpointed(
                sqls,
                directory,
                shards=shards,
                interval=3,
                faults=FaultInjector(crash_after_pulses=crash_after),
                engine_kwargs=engine_kwargs,
            )
            assert crashed and out is None
            got, _ = recover_and_finish(
                sqls, directory, shards=shards, engine_kwargs=engine_kwargs
            )
            assert got == base

    def test_bounded_sink_tail_survives_a_late_crash(self, tmp_path):
        """A crash one pulse before the end, recovered from an epoch a
        few windows back: the bounded sink's retained tail and its
        accepted/dropped books end where the uninterrupted run's do."""
        tail = 8

        def gateway_with_query():
            gateway = GatewayServer(build_engine(rows=ROWS))
            return gateway, gateway.register(
                SQLS[2], name="q", sink_capacity=tail
            )

        gateway, query = gateway_with_query()
        while gateway.step():
            pass
        total = query.next_window
        assert query.sink.dropped == total - tail > 0
        base = snapshot(query), query.sink.accepted, query.sink.dropped

        gateway, _ = gateway_with_query()
        CheckpointManager(
            gateway,
            tmp_path,
            interval=5,
            faults=FaultInjector(crash_after_pulses=total - 1),
        )
        with pytest.raises(SimulatedCrash):
            while gateway.step():
                pass
        recovered = recover(tmp_path, build_engine(rows=ROWS))
        assert recovered is not None
        query = recovered.query("q")
        assert total - 5 <= query.next_window < total  # a bounded replay
        while recovered.step():
            pass
        assert (
            snapshot(query), query.sink.accepted, query.sink.dropped
        ) == base

    def test_random_join_cq_crash_recovery(self, tmp_path):
        rng = random.Random(7)
        streams = {
            "A": measurement_rows(n_seconds=60),
            "B": measurement_rows(n_seconds=60, value_offset=3.0),
        }
        sqls = [random_join_sql(rng, (20, 5)) for _ in range(2)]
        engine_kwargs = {"streams": streams}
        base = _oracle(sqls, 1, engine_kwargs)
        total = sum(len(s) for s in base)
        for crash_after in (3, total // 2, total - 1):
            directory = tmp_path / f"crash{crash_after}"
            out, crashed = run_checkpointed(
                sqls,
                directory,
                interval=2,
                faults=FaultInjector(crash_after_pulses=crash_after),
                engine_kwargs=engine_kwargs,
            )
            assert crashed
            got, recovered = recover_and_finish(
                sqls, directory, engine_kwargs=engine_kwargs
            )
            assert recovered and got == base


class TestSiemensRecovery:
    """Every catalog task survives kill/restart byte-identically."""

    def test_all_catalog_tasks_crash_recovery(self, tmp_path):
        from repro.siemens import diagnostic_catalog
        from repro.siemens.deployment import deploy

        catalog = diagnostic_catalog()
        assert len(catalog) == 20

        def fresh():
            deployment = deploy()
            session = deployment.session(sink_capacity=None)
            names = [
                session.submit(task.starql, name=task.name).name
                for task in catalog
            ]
            return deployment, names

        deployment, names = fresh()
        while deployment.gateway.step():
            pass
        base = [snapshot(deployment.gateway.query(n)) for n in names]
        total = sum(len(s) for s in base)
        assert total > 0

        for crash_after in (4, total // 2, total - 1):
            directory = tmp_path / f"siemens{crash_after}"
            deployment, names = fresh()
            CheckpointManager(
                deployment.gateway,
                directory,
                interval=3,
                faults=FaultInjector(crash_after_pulses=crash_after),
            )
            with pytest.raises(SimulatedCrash):
                while deployment.gateway.step():
                    pass
            # Restart mirrors operations: re-run the deployment script
            # (streams, databases, macro UDFs), then recover the state.
            # Task registration installs the translated macros on the
            # engine under deterministic names; the recovered gateway is
            # a separate session on the same engine.
            replacement, _ = fresh()
            gateway = recover(directory, replacement.engine)
            assert gateway is not None
            while gateway.step():
                pass
            assert [snapshot(gateway.query(n)) for n in names] == base


class TestPositionRecords:
    """Checkpoints record where readers are in their sources, not what
    the sources hold."""

    def test_catalog_epoch_holds_no_stream_tuple(self, tmp_path):
        from repro.siemens import diagnostic_catalog
        from repro.siemens.deployment import deploy

        deployment = deploy(shards=2)
        session = deployment.session(sink_capacity=None)
        for task in diagnostic_catalog():
            session.submit(task.starql, name=task.name)
        manager = CheckpointManager(deployment.gateway, tmp_path, interval=100)
        for _ in range(40):
            deployment.gateway.step()
        manager.checkpoint()
        engine = deployment.engine
        rows = {row for name in engine.stream_names for row in engine.stream(name)}
        assert [path.name for path in tmp_path.iterdir()] == [GATEWAY_LOG]
        records = [
            (kind, pickle.loads(payload))
            for _epoch, kind, payload in CheckpointLog(tmp_path / GATEWAY_LOG).scan()[0]
        ]
        kinds = [kind for kind, _ in records]
        assert kinds[:20] == [KIND_PLAN] * 20
        assert kinds[20:] == [KIND_GATEWAY] * manager.epoch
        scopes = records[-1][1]["scopes"]
        sharded = [scope for scope in scopes if scope[0] == 2]
        assert len(sharded) >= 2
        assert all(scopes[scope]["readers"] for scope in sharded)
        for _kind, record in records:
            assert _stream_tuples_in(record, rows) == []


class TestGracefulDegradation:
    """Corrupt tails truncate and fall back; never a wrong answer."""

    def test_torn_tail_falls_back_to_previous_epoch(self, tmp_path):
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, 1, engine_kwargs)
        out, crashed = run_checkpointed(
            SQLS, tmp_path, interval=1, engine_kwargs=engine_kwargs
        )
        assert not crashed and out == base
        # Tear the newest record's tail; recovery must detect the
        # checksum break, truncate, and recover the previous epoch.
        path = tmp_path / GATEWAY_LOG
        tear_file(path, path.stat().st_size - 7)
        got, recovered = recover_and_finish(
            SQLS, tmp_path, engine_kwargs=engine_kwargs
        )
        assert recovered and got == base

    def test_injected_torn_write_mid_run(self, tmp_path):
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, 1, engine_kwargs)
        # The 5th low-level append dies 11 bytes in: a torn checkpoint
        # plus a dead engine, recovered from the last intact epoch.
        out, crashed = run_checkpointed(
            SQLS,
            tmp_path,
            interval=2,
            faults=FaultInjector(tear_write=(5, 11)),
            engine_kwargs=engine_kwargs,
        )
        assert crashed and out is None
        got, recovered = recover_and_finish(
            SQLS, tmp_path, engine_kwargs=engine_kwargs
        )
        assert recovered and got == base

    def test_scan_reports_and_strict_raises(self, tmp_path):
        log = CheckpointLog(tmp_path / "x.log")
        log.append(KIND_GATEWAY, 1, b"payload-one")
        log.append(KIND_GATEWAY, 2, b"payload-two")
        with open(log.path, "ab") as fh:
            fh.write(b"\x00garbage")
        records, valid_end, error = log.scan()
        assert [r[0] for r in records] == [1, 2]
        assert error is not None
        with pytest.raises(CheckpointCorrupt):
            log.scan(strict=True)
        log.truncate(valid_end)
        records, _, error = log.scan()
        assert [r[0] for r in records] == [1, 2] and error is None

    def test_no_checkpoint_falls_back_to_full_replay(self, tmp_path):
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, 1, engine_kwargs)
        # Interval beyond the run length: the crash precedes the first
        # checkpoint, recover() returns None, callers replay.
        out, crashed = run_checkpointed(
            SQLS,
            tmp_path,
            interval=10_000,
            faults=FaultInjector(crash_after_pulses=4),
            engine_kwargs=engine_kwargs,
        )
        assert crashed
        assert recover(tmp_path, build_engine(**engine_kwargs)) is None
        got, recovered = recover_and_finish(
            SQLS, tmp_path, engine_kwargs=engine_kwargs
        )
        assert not recovered and got == base


LATE_SQL = "SELECT MAX(w.val) AS m FROM timeSlidingWindow(S, 20, 5) AS w"


class _Cuts(CheckpointManager):
    """A checkpoint manager that books each epoch's cut: every
    registered query's next window."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cuts = {}

    def checkpoint(self):
        epoch = super().checkpoint()
        self.cuts[epoch] = _next_windows(self.gateway)
        return epoch


def _next_windows(gateway) -> dict:
    return {name: q.next_window for name, q in gateway._queries.items()}


def _late_run(directory, faults=None, on_late=None):
    """``SQLS`` from the start and ``LATE_SQL`` (as ``late``) from the
    7th step, checkpointed every 2nd pulse until the end or a simulated
    crash.  ``on_late(late)`` runs right after the late registration.
    Returns ``(manager, snapshots by name or None, crashed)``."""
    gateway = GatewayServer(build_engine(rows=ROWS))
    for i, sql in enumerate(SQLS):
        gateway.register(sql, name=f"q{i}")
    manager = _Cuts(gateway, directory, interval=2, faults=faults)
    steps = 0
    try:
        while True:
            if steps == 6:
                late = gateway.register(LATE_SQL, name="late")
                if on_late is not None:
                    on_late(late)
            if not gateway.step():
                break
            steps += 1
    except SimulatedCrash:
        return manager, None, True
    return manager, {n: snapshot(q) for n, q in gateway._queries.items()}, False


def _recover_cut(directory, cut, base):
    """Recover ``directory``, check it resumes at ``cut``, run it to the
    end and check every recovered query against ``base``."""
    recovered = recover(directory, build_engine(rows=ROWS))
    assert recovered is not None
    assert _next_windows(recovered) == cut
    while recovered.step():
        pass
    for name in cut:
        assert snapshot(recovered.query(name)) == base[name]
    return recovered


class TestOneLog:
    """An epoch is one frame in one log, written in one write; a crash
    anywhere in it recovers the newest complete epoch."""

    @pytest.fixture
    def base(self, tmp_path):
        manager, out, crashed = _late_run(tmp_path / "base")
        assert not crashed and "late" in manager.cuts[manager.epoch]
        return out

    def test_torn_epoch_frame(self, tmp_path, base):
        manager, out, _ = _late_run(tmp_path / "run")
        assert out == base
        path = tmp_path / "run" / GATEWAY_LOG
        newest = CheckpointLog(path).frames()[0][-1]
        assert (newest.kind, newest.epoch) == (KIND_GATEWAY, manager.epoch)
        tear_file(path, newest.offset + 40)
        _recover_cut(tmp_path / "run", manager.cuts[manager.epoch - 1], base)
        assert path.stat().st_size == newest.offset

    def test_torn_plan_frame(self, tmp_path, base):
        faults = FaultInjector()

        def tear_next_write(_late):
            faults.tear_write = (faults.writes + 1, 40)

        manager, _, crashed = _late_run(tmp_path, faults, tear_next_write)
        assert crashed and "late" not in manager.cuts[manager.epoch]
        _recover_cut(tmp_path, manager.cuts[manager.epoch], base)
        kinds = [f.kind for f in CheckpointLog(tmp_path / GATEWAY_LOG).frames()[0]]
        assert kinds[-1] == KIND_GATEWAY

    def test_crash_between_plan_frame_and_epoch_frame(self, tmp_path, base):
        faults = FaultInjector()

        def tear_after_the_plan(late):
            plan_frame = frame(
                KIND_PLAN, 0, pickle.dumps(late.plan, pickle.HIGHEST_PROTOCOL)
            )
            faults.tear_write = (faults.writes + 1, len(plan_frame))

        manager, _, crashed = _late_run(tmp_path, faults, tear_after_the_plan)
        assert crashed
        path = tmp_path / GATEWAY_LOG
        orphan = CheckpointLog(path).frames()[0][-1]
        assert (orphan.kind, orphan.epoch) == (KIND_PLAN, manager.epoch + 1)
        recovered = recover(tmp_path, build_engine(rows=ROWS))
        assert _next_windows(recovered) == manager.cuts[manager.epoch]
        # the orphan plan frame stays; numbering continues past it, and
        # a later epoch written after it recovers
        resumed = _Cuts(recovered, tmp_path, interval=2)
        assert resumed.epoch == manager.epoch + 1
        while recovered.step():
            pass
        for name, q in recovered._queries.items():
            assert snapshot(q) == base[name]
        assert resumed.epoch > manager.epoch + 1
        again = recover(tmp_path, build_engine(rows=ROWS))
        assert _next_windows(again) == resumed.cuts[resumed.epoch]

    def test_trailing_garbage_tail(self, tmp_path, base):
        manager, _, _ = _late_run(tmp_path)
        path = tmp_path / GATEWAY_LOG
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"RCKP" + bytes(range(40)))
        _recover_cut(tmp_path, manager.cuts[manager.epoch], base)
        assert path.stat().st_size == size

    def test_parent_layout_still_recovers(self, tmp_path):
        """A directory in the layout with one log per scope — scope
        records in ``engine-*.log``, catalogs listing ``scope_files`` in
        ``gateway.log``, a ``HEAD`` — recovers its newest epoch intact
        across every file, and new epochs append to its log."""
        base = _oracle(SQLS, 2, {"rows": ROWS})
        gateway = GatewayServer(build_engine(rows=ROWS, shards=2))
        for i, sql in enumerate(SQLS):
            gateway.register(sql, name=f"q{i}", shards=2)

        def parent_epoch(epoch, scopes_written):
            snap = snapshot_gateway(gateway)
            scope_files = []
            for scope, record in list(snap["scopes"].items()):
                n, key, shard = scope
                name = re.sub(r"[^A-Za-z0-9_.-]", "_", str(key))
                filename = f"engine-{n}-{name}-{shard}.log"
                if len(scope_files) < scopes_written:
                    CheckpointLog(tmp_path / filename).append(
                        KIND_SCOPE, epoch, pickle.dumps(record)
                    )
                scope_files.append([filename, list(scope)])
            catalog = {
                "queries": snap["queries"],
                "mqo": snap["mqo"],
                "scope_files": scope_files,
            }
            CheckpointLog(tmp_path / GATEWAY_LOG).append(
                KIND_GATEWAY, epoch, pickle.dumps(catalog)
            )
            (tmp_path / "HEAD").write_text(json.dumps({"epoch": epoch}))
            return len(scope_files)

        for _ in range(5):
            gateway.step()
        assert parent_epoch(1, scopes_written=99) >= 2
        cut = _next_windows(gateway)
        for _ in range(3):
            gateway.step()
        # a crash after the first scope record of epoch 2, before the rest
        parent_epoch(2, scopes_written=1)

        recovered = recover(tmp_path, build_engine(rows=ROWS, shards=2))
        assert recovered is not None and _next_windows(recovered) == cut
        resumed = CheckpointManager(recovered, tmp_path, interval=10_000)
        assert resumed.epoch == 2
        for _ in range(4):
            recovered.step()
        assert resumed.checkpoint() == 3
        cut = _next_windows(recovered)
        while recovered.step():
            pass
        assert [snapshot(recovered.query(f"q{i}")) for i in range(3)] == base
        again = recover(tmp_path, build_engine(rows=ROWS, shards=2))
        assert _next_windows(again) == cut


class TestOneWritePerEpoch:
    def test_one_fsync_per_epoch_and_one_pickle_per_plan(
        self, tmp_path, monkeypatch
    ):
        """N epochs over a fixed query set: N fsyncs, each plan pickled
        once, no plan inside an epoch frame; a manager built after
        recovery continues the epoch numbers."""
        gateway = GatewayServer(build_engine(rows=ROWS))
        queries = [
            gateway.register(sql, name=f"q{i}") for i, sql in enumerate(SQLS)
        ]
        fsyncs = []
        pickled = Counter()
        fsync, dumps = os.fsync, pickle.dumps

        def counting_fsync(fd):
            fsyncs.append(fd)
            return fsync(fd)

        def counting_dumps(value, *args, **kwargs):
            if isinstance(value, ContinuousPlan):
                pickled[id(value)] += 1
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        manager = CheckpointManager(gateway, tmp_path, interval=3)
        for _ in range(12):
            gateway.step()
        assert manager.epoch >= 4
        assert len(fsyncs) == manager.epoch
        assert pickled == {id(q.plan): 1 for q in queries}

        log = CheckpointLog(tmp_path / GATEWAY_LOG)
        frames = log.frames()[0]
        classes = set()

        class Classes(pickle.Unpickler):
            def find_class(self, module, name):
                classes.add(name)
                return super().find_class(module, name)

        for found in frames:
            if found.kind == KIND_GATEWAY:
                Classes(io.BytesIO(log.read(found))).load()
        assert "ContinuousPlan" not in classes

        last = manager.epoch
        manager.close()
        recovered = recover(tmp_path, build_engine(rows=ROWS))
        fsyncs.clear()
        pickled.clear()
        resumed = CheckpointManager(recovered, tmp_path, interval=3)
        assert resumed.epoch == last
        for _ in range(6):
            recovered.step()
        assert resumed.epoch > last
        assert len(fsyncs) == resumed.epoch - last
        assert pickled == {id(q.plan): 1 for q in recovered._queries.values()}
        epochs = [
            f.epoch for f in log.frames()[0] if f.kind == KIND_GATEWAY
        ]
        assert epochs == list(range(1, resumed.epoch + 1))


class TestTransientIO:
    def test_transient_errors_are_retried(self, tmp_path):
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, 1, engine_kwargs)
        out, crashed = run_checkpointed(
            SQLS,
            tmp_path,
            interval=1,
            faults=FaultInjector(transient_io_errors=2),
            base_delay=0.0,
            engine_kwargs=engine_kwargs,
        )
        assert not crashed and out == base
        got, recovered = recover_and_finish(
            SQLS, tmp_path, engine_kwargs=engine_kwargs
        )
        assert recovered and got == base

    def test_exhausted_retries_surface_the_error(self, tmp_path):
        with pytest.raises(OSError):
            run_checkpointed(
                SQLS[:1],
                tmp_path,
                interval=1,
                faults=FaultInjector(transient_io_errors=50),
                max_retries=1,
                base_delay=0.0,
                engine_kwargs={"rows": ROWS},
            )

    def test_retry_knobs_are_validated(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointLog(tmp_path / "x.log", max_retries=-1)
        with pytest.raises(ValueError):
            CheckpointLog(tmp_path / "x.log", max_retries=2.5)
        with pytest.raises(ValueError):
            CheckpointLog(tmp_path / "x.log", base_delay=-0.1)
        with pytest.raises(ValueError):
            CheckpointLog(tmp_path / "x.log", base_delay=0.5, max_delay=0.1)
        gateway = GatewayServer(build_engine(rows=ROWS))
        with pytest.raises(ValueError):
            CheckpointManager(gateway, tmp_path, interval=0)
        with pytest.raises(ValueError):
            CheckpointManager(gateway, tmp_path, interval=True)
        with pytest.raises(ValueError):
            CheckpointManager(gateway, tmp_path, max_retries=-2)
        assert gateway.checkpointer is None  # failed managers never attach


class TestCheckpointAudit:
    def test_verify_gateway_covers_checkpointer(self, tmp_path):
        engine = build_engine(rows=ROWS)
        gateway = GatewayServer(engine)
        for i, sql in enumerate(SQLS):
            gateway.register(sql, name=f"q{i}")
        manager = CheckpointManager(gateway, tmp_path, interval=4)
        for _ in range(10):
            gateway.step()
        verify_gateway(gateway)  # live checkpointer: no violations
        assert manager.audit_violations() == []
        # A log epoch from the future is a bookkeeping violation.
        manager.epoch -= 1
        assert manager.audit_violations()

    def test_audit_mode_run_and_recovery(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        engine_kwargs = {"rows": ROWS}
        base = _oracle(SQLS, 1, engine_kwargs)
        out, crashed = run_checkpointed(
            SQLS,
            tmp_path,
            interval=2,
            faults=FaultInjector(crash_after_pulses=9),
            engine_kwargs=engine_kwargs,
        )
        assert crashed
        got, recovered = recover_and_finish(
            SQLS, tmp_path, engine_kwargs=engine_kwargs
        )
        assert recovered and got == base


class TestMigration:
    SQL = (
        "SELECT w.sid AS s, AVG(w.val) AS a FROM"
        " timeSlidingWindow(S, 20, 5) AS w GROUP BY w.sid"
    )

    def test_migrate_query_mid_stream(self):
        base = _oracle([self.SQL], 1, {"rows": ROWS})[0]
        source = GatewayServer(build_engine(rows=ROWS))
        source.register(self.SQL, name="q0")
        for _ in range(7):
            source.step()
        target = GatewayServer(build_engine(rows=ROWS))
        handle = migrate_query(source, "q0", target)
        assert "q0" not in source._queries
        verify_gateway(source)
        while target.step():
            pass
        assert snapshot(handle) == base
        verify_gateway(target)

    def test_migrated_follower_rebuilds_what_it_reads(self):
        """A query behind its shared reader's frontier migrates with the
        positions to rebuild the windows it still reads: it delivers an
        unmigrated run's windows, and the payload holds no stream tuple."""
        base = _oracle([self.SQL], 1, {"rows": ROWS})[0]
        source = GatewayServer(build_engine(rows=ROWS))
        source.register(self.SQL, name="lead")
        follower = source.register(self.SQL, name="q0")
        for _ in range(3):
            source.step()
        follower.pause()
        for _ in range(4):
            source.step()
        target = GatewayServer(build_engine(rows=ROWS))
        payloads = []
        dumps = pickle.dumps

        def recording(value, protocol=None):
            payloads.append(dumps(value, protocol))
            return payloads[-1]

        with mock.patch.object(migration_module.pickle, "dumps", recording):
            handle = migrate_query(source, "q0", target)
        handle.resume()
        while target.step():
            pass
        assert snapshot(handle) == base
        assert len(payloads) == 1
        assert _stream_tuples_in(pickle.loads(payloads[0]), set(ROWS)) == []

    def test_migrate_refuses_clashes_and_sharded(self):
        source = GatewayServer(build_engine(rows=ROWS))
        source.register(self.SQL, name="q0")
        target = GatewayServer(build_engine(rows=ROWS))
        target.register(self.SQL, name="q0")
        with pytest.raises(RecoveryError):
            migrate_query(source, "q0", target)
        sharded_source = GatewayServer(build_engine(rows=ROWS, shards=2))
        sharded_source.register(self.SQL, name="q1", shards=2)
        with pytest.raises(RecoveryError):
            migrate_query(
                sharded_source, "q1", GatewayServer(build_engine(rows=ROWS))
            )

    def test_fork_parallel_runtimes_refuse_checkpointing(self, tmp_path):
        engine = build_engine(rows=ROWS, shards=2, parallel="fork")
        gateway = GatewayServer(engine)
        registered = gateway.register(self.SQL, name="q0", shards=2)
        if registered.runtime.parallel != "fork":
            pytest.skip("fork is unavailable on this platform")
        manager = CheckpointManager(gateway, tmp_path, interval=1000)
        try:
            gateway.step()
            with pytest.raises(RecoveryError):
                manager.checkpoint()
        finally:
            gateway.deregister("q0")


class TestRebalanceHandoff:
    def _loaded_scheduler(self):
        scheduler = Scheduler(2)
        scheduler.assign_shards("hot", 4)
        # Skew shard 0: its worker now dominates the cluster load.
        scheduler.observe_shard("hot", 0, seconds=0.006)
        return scheduler

    def test_rebalance_invokes_migration_callback(self):
        scheduler = self._loaded_scheduler()
        calls = []
        moves = scheduler.rebalance(on_move=lambda *args: calls.append(args))
        assert moves and calls == moves

    def test_failed_handoff_reverts_the_move(self):
        scheduler = self._loaded_scheduler()
        loads = list(scheduler.loads)
        assignments = scheduler.shard_assignments("hot")

        def explode(*_args):
            raise RuntimeError("handoff failed")

        with pytest.raises(RuntimeError):
            scheduler.rebalance(on_move=explode)
        assert scheduler.loads == loads
        assert scheduler.shard_assignments("hot") == assignments

    def test_rebalance_state_handoff_between_gateways(self):
        """The full story: the scheduler decides, migrate_query moves the
        hot query's live state to the destination gateway, no recompute."""
        sql = TestMigration.SQL
        base = _oracle([sql], 1, {"rows": ROWS})[0]
        gateways = {
            0: GatewayServer(build_engine(rows=ROWS)),
            1: GatewayServer(build_engine(rows=ROWS)),
        }
        gateways[0].register(sql, name="hot")
        for _ in range(5):
            gateways[0].step()
        scheduler = self._loaded_scheduler()
        migrated = []

        def handoff(query, _operator, source, target):
            if query not in gateways[source]._queries:
                return  # only the first move of a query carries state
            migrated.append(
                migrate_query(gateways[source], query, gateways[target])
            )

        scheduler.rebalance(on_move=handoff)
        assert migrated
        while gateways[1].step():
            pass
        assert snapshot(migrated[0]) == base
