"""The four workloads: inputs from a seed, one timed pass each.

Each workload drives the system only through its stable facade
(``repro.siemens.deploy``, ``Session.prepare/submit/step/close``,
``AsyncSession.serve``, ``QueryHandle.subscribe/stream``,
``GatewayServer.register(sql_text)``, ``CheckpointManager``,
``recover``, ``gateway.metrics_snapshot()``) and passes no execution
knob.  It is a closed loop with one driver thread: the engine pulls
from replayable sources and has no arrival clock, so the honest form of
throughput is work per second at a stated input size.

``--seed`` is the only source of randomness: it sets
``FleetConfig.seed``, the streamed-sensor sample, the ``pane_hot`` rows
and the churn thresholds; the system receives only generated inputs.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import re
import shutil
import statistics
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from collections.abc import Callable

import numpy as np

from repro.exastream import GatewayServer, StreamEngine, durability
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.streams import ListSource, Stream, StreamSchema

from . import oracle as oracle_mod
from .oracle import Oracle, close_databases
from .spec import Sizes
from .trace import NullTracer

__all__ = ["PassResult", "WORKLOAD_CLASSES", "make_workload"]

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class PassResult:
    """Raw measurements of one pass; the runner turns them into metrics."""

    setup_s: list[float]  # one sample (a list so the runner can pool)
    register_ms: list[float] = field(default_factory=list)
    register_failed: int = 0
    register_wall_s: float = 0.0  # all time spent in registration calls
    window_ms: list[float] = field(default_factory=list)
    execute_wall_s: float = 0.0
    #: (source tuples offered, wall) per drained run inside the pass:
    #: one for most workloads, one per session for register_churn
    segments: list[tuple[int, float]] = field(default_factory=list)
    #: delivered stream id -> (oracle label, results in delivery order)
    streams: dict[str, tuple[str, list]] = field(default_factory=dict)
    #: ops-only end-to-end values (recovery_ms, checkpoint_bytes_per_epoch)
    extra: dict[str, float] = field(default_factory=dict)
    #: counts/ratios read from the public read surface at pass end
    counts: dict[str, float] = field(default_factory=dict)
    #: violated workload premises, as sentences (empty = all hold)
    premises: list[str] = field(default_factory=list)


class Deliveries:
    """Per-window service time, measured where results are delivered.

    The gap between consecutive deliveries; the first delivery of a
    round is measured from the moment the round's ``step`` was called
    (``mark`` is reset by the driver loop).  Results are only appended
    here — digests are computed after the timed region.
    """

    def __init__(self) -> None:
        self.mark = 0.0
        self.last = 0.0
        self.gaps: list[float] = []

    def subscriber(self, results: list) -> Callable:
        def on_result(result) -> None:
            now = perf_counter()
            self.gaps.append(now - self.mark)
            self.mark = self.last = now
            results.append(result)
        return on_result


def _registry_counts(snapshot) -> dict[str, float]:
    """Raw layer counts from ``gateway.metrics_snapshot()`` (summable)."""
    total = snapshot.total
    hits = total("mqo_relation_hits_total") + total("mqo_partial_hits_total")
    deliver = 0.0
    for labels in snapshot.labels_for("bus_delivery_seconds"):
        deliver += snapshot.histogram(
            "bus_delivery_seconds", **dict(labels)
        ).sum
    return {
        "registry.windows": total("query_windows_total"),
        "registry.pane_served_windows": (
            total("query_windows_incremental_total")
            + total("query_windows_pane_join_total")
        ),
        "registry.mqo_hits": hits,
        "registry.mqo_lookups": (
            hits + total("mqo_relation_misses_total")
            + total("mqo_partial_misses_total")
        ),
        "engine.tuples_in": total("query_tuples_in_total"),
        "engine.tuples_out": total("query_tuples_out_total"),
        "engine.panes_built": total("query_panes_built_total"),
        "mqo.pipelines": total("mqo_pipelines_created_total"),
        "bus.deliveries": total("bus_fanout_deliveries_total"),
        "bus.dropped": total("bus_results_dropped_total"),
        "bus.backpressure_deferrals": total("bus_backpressure_deferrals_total"),
        "gateway.deliver.busy_s": deliver,
    }


def _cache_counts(engine) -> dict[str, float]:
    caches = getattr(engine, "caches", None) or [engine.cache]
    hits = sum(c.stats.hits for c in caches)
    misses = sum(c.stats.misses for c in caches)
    pane_hits = sum(c.stats.pane_hits for c in caches)
    pane_misses = sum(c.stats.pane_misses for c in caches)
    return {
        "wcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "wcache.pane_hit_ratio": (
            pane_hits / (pane_hits + pane_misses)
            if pane_hits + pane_misses else 0.0
        ),
    }


def _translator_counts(translator) -> dict[str, float]:
    hits, misses = translator.cache_hits, translator.cache_misses
    return {
        "translator.hits": hits,
        "translator.misses": misses,
        "starql.translate.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
    }


def _offered(timestamps: list[float], results_by_stream) -> int:
    """Source tuples with ts <= the last delivered window end."""
    ends = [rs[-1].window_end for _, rs in results_by_stream if rs]
    return bisect.bisect_right(timestamps, max(ends)) if ends else 0


# -- the Siemens deployment shared by three workloads ------------------------

_QUANTITIES = (
    "temperature", "pressure", "vibration", "rotational_speed", "flow", "power",
)


def sample_sensors(fleet, seed: int, per_turbine: int) -> list[str]:
    """A seeded sample with the same *shape* on every seed.

    ``per_turbine`` sensors from every turbine, so the per-turbine pair
    count that drives task 5 (Pearson over sensor pairs of one turbine)
    does not depend on the seed: the first correlated pairs where they
    live, and on every other turbine one ramp sensor plus one seeded
    pick per remaining quantity (temperature picks are main sensors, so
    the ``isMainSensorOf`` tasks have work).
    """
    rng = random.Random(seed)
    rows = fleet.plant_db.query(
        "SELECT s.sid, s.quantity, s.is_main, a.tid FROM sensors AS s, "
        "assemblies AS a WHERE s.aid = a.aid ORDER BY s.sid"
    )
    special = set(fleet.ramp_sensors) | {s for p in fleet.correlated for s in p}
    turbine_of, quantity_of = {}, {}
    #: (turbine, quantity) -> plain candidates; temperature ones are mains
    pools: dict[tuple[str, str], list[str]] = {}
    for sid, quantity, is_main, tid in rows:
        turbine_of[sid], quantity_of[sid] = tid, quantity
        if sid not in special and (is_main or quantity != "temperature"):
            pools.setdefault((tid, quantity), []).append(sid)
    chosen: dict[str, list[str]] = {tid: [] for tid in fleet.turbine_ids}
    for pair in fleet.correlated[: per_turbine // 2]:
        for sid in pair:
            chosen[turbine_of[sid]].append(sid)
    for tid in fleet.turbine_ids:
        have = chosen[tid]
        if not have:
            ramps = [s for s in fleet.ramp_sensors if turbine_of[s] == tid]
            if ramps:
                have.append(rng.choice(ramps))
        covered = {quantity_of[s] for s in have}
        for quantity in _QUANTITIES:
            if len(have) >= per_turbine:
                break
            if quantity not in covered and (tid, quantity) in pools:
                have.append(rng.choice(pools[tid, quantity]))
    return [sid for tid in fleet.turbine_ids for sid in chosen[tid]]


class _Workload:
    """What the runner needs of a workload besides ``run_pass``."""

    #: the pass is long and pools its own samples: time exactly one
    single_pass = False
    #: the oracle's window count, set by the runner before the first pass
    expected_windows = 0

    def warm_up(self) -> None:
        """One discarded pass (when no reference run warmed the process)."""
        self.run_pass(NullTracer())


def _catalog_tasks() -> list[tuple[str, str]]:
    """``(label, STARQL text)`` for the 20 diagnostic tasks."""
    return [(f"t{task.task_id:02d}", task.starql) for task in diagnostic_catalog()]


def _stream_timestamps(dep) -> list[float]:
    return [row[0] for row in dep.engine.stream("S_Msmt")]


class _SiemensBase(_Workload):
    """Fleet + stream + the 20 tasks; subclasses choose how to run them."""

    #: per-query window cap (``None`` = drain the stream)
    max_windows: int | None = None

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tasks = _catalog_tasks()

    def _shape(self) -> tuple[int, int]:
        """``(turbines, stream seconds)`` of this workload's deployment."""
        return self.sizes.turbines, self.sizes.stream_seconds

    def build(self, **deploy_kwargs):
        """Data generation + ``deploy()``: everything ``setup_s`` covers."""
        turbines, stream_seconds = self._shape()
        fleet = generate_fleet(
            FleetConfig(turbines=turbines, plants=self.sizes.plants, seed=self.seed)
        )
        sensors = sample_sensors(fleet, self.seed, self.sizes.sensors_per_turbine)
        return deploy(
            fleet=fleet,
            stream_sensors=sensors,
            stream_duration=stream_seconds,
            **deploy_kwargs,
        )

    def reference(self) -> Oracle:
        return oracle_mod.siemens_reference(
            self.build, self.tasks, self.max_windows
        )

    def sample_setup(self) -> float:
        """One more ``setup_s`` sample: build a deployment, drop it."""
        started = perf_counter()
        dep = self.build()
        elapsed = perf_counter() - started
        close_databases(dep)
        return elapsed

    def _register(self, session, tracer, result, sink, tasks, prefix="",
                  **submit_kwargs):
        """Text -> REGISTERED handle per task, timed one by one."""
        for label, text in tasks:
            name = prefix + label
            with tracer.request(f"reg:{name}"):
                started = perf_counter()
                try:
                    handle = session.submit(
                        session.prepare(text), name=name, **submit_kwargs
                    )
                except Exception as exc:  # counted, reported, run continues
                    result.register_failed += 1
                    result.premises.append(f"registering {name} raised {exc!r}")
                    continue
                elapsed = perf_counter() - started
                result.register_ms.append(elapsed * 1e3)
                result.register_wall_s += elapsed
            sink(name, label, handle)


class SiemensCatalog(_SiemensBase):
    name = "siemens_catalog"

    def run_pass(self, tracer) -> PassResult:
        started = perf_counter()
        dep = self.build()
        session = dep.session(sink_capacity=8)
        result = PassResult(setup_s=[perf_counter() - started])
        deliveries = Deliveries()

        def sink(name, label, handle):
            results: list = []
            result.streams[name] = (label, results)
            handle.subscribe(deliveries.subscriber(results))

        try:
            with tracer.phase("register"):
                self._register(session, tracer, result, sink, self.tasks)
            with tracer.phase("execute"):
                first_pulse = perf_counter()
                while True:
                    deliveries.mark = perf_counter()
                    if not session.step(1):
                        break
            result.execute_wall_s = deliveries.last - first_pulse
            result.window_ms = [gap * 1e3 for gap in deliveries.gaps]
            result.segments.append((
                _offered(_stream_timestamps(dep), result.streams.values()),
                result.execute_wall_s,
            ))
            counts = result.counts
            counts.update(_registry_counts(dep.gateway.metrics_snapshot()))
            counts.update(_cache_counts(dep.engine))
            counts.update(_translator_counts(dep.translator))
            pane = counts["registry.pane_served_windows"]
            if not 0 < pane < counts["registry.windows"]:
                result.premises.append(
                    "siemens_catalog must run both tiers: "
                    f"{pane:.0f} of {counts['registry.windows']:.0f} windows "
                    "were pane-served"
                )
            with tracer.phase("teardown"):
                session.close()
        finally:
            close_databases(dep)
        return result


# -- pane_hot ----------------------------------------------------------------

_PANE_SCHEMA = StreamSchema(
    (
        Column("ts", SQLType.REAL),
        Column("sid", SQLType.INTEGER),
        Column("val", SQLType.REAL),
    ),
    time_column="ts",
)
_STATIC_ROWS = 100


@dataclass(frozen=True)
class PaneQuery:
    """One SQL(+) aggregate and what the numpy reference needs of it."""

    name: str
    sql: str
    range: int
    slide: int
    columns: tuple[str, ...]
    static_filter: Callable  # static row -> bool
    stream_filter: Callable  # value array -> bool mask
    aggregate: Callable  # 1-D array of one group's values -> row tail


PANE_QUERIES = (
    # overlap 16: AVG(expr) + COUNT + MAX, static join + filter
    PaneQuery(
        "q16",
        "SELECT w.sid AS s, AVG(w.val * 0.25 + 32) AS scaled, COUNT(*) AS n, "
        "MAX(w.val) AS peak "
        "FROM timeSlidingWindow(S, 80, 5) AS w, sensors AS t "
        "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51 "
        "GROUP BY w.sid",
        80, 5, ("s", "scaled", "n", "peak"),
        lambda row: row[1] == "temp",
        lambda values: values > 51,
        lambda v: (
            float((v * 0.25 + 32).sum()) / len(v), len(v), float(v.max())
        ),
    ),
    # overlap 4: MIN + SUM, a different static and stream filter
    PaneQuery(
        "q4",
        "SELECT w.sid AS s, MIN(w.val) AS low, SUM(w.val) AS total "
        "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
        "WHERE w.sid = t.sid AND t.zone = 1 AND w.val < 53 "
        "GROUP BY w.sid",
        20, 5, ("s", "low", "total"),
        lambda row: row[2] == 1,
        lambda values: values < 53,
        lambda v: (float(v.min()), float(v.sum())),
    ),
)


@dataclass
class PaneInputs:
    hz: int
    values: np.ndarray  # (ticks, sensors), multiples of 1/16
    static_rows: list[tuple]  # (sid, kind, zone), sid == index
    queries: tuple[PaneQuery, ...] = PANE_QUERIES


class PaneHot(_Workload):
    name = "pane_hot"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def inputs(self) -> PaneInputs:
        """Seeded rows over a *balanced* sensor design.

        The streamed sensors are the 60 combinations of kind slot (3:
        temp, temp, pres) x zone (4) x baseline level (5), assigned to
        sensor ids by a seeded permutation, so both queries' static and
        stream filters pass the same share of tuples on every seed and
        only the noise and the assignment differ.  Values are quantised
        to 1/16 so the reference can demand byte-equal sums.
        """
        sizes = self.sizes
        rng = np.random.default_rng(self.seed)
        ticks = sizes.pane_seconds * sizes.pane_hz
        design = [
            (kind, zone, 46.0 + 2.5 * level + (4 * kind + zone) / 16.0)
            for kind in range(3) for zone in range(4) for level in range(5)
        ]
        cells = [design[i % len(design)] for i in range(_STATIC_ROWS)]
        streamed = rng.permutation(sizes.pane_sensors)
        order = [*streamed, *range(sizes.pane_sensors, _STATIC_ROWS)]
        static_rows, base = [], np.empty(sizes.pane_sensors)
        for sid, cell in sorted(zip(order, cells)):
            kind, zone, level = cell
            static_rows.append((int(sid), "temp" if kind < 2 else "pres", zone))
            if sid < sizes.pane_sensors:
                base[sid] = level
        noise = rng.integers(-64, 65, size=(ticks, sizes.pane_sensors)) / 16.0
        return PaneInputs(sizes.pane_hz, base[None, :] + noise, static_rows)

    def reference(self) -> Oracle:
        return oracle_mod.pane_reference(self.inputs())

    def sample_setup(self) -> float:
        started = perf_counter()
        gateway, _ = self._gateway()
        elapsed = perf_counter() - started
        gateway.engine.database("meta").close()
        return elapsed

    def _gateway(self) -> tuple[GatewayServer, list[float]]:
        inputs = self.inputs()
        ticks, sensors = inputs.values.shape
        timestamps = np.repeat(np.arange(ticks) / float(inputs.hz), sensors).tolist()
        rows = list(
            zip(
                timestamps,
                np.tile(np.arange(sensors), ticks).tolist(),
                inputs.values.ravel().tolist(),
            )
        )
        engine = StreamEngine()
        engine.register_stream(ListSource(Stream("S", _PANE_SCHEMA), rows))
        database = Database(
            Schema(
                "meta",
                {
                    "sensors": Table(
                        "sensors",
                        [
                            Column("sid", SQLType.INTEGER),
                            Column("kind", SQLType.TEXT),
                            Column("zone", SQLType.INTEGER),
                        ],
                    )
                },
            )
        )
        database.insert("sensors", inputs.static_rows)
        engine.attach_database("meta", database)
        return GatewayServer(engine), timestamps

    #: a registration here takes ~5 ms, too short to time once: each
    #: text is registered this many times (deregistered in between)
    #: and its latency is the median
    REGISTRATIONS = 5

    def _register(self, gateway, tracer, result, query):
        """Text -> registered query; books the median latency."""
        samples = []
        registered = None
        for attempt in range(self.REGISTRATIONS):
            if registered is not None:
                gateway.deregister(query.name)
            with tracer.request(f"reg:{query.name}#{attempt}"):
                began = perf_counter()
                try:
                    registered = gateway.register(
                        query.sql, name=query.name, sink_capacity=8
                    )
                except Exception as exc:
                    result.register_failed += 1
                    result.premises.append(
                        f"registering {query.name} raised {exc!r}"
                    )
                    return None
                samples.append((perf_counter() - began) * 1e3)
        result.register_ms.append(statistics.median(samples))
        result.register_wall_s += sum(samples) / 1e3
        return registered

    def run_pass(self, tracer) -> PassResult:
        started = perf_counter()
        gateway, timestamps = self._gateway()
        result = PassResult(setup_s=[perf_counter() - started])
        deliveries = Deliveries()
        try:
            with tracer.phase("register"):
                for query in PANE_QUERIES:
                    registered = self._register(gateway, tracer, result, query)
                    if registered is None:
                        continue
                    results: list = []
                    result.streams[query.name] = (query.name, results)
                    registered.subscribe(deliveries.subscriber(results))
                    mode = registered.plan.incremental.mode.value
                    if mode != "pane_incremental":
                        result.premises.append(
                            f"pane_hot plan {query.name} reports {mode}"
                        )
            with tracer.phase("execute"):
                first_pulse = perf_counter()
                while True:
                    deliveries.mark = perf_counter()
                    if not gateway.step(1):
                        break
            result.execute_wall_s = deliveries.last - first_pulse
            result.window_ms = [gap * 1e3 for gap in deliveries.gaps]
            result.segments.append((
                _offered(timestamps, result.streams.values()),
                result.execute_wall_s,
            ))
            counts = result.counts
            counts.update(_registry_counts(gateway.metrics_snapshot()))
            counts.update(_cache_counts(gateway.engine))
            recompute = (
                counts["registry.windows"] - counts["registry.pane_served_windows"]
            )
            if recompute:
                result.premises.append(
                    f"pane_hot ran {recompute:.0f} recompute windows"
                )
            with tracer.phase("teardown"):
                for query in PANE_QUERIES:
                    if query.name in gateway:
                        gateway.deregister(query.name)
        finally:
            gateway.engine.database("meta").close()
        return result


# -- register_churn ----------------------------------------------------------

_THRESHOLD = re.compile(r"([<>]=?\s*)(\d+(?:\.\d+)?)(\s*)$")
_OUT_STREAM = re.compile(r"(CREATE STREAM \w+)")


def churn_variant(text: str, shift: int) -> str:
    """A per-session text variant: a translation-cache miss, same answers.

    Every numeric HAVING threshold moves up by ``shift * 1e-12``.  The
    stream values carry four decimals, so no aggregate over them can
    land in a gap that narrow and the variant's windows equal the base
    task's — which the oracle asserts rather than assumes.  Tasks whose
    HAVING is a bare macro get their output stream renamed instead.
    """
    def bump(match: re.Match) -> str:
        value = float(match.group(2)) + shift * 1e-12
        return f"{match.group(1)}{value:.12f}{match.group(3)}"

    lines = text.split("\n")
    changed = 0
    for index, line in enumerate(lines):
        if line.startswith("HAVING"):
            parts = re.split(r"(\s+(?:AND|OR)\s+)", line)
            for position in range(0, len(parts), 2):
                parts[position], n = _THRESHOLD.subn(bump, parts[position])
                changed += n
            lines[index] = "".join(parts)
    if not changed:
        return _OUT_STREAM.sub(rf"\1_v{shift}", text, count=1)
    return "\n".join(lines)


class RegisterChurn(_SiemensBase):
    name = "register_churn"
    max_windows = 2
    single_pass = True  # 1 040 registrations, pooled: no outer repeats

    def _shape(self) -> tuple[int, int]:
        return self.sizes.churn_turbines, self.sizes.churn_stream_seconds

    def warm_up(self) -> None:
        """Two sessions (one hit-path, one miss-path), not all of them."""
        full = self.sizes
        self.sizes = replace(full, churn_sessions=2)
        try:
            self.run_pass(NullTracer())
        finally:
            self.sizes = full

    def run_pass(self, tracer) -> PassResult:
        sizes = self.sizes
        started = perf_counter()
        dep = self.build()
        result = PassResult(setup_s=[perf_counter() - started])
        deliveries = Deliveries()
        timestamps = _stream_timestamps(dep)
        rng = random.Random(self.seed)
        shifts = rng.sample(range(1, 10_000), sizes.churn_sessions)
        live: deque = deque()
        even_sessions = 0
        try:
            for index in range(sizes.churn_sessions):
                if len(live) == sizes.churn_live:
                    with tracer.phase("teardown"):
                        live.popleft().close()
                session = dep.session(sink_capacity=8)
                live.append(session)
                if index % 2 == 0:
                    tasks = self.tasks
                    even_sessions += 1
                else:
                    tasks = [
                        (label, churn_variant(text, shifts[index]))
                        for label, text in self.tasks
                    ]
                opened: list[tuple[str, list]] = []

                def sink(name, label, handle, opened=opened):
                    results: list = []
                    result.streams[name] = (label, results)
                    opened.append((label, results))
                    handle.subscribe(deliveries.subscriber(results))

                with tracer.phase("register"):
                    self._register(
                        session, tracer, result, sink, tasks,
                        prefix=f"s{index:02d}.", max_windows=self.max_windows,
                    )
                session_wall = 0.0
                with tracer.phase("execute"):
                    for _ in range(self.max_windows):
                        round_start = deliveries.mark = perf_counter()
                        if session.step(1):
                            session_wall += deliveries.last - round_start
                result.execute_wall_s += session_wall
                result.segments.append((_offered(timestamps, opened), session_wall))
            translator = _translator_counts(dep.translator)
            with tracer.phase("teardown"):
                while live:
                    live.popleft().close()
            result.window_ms = [gap * 1e3 for gap in deliveries.gaps]
            counts = result.counts
            counts.update(_registry_counts(dep.gateway.metrics_snapshot()))
            counts.update(_cache_counts(dep.engine))
            counts.update(translator)
            expected_hits = (even_sessions - 1) * len(self.tasks)
            if translator["translator.hits"] != expected_hits:
                result.premises.append(
                    "register_churn expects every even session after the "
                    f"first to hit the translation cache ({expected_hits} "
                    f"hits), saw {translator['translator.hits']}"
                )
            leaked = len(dep.gateway.queries), dep.gateway.shared_reader_count
            if leaked != (0, 0):
                result.premises.append(
                    "register_churn leaked after the last close: "
                    f"{leaked[0]} live queries, {leaked[1]} shared readers"
                )
        finally:
            close_databases(dep)
        return result


# -- siemens_ops -------------------------------------------------------------


class SiemensOps(_SiemensBase):
    """The catalog with the operational layers on, through one crash."""

    name = "siemens_ops"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self._directories = 0

    def run_pass(self, tracer) -> PassResult:
        self._directories += 1
        directory = OUT_DIR / f"ckpt-{os.getpid()}-{self._directories}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        try:
            return asyncio.run(self._run(tracer, directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    async def _run(self, tracer, directory: Path) -> PassResult:
        sizes = self.sizes
        started = perf_counter()
        dep = self.build(shards=sizes.shards)
        session = dep.async_session(sink_capacity=8)
        result = PassResult(setup_s=[perf_counter() - started])
        replacement = None
        #: consumer index -> query -> results, across the crash
        received: list[dict[str, list]] = [
            {label: [] for label, _ in self.tasks}
            for _ in range(sizes.consumers)
        ]
        arrivals: list[float] = []
        stop_after = int(self.expected_windows * sizes.stop_share)
        delivered = 0
        server: asyncio.Task | None = None

        def count_pulse(_result) -> None:
            nonlocal delivered
            delivered += 1
            if delivered == stop_after:
                server.cancel()  # the "crash": lands after this pulse

        async def consume(subscription, results, stamp: bool) -> None:
            async for item in subscription:
                if stamp:
                    arrivals.append(perf_counter())
                results.append(item)

        def attach(stream_of: Callable) -> tuple[list, list]:
            """4 block-policy consumers per task on the given handles."""
            subscriptions, consumers = [], []
            for label, _ in self.tasks:
                for index in range(sizes.consumers):
                    subscription = stream_of(label)(
                        capacity=sizes.consumer_capacity, policy="block"
                    )
                    subscriptions.append(subscription)
                    consumers.append(
                        asyncio.create_task(
                            consume(
                                subscription,
                                received[index][label],
                                stamp=index == sizes.consumers - 1,
                            )
                        )
                    )
            return subscriptions, consumers

        async def drain(subscriptions, consumers) -> None:
            """Let consumers empty their queues, then detach them."""
            while any(len(s) for s in subscriptions):
                await asyncio.sleep(0)
            for subscription in subscriptions:
                subscription.close()
            await asyncio.gather(*consumers)

        def gaps(first_pulse: float, begin: int) -> float:
            """Book this phase's delivery gaps; returns its wall."""
            previous = first_pulse
            for at in arrivals[begin:]:
                result.window_ms.append((at - previous) * 1e3)
                previous = at
            return previous - first_pulse

        try:
            handles: dict[str, object] = {}

            def sink(name, label, handle):
                handles[label] = handle
                handle.subscribe(count_pulse)

            with tracer.phase("register"):
                self._register(session, tracer, result, sink, self.tasks)
            manager = durability.CheckpointManager(
                dep.gateway, directory, interval=sizes.checkpoint_interval
            )
            subscriptions, consumers = attach(lambda label: handles[label].stream)
            with tracer.phase("execute"):
                first_pulse = perf_counter()
                server = asyncio.create_task(session.serve())
                try:
                    await server
                except asyncio.CancelledError:
                    pass
                await drain(subscriptions, consumers)
            result.execute_wall_s += gaps(first_pulse, 0)
            survived = len(arrivals)
            manager.close()
            counts = result.counts
            before = _registry_counts(dep.gateway.metrics_snapshot())

            # a fresh deployment from the same seed; preparing the tasks
            # re-installs the macro UDFs recovery re-binds against
            replacement = self.build(shards=sizes.shards)
            restart = replacement.session()
            for _, text in self.tasks:
                restart.prepare(text)
            with tracer.phase("recover"):
                began = perf_counter()
                gateway = durability.recover(
                    directory, replacement.engine,
                    scheduler=replacement.gateway.scheduler,
                )
                result.extra["recovery_ms"] = (perf_counter() - began) * 1e3
            if gateway is None:
                result.premises.append("siemens_ops found no checkpoint to recover")
                return result
            manager = durability.CheckpointManager(
                gateway, directory, interval=sizes.checkpoint_interval
            )
            subscriptions, consumers = attach(
                lambda label: gateway.query(label).stream
            )
            with tracer.phase("execute"):
                first_pulse = perf_counter()
                await gateway.serve()
                await drain(subscriptions, consumers)
            result.execute_wall_s += gaps(first_pulse, survived)
            manager.close()

            log_bytes = sum(
                path.stat().st_size for path in directory.iterdir()
                if path.is_file()
            )
            result.extra["checkpoint_bytes_per_epoch"] = (
                log_bytes / manager.epoch if manager.epoch else 0.0
            )
            after = _registry_counts(gateway.metrics_snapshot())
            counts.update({key: before[key] + after[key] for key in before})
            counts.update(_cache_counts(gateway.engine))
            counts.update(_translator_counts(dep.translator))
            counts["durability.checkpoint.epochs"] = manager.epoch
            counts["durability.checkpoint.bytes"] = log_bytes

            # every consumer saw every window; the ones between the last
            # epoch and the stop arrive twice, and must arrive equal
            for index, by_query in enumerate(received):
                for label, results in by_query.items():
                    unique: dict[int, object] = {}
                    for item in results:
                        first = unique.setdefault(item.window_id, item)
                        if first is not item and first != item:
                            result.premises.append(
                                f"siemens_ops replayed {label} window "
                                f"{item.window_id} with different content"
                            )
                    ordered = [unique[w] for w in sorted(unique)]
                    result.streams[f"{label}#c{index}"] = (label, ordered)
            result.segments.append((
                _offered(_stream_timestamps(dep), received[0].items()),
                result.execute_wall_s,
            ))
            if counts["bus.dropped"]:
                result.premises.append(
                    f"siemens_ops dropped {counts['bus.dropped']:.0f} bus results"
                )
            with tracer.phase("teardown"):
                for label, _ in self.tasks:
                    gateway.deregister(label)
                session.close()
        finally:
            close_databases(dep)
            if replacement is not None:
                close_databases(replacement)
        return result


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (SiemensCatalog, PaneHot, RegisterChurn, SiemensOps)
}


def make_workload(name: str, seed: int, sizes: Sizes):
    return WORKLOAD_CLASSES[name](seed, sizes)
