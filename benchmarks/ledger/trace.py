"""The traced pass: timing wrappers around public entry points.

Installed from here, and only for the traced pass, around a fixed table
of entry points -> layer names (layer = module name).  Spans stay in
memory, are written to ``out/<workload>.trace.jsonl`` when the pass
ends, and the stage table and every span-derived per-layer metric are
computed *from that file*.  An entry point that no longer resolves
after a refactor yields ``None`` for its layer's metrics and a warning;
it never touches the untraced passes.  Spans inside ``src/`` are a
later issue.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any
from collections.abc import Callable

__all__ = [
    "TARGETS",
    "NullTracer",
    "Tracer",
    "installed",
    "read_spans",
    "layer_table",
    "span_metrics",
    "render_stage_table",
]


def _window_request(args, _kwargs):
    """``query:window`` + tier/shard attrs of one execute_window call."""
    runtime, window_id = args[0], args[1]
    plan = runtime.plan
    attrs = {}
    decision = getattr(plan, "incremental", None)
    mode = getattr(getattr(decision, "mode", None), "name", "RECOMPUTE")
    attrs["tier"] = "pane" if mode.startswith("PANE") else "recompute"
    shard = getattr(getattr(runtime, "obs", None), "attrs", {}).get("shard")
    if shard is not None:
        attrs["shard"] = shard
    return f"{plan.name}:{window_id}", attrs


def _produced(result) -> int:
    """1 for a window, 0 for the end-of-stream probe that returns None."""
    return int(result is not None)


@dataclass(frozen=True)
class Target:
    """One public entry point and the layer its spans are booked to."""

    path: str  # "package.module:attr" or "package.module:Class.attr"
    layer: str
    #: optional ``(args, kwargs) -> (request id, attrs)`` for the span
    describe: Callable | None = None
    #: optional ``result -> int`` recorded as the span's ``count``
    count: Callable[[Any], int] | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.starql.parser:parse_starql", "starql.parse"),
    Target("repro.rewriting.perfectref:PerfectRef.rewrite",
           "rewriting.perfectref", count=len),
    Target("repro.mappings.unfolding:Unfolder.unfold",
           "mappings.unfold", count=lambda r: len(r.disjuncts)),
    Target("repro.starql.translator:STARQLTranslator.translate",
           "starql.translate"),
    Target("repro.starql.translator:STARQLTranslator.translate_text",
           "starql.translate"),
    # gateway.register resolves plan_sql through its own module global
    Target("repro.exastream.gateway:plan_sql", "planner.plan_sql"),
    Target("repro.analysis.sharing:check_sharing", "analysis.check"),
    Target("repro.analysis:analyze_plan", "analysis.check"),
    Target("repro.exastream.engine:StreamEngine.bind", "engine.bind"),
    Target("repro.exastream.sharded:ShardedEngine.bind", "engine.bind"),
    Target("repro.relational.database:Database.query_with_names",
           "relational.query", count=lambda r: len(r[1])),
    Target("repro.exastream.scheduler:Scheduler.place", "scheduler.place"),
    Target("repro.exastream.scheduler:Scheduler.place_pipeline",
           "scheduler.place"),
    Target("repro.exastream.scheduler:Scheduler.place_residual",
           "scheduler.place"),
    Target("repro.exastream.gateway:GatewayServer.register",
           "gateway.register"),
    Target("repro.exastream.gateway:GatewayServer.deregister",
           "gateway.deregister"),
    Target("repro.exastream.gateway:GatewayServer.step", "gateway.step"),
    # serve() is step()'s pulse loop on the event loop: same layer
    Target("repro.exastream.gateway:GatewayServer.serve", "gateway.step"),
    Target("repro.exastream.engine:PlanRuntime.execute_window",
           "engine.execute", describe=_window_request, count=_produced),
    Target("repro.exastream.sharded:ShardedPlanRuntime.execute_window",
           "sharded.execute", describe=_window_request, count=_produced),
    Target("repro.streams.wcache:SharedWindowReader.window", "wcache.window"),
    Target("repro.streams.wcache:SharedWindowReader.pane_view",
           "wcache.pane_view"),
    Target("repro.exastream.bus:Topic.publish", "bus.publish"),
    Target("repro.exastream.durability.checkpoint:CheckpointManager.checkpoint",
           "durability.checkpoint"),
    # the harness calls recover through this package attribute
    Target("repro.exastream.durability:recover", "durability.recover"),
)


class NullTracer:
    """What the untraced passes carry: every hook is a no-op."""

    enabled = False

    @contextlib.contextmanager
    def phase(self, name: str):
        yield

    @contextlib.contextmanager
    def request(self, request: str):
        yield


class Tracer(NullTracer):
    """In-memory span recorder (single driver thread, strict nesting)."""

    enabled = True

    def __init__(self) -> None:
        #: [layer, start, end, parent, request, phase, attrs, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._phase: str | None = None
        self._request: str | None = None
        #: layers whose entry points did not resolve at install time
        self.unresolved: set[str] = set()

    @contextlib.contextmanager
    def phase(self, name: str):
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = previous

    @contextlib.contextmanager
    def request(self, request: str):
        previous, self._request = self._request, request
        try:
            yield
        finally:
            self._request = previous

    def open(self, layer: str, request: str | None, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = (
                self.spans[parent][4] if parent is not None else self._request
            )
        index = len(self.spans)
        self.spans.append(
            [layer, perf_counter(), None, parent, request, self._phase,
             attrs, None]
        )
        self._stack.append(index)
        return index

    def close(self, index: int, count: int | None = None) -> None:
        end = perf_counter()
        # a cancelled coroutine may unwind past open children: close them
        # with it, and leave a span an outer close already ended alone
        if index in self._stack:
            while True:
                top = self._stack.pop()
                self.spans[top][2] = end
                if top == index:
                    break
        self.spans[index][7] = count

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                layer, start, end, parent, request, phase, attrs, count = span
                record = {
                    "id": index, "name": layer, "start": start,
                    "end": end if end is not None else start,
                    "parent": parent, "request": request, "phase": phase,
                }
                if attrs:
                    record["attrs"] = attrs
                if count is not None:
                    record["count"] = count
                fh.write(json.dumps(record) + "\n")


def _resolve(path: str):
    """``(owner, attribute name, current value)`` of a target path."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, fn, target: Target):
    layer, describe, count = target.layer, target.describe, target.count

    def begin(args, kwargs) -> int:
        request, attrs = describe(args, kwargs) if describe else (None, None)
        return tracer.open(layer, request, attrs)

    if inspect.iscoroutinefunction(fn):
        async def async_wrapper(*args, **kwargs):
            index = begin(args, kwargs)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return async_wrapper

    def wrapper(*args, **kwargs):
        index = begin(args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, count(result) if count else None)
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Patch every resolvable target for the duration of the block."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            try:
                owner, attr, fn = _resolve(target.path)
            except (ImportError, AttributeError) as exc:
                tracer.unresolved.add(target.layer)
                print(
                    f"ledger.trace: {target.path} does not resolve ({exc}); "
                    f"{target.layer}.* reported as null",
                    file=sys.stderr,
                )
                continue
            # keep staticmethod/classmethod descriptors out of the table
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                raise TypeError(f"{target.path}: wrap plain functions only")
            setattr(owner, attr, _wrap(tracer, fn, target))
            patched.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


# -- reading the file back ---------------------------------------------------


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_table(spans: list[dict], phases: tuple[str, ...] | None = None,
                request: str | None = None) -> dict[str, dict]:
    """Per layer: ``calls``/``busy`` over outermost spans, ``self`` over all.

    A span nested (at any depth) under a span of its own layer — the
    sharded bind calling each shard's bind, ``translate_text`` calling
    ``translate`` — adds to ``self`` only, so ``busy`` never counts one
    interval twice.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    table: dict[str, dict] = {}
    for span in spans:
        if phases is not None and span["phase"] not in phases:
            continue
        if request is not None and span["request"] != request:
            continue
        row = table.setdefault(
            span["name"], {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0}
        )
        duration = span["end"] - span["start"]
        row["self"] += duration - child_time[span["id"]]
        row["count"] += span.get("count") or 0
        ancestor = span["parent"]
        while ancestor is not None and by_id[ancestor]["name"] != span["name"]:
            ancestor = by_id[ancestor]["parent"]
        if ancestor is None:
            row["calls"] += 1
            row["busy"] += duration
    return table


def span_metrics(spans: list[dict], unresolved: set[str]) -> dict:
    """The span-derived per-layer metrics (name -> value or ``None``)."""
    table = layer_table(spans)

    def cell(layer: str, column: str, scale: float = 1.0):
        if layer in unresolved:
            return None
        return table.get(layer, {}).get(column, 0) * scale

    out = {
        "starql.parse.calls": cell("starql.parse", "calls"),
        "starql.parse.busy_ms": cell("starql.parse", "busy", 1e3),
        "rewriting.perfectref.calls": cell("rewriting.perfectref", "calls"),
        "rewriting.perfectref.busy_ms": cell("rewriting.perfectref", "busy", 1e3),
        "rewriting.perfectref.ucq_disjuncts": cell("rewriting.perfectref", "count"),
        "mappings.unfold.calls": cell("mappings.unfold", "calls"),
        "mappings.unfold.busy_ms": cell("mappings.unfold", "busy", 1e3),
        "mappings.unfold.sql_disjuncts": cell("mappings.unfold", "count"),
        "starql.translate.self_ms": cell("starql.translate", "self", 1e3),
        "planner.plan_sql.calls": cell("planner.plan_sql", "calls"),
        "planner.plan_sql.busy_ms": cell("planner.plan_sql", "busy", 1e3),
        "analysis.check.busy_ms": cell("analysis.check", "busy", 1e3),
        "engine.bind.calls": cell("engine.bind", "calls"),
        "engine.bind.busy_ms": cell("engine.bind", "busy", 1e3),
        "relational.query.calls": cell("relational.query", "calls"),
        "relational.query.busy_ms": cell("relational.query", "busy", 1e3),
        "relational.query.rows": cell("relational.query", "count"),
        "scheduler.place.busy_ms": cell("scheduler.place", "busy", 1e3),
        "gateway.register.self_ms": cell("gateway.register", "self", 1e3),
        "gateway.deregister.calls": cell("gateway.deregister", "calls"),
        "gateway.deregister.busy_ms": cell("gateway.deregister", "busy", 1e3),
        "gateway.step.rounds": cell("gateway.step", "calls"),
        "gateway.step.self_s": cell("gateway.step", "self"),
        "engine.execute.calls": cell("engine.execute", "calls"),
        "engine.execute.busy_s": cell("engine.execute", "busy"),
        "wcache.window.calls": cell("wcache.window", "calls"),
        "wcache.window.busy_s": cell("wcache.window", "busy"),
        "wcache.pane_view.calls": cell("wcache.pane_view", "calls"),
        "wcache.pane_view.busy_s": cell("wcache.pane_view", "busy"),
        "sharded.execute.busy_s": cell("sharded.execute", "busy"),
        "sharded.merge.self_s": cell("sharded.execute", "self"),
        "bus.publish.calls": cell("bus.publish", "calls"),
        "bus.publish.busy_s": cell("bus.publish", "busy"),
        "durability.checkpoint.busy_s": cell("durability.checkpoint", "busy"),
        "durability.recover.busy_ms": cell("durability.recover", "busy", 1e3),
    }

    # engine.execute split by tier, by shard and by task.  Busy time is
    # booked where the work runs (every shard's runtime); windows are
    # counted once per query, on the outermost execute span, which is
    # also how the registry counts them.
    tiers = {"pane": [0, 0.0], "recompute": [0, 0.0]}
    per_shard: dict[int, float] = defaultdict(float)
    per_task: dict[str, float] = defaultdict(float)
    by_id = {span["id"]: span for span in spans}
    executes = ("engine.execute", "sharded.execute")

    def task_of(span: dict) -> str:
        return (span["request"] or "").rsplit(":", 1)[0]

    # a sharded coordinator's plan carries no tier: its shards' do
    tier_of_task = {
        task_of(span): span["attrs"]["tier"]
        for span in spans if span["name"] == "engine.execute"
    }
    for span in spans:
        if span["name"] not in executes:
            continue
        duration = span["end"] - span["start"]
        tier = tiers[tier_of_task.get(task_of(span), "recompute")]
        if span["name"] == "engine.execute":
            tier[1] += duration
            shard = span["attrs"].get("shard")
            if shard is not None:
                per_shard[shard] += duration
        parent = span["parent"]
        if parent is None or by_id[parent]["name"] not in executes:
            tier[0] += span.get("count", 0)
            per_task[task_of(span)] += duration
    if "engine.execute" in unresolved:
        for key in ("engine.pane.windows", "engine.pane.busy_s",
                    "engine.recompute.windows", "engine.recompute.busy_s",
                    "engine.top_task_share", "sharded.skew"):
            out[key] = None
    else:
        out["engine.pane.windows"] = tiers["pane"][0]
        out["engine.pane.busy_s"] = tiers["pane"][1]
        out["engine.recompute.windows"] = tiers["recompute"][0]
        out["engine.recompute.busy_s"] = tiers["recompute"][1]
        total = sum(per_task.values())
        out["engine.top_task_share"] = (
            max(per_task.values()) / total if total else 0.0
        )
        loads = list(per_shard.values())
        out["sharded.skew"] = (
            max(loads) / (sum(loads) / len(loads)) if loads and sum(loads) else 0.0
        )
    return out


def attributed_seconds(spans: list[dict], phases: tuple[str, ...]) -> float:
    """Wall covered by root spans of the given phases."""
    return sum(
        span["end"] - span["start"]
        for span in spans
        if span["parent"] is None and span["phase"] in phases
    )


def heaviest_request(spans: list[dict], phase: str) -> str | None:
    """The request id whose root spans of ``phase`` took longest."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is None and span["phase"] == phase and span["request"]:
            totals[span["request"]] += span["end"] - span["start"]
    return max(totals, key=totals.get) if totals else None


def render_stage_table(path: Path) -> str:
    """The per-layer stage table of one trace file, as text."""
    spans = read_spans(path)
    lines = []

    def block(title: str, table: dict[str, dict]) -> None:
        lines.append(title)
        lines.append(f"  {'layer':<24}{'calls':>8}{'busy ms':>12}{'self ms':>12}")
        for layer, row in sorted(
            table.items(), key=lambda item: -item[1]["self"]
        ):
            lines.append(
                f"  {layer:<24}{row['calls']:>8}"
                f"{row['busy'] * 1e3:>12.2f}{row['self'] * 1e3:>12.2f}"
            )

    for phase in ("register", "execute", "recover", "teardown"):
        table = layer_table(spans, phases=(phase,))
        if table:
            block(f"[{phase}]", table)
    heavy = heaviest_request(spans, "register")
    if heavy is not None:
        block(
            f"[register, heaviest request {heavy}]",
            layer_table(spans, phases=("register",), request=heavy),
        )
    return "\n".join(lines)
