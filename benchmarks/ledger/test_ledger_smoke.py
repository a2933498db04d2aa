"""Smoke test of the benchmark harness (tier-1, a few seconds).

Runs all four workloads at ``--scale quick`` with the traced pass on and
checks the harness's own contract: every metric is present, with its
unit, on exactly the workloads it is defined for; nothing failed; the
trace is a well-formed tree; an entry point that stops resolving turns
into ``null`` metrics instead of a crash; and ``BENCHMARK.json`` says
what ``spec.py`` says.
"""

import json
from pathlib import Path

import pytest

from ledger import compare, run, spec, trace
from ledger.workloads import PaneHot

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reports():
    return {
        name: run.run_workload(name, seed=11, seconds=0, trace=True,
                               scale="quick")
        for name in spec.WORKLOADS
    }


def test_every_metric_on_exactly_its_workloads(reports):
    for name, report in reports.items():
        expected = {m.name: m.unit for m in spec.metrics_for(name)}
        got = {k: row["unit"] for k, row in report["end_to_end"].items()}
        assert got == expected, name
        for row in report["end_to_end"].values():
            assert row["n"] >= 1 and len(row["values"]) == row["n"]
        layers = {k: row["unit"] for k, row in report["per_layer"].items()}
        assert layers == spec.PER_LAYER, name
        assert all(
            row["value"] is not None for row in report["per_layer"].values()
        ), name


def test_nothing_failed_and_premises_hold(reports):
    for name, report in reports.items():
        assert report["premises"] == [], name
        assert report["failed"] == 0 and report["correct"], name
        assert report["end_to_end"]["failed_share"]["value"] == 0
        assert report["oracle"]["windows"] > 0, name
        assert report["per_layer"]["bench.unattributed_share"]["value"] <= 0.10


def test_workloads_stress_the_layers_they_claim(reports):
    layer = {
        name: {k: row["value"] for k, row in report["per_layer"].items()}
        for name, report in reports.items()
    }
    pane = layer["pane_hot"]
    assert pane["engine.recompute.windows"] == 0 < pane["engine.pane.windows"]
    assert pane["starql.parse.calls"] == 0 == pane["rewriting.perfectref.calls"]
    assert pane["planner.plan_sql.calls"] == 2 * PaneHot.REGISTRATIONS
    catalog = layer["siemens_catalog"]
    assert catalog["engine.pane.windows"] > 0 < catalog["engine.recompute.windows"]
    assert catalog["starql.parse.calls"] == 20 == catalog["engine.bind.calls"]
    churn = layer["register_churn"]
    assert 0 < churn["starql.translate.cache_hit_ratio"] < 1
    assert churn["gateway.deregister.calls"] == churn["engine.bind.calls"] > 0
    ops = layer["siemens_ops"]
    assert ops["bus.dropped"] == 0 < ops["bus.publish.calls"]
    assert ops["durability.checkpoint.epochs"] > 0 < ops["durability.recover.busy_ms"]
    assert ops["sharded.execute.busy_s"] > 0
    for other in ("siemens_catalog", "pane_hot", "register_churn"):
        assert layer[other]["bus.publish.calls"] == 0
        assert layer[other]["sharded.execute.busy_s"] == 0


def test_trace_is_a_balanced_tree(reports):
    for name, report in reports.items():
        spans = trace.read_spans(ROOT / report["trace_file"])
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        children: dict[int, float] = {}
        for span in spans:
            assert span["end"] >= span["start"], (name, span)
            parent = span["parent"]
            if parent is None:
                continue
            outer = by_id[parent]
            assert outer["id"] < span["id"]
            assert outer["start"] <= span["start"], (name, span)
            assert span["end"] <= outer["end"], (name, span)
            children[parent] = children.get(parent, 0.0) + (
                span["end"] - span["start"]
            )
        for parent, total in children.items():
            outer = by_id[parent]
            assert total <= (outer["end"] - outer["start"]) + 1e-9, (name, outer)
        assert trace.render_stage_table(ROOT / report["trace_file"])


def test_unresolved_target_degrades_to_null(capsys):
    from repro.exastream.gateway import GatewayServer

    original = GatewayServer.step
    targets = (
        trace.Target("repro.exastream.gateway:GatewayServer.gone", "gateway.step"),
        trace.Target("repro.no_such_module:thing", "wcache.window"),
        trace.Target("repro.exastream.gateway:GatewayServer.register",
                     "gateway.register"),
    )
    tracer = trace.Tracer()
    with trace.installed(tracer, targets):
        assert GatewayServer.step is original  # untouched
        assert GatewayServer.register is not None
    assert tracer.unresolved == {"gateway.step", "wcache.window"}
    assert "does not resolve" in capsys.readouterr().err
    metrics = trace.span_metrics([], tracer.unresolved)
    assert metrics["gateway.step.rounds"] is None
    assert metrics["gateway.step.self_s"] is None
    assert metrics["wcache.window.busy_s"] is None
    assert metrics["gateway.register.self_ms"] == 0


def test_installed_restores_every_entry_point():
    before = [trace._resolve(target.path)[2] for target in trace.TARGETS]
    with trace.installed(trace.Tracer()):
        during = [trace._resolve(target.path)[2] for target in trace.TARGETS]
    after = [trace._resolve(target.path)[2] for target in trace.TARGETS]
    assert all(a is b for a, b in zip(before, after))
    assert all(a is not b for a, b in zip(before, during))


def test_driver_lines_match_benchmark_json(reports):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["run_seconds"] == run.RUN_SECONDS
    assert {w["name"]: w["why"] for w in contract["workloads"]} == spec.WORKLOADS
    by_name = {m.name: m for m in spec.END_TO_END}
    assert [m["name"] for m in contract["end_to_end"]] == list(
        spec.DRIVER_END_TO_END
    )
    for entry in contract["end_to_end"]:
        metric = by_name[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
        assert set(metric.workloads) == set(spec.WORKLOADS)
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert layer_units == {
        **spec.PER_LAYER, **{n: by_name[n].unit for n in spec.LEDGER_ONLY},
    }
    for name, report in reports.items():
        for traced, wanted in ((False, contract["end_to_end"]),
                               (True, contract["per_layer"])):
            line = json.loads(run.driver_line(report, traced))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert {
                k: v["unit"] for k, v in line["metrics"].items()
            } == {m["name"]: m["unit"] for m in wanted}, name
            if not traced:
                assert all(v["value"] > 0 for v in line["metrics"].values())


def test_compare_verdicts(reports):
    ledger = {"seed": 11, "scale": "quick", "workloads": reports}
    rows, regressed = compare.compare(ledger, ledger)
    assert not regressed and {row[-1] for row in rows} == {"ok"}
    slower = json.loads(json.dumps(ledger))
    row = slower["workloads"]["pane_hot"]["end_to_end"]["tuples_per_s"]
    row["value"] *= 0.5
    rows, regressed = compare.compare(ledger, slower)
    assert regressed
    assert [r[-1] for r in rows if r[:2] == ("pane_hot", "tuples_per_s")] == [
        "regressed"
    ]
    row["iqr"] = row["median"]  # too noisy to tell
    rows, _ = compare.compare(ledger, slower)
    assert [r[-1] for r in rows if r[:2] == ("pane_hot", "tuples_per_s")] == [
        "unresolved"
    ]
    other = json.loads(json.dumps(ledger))
    other["workloads"]["pane_hot"]["oracle"]["digest"] = "different inputs"
    assert compare._incomparable(ledger, other)


def test_churn_variant_is_a_new_text_with_the_same_shape():
    from ledger.workloads import _catalog_tasks, churn_variant

    for label, text in _catalog_tasks():
        variant = churn_variant(text, 1234)
        assert variant != text, label
        assert variant.count("\n") == text.count("\n")
        assert churn_variant(text, 1234) == variant
        assert churn_variant(text, 1235) != variant
