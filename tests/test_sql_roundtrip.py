"""STARQL2SQL(+) emits the SQL(+) it runs.

``TranslationResult.sql`` is the program: planning the printed text
gives the translation's plan again (same MQO signature, tier and
partition mode), and a gateway running a STARQL handle next to the same
task registered from its SQL(+) *text* delivers the same rows window
for window, at either engine width and on either tier.  The pulse
anchor has no SQL(+) spelling and travels beside the text, the way the
query name does.

``golden/catalog_classification.json`` was generated at the commit
before the translator was moved onto the planner (by
:func:`catalog_classification`, which the test below runs again): per
catalog task the tier, the partition mode and the number of distinct
relation / aggregate / side signature keys, plus the distinct keys over
the whole catalog — so the 9 pane / 11 recompute split and the number
of shared pipelines provably did not move.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import analyze_starql
from repro.analysis.__main__ import _extract_starql, main as lint_cq
from repro.exastream import plan_sql
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.sql import print_query

ROOT = Path(__file__).parent
CATALOG = {f"t{task.task_id:02d}": task.starql for task in diagnostic_catalog()}
EXAMPLES = {
    f"{path.name}#{index}": text
    for path in sorted((ROOT.parent / "examples").glob("*.py"))
    for index, text in enumerate(_extract_starql(path))
}
#: STARQL's PULSE START: the one part of a translation SQL(+) cannot say
ANCHORED = {
    "t01@7s": CATALOG["t01"].replace(
        "PULSE WITH", 'PULSE WITH START = "00:00:07CET",'
    ),
}
QUERIES = {**CATALOG, **EXAMPLES, **ANCHORED}


def small_deployment(duration=5, **engine_options):
    fleet = generate_fleet(FleetConfig(turbines=3, plants=2, seed=7))
    return deploy(fleet=fleet, stream_duration=duration, **engine_options)


@pytest.fixture(scope="module")
def deployment():
    return small_deployment()


def replanned(translation, engine, name=None):
    plan = translation.plan
    return plan_sql(
        translation.sql, engine, name=name or plan.name, start=plan.start
    )


def test_the_suite_covers_the_catalog_and_the_examples():
    assert len(CATALOG) == 20 and EXAMPLES
    assert "START" in ANCHORED["t01@7s"]


@pytest.mark.parametrize("label", QUERIES)
def test_printed_sql_plans_back_to_the_translations_plan(label, deployment):
    translation = deployment.translator.translate_text(QUERIES[label])
    plan = translation.plan
    again = replanned(translation, deployment.engine)
    assert again == plan
    assert again.signature == plan.signature
    assert again.incremental.mode is plan.incremental.mode
    assert again.partitioning.mode is plan.partitioning.mode
    # each static block (one per WHERE piece) reaches the catalog as the
    # text the unfolding printed — no parse/print round trip rewrites it
    assert len(plan.statics) == len(translation.unfolding) == (
        2 if label == "t05" else 1
    )
    for static, unfolding in zip(plan.statics, translation.unfolding):
        disjuncts = [print_query(d.select) for d in unfolding.disjuncts]
        assert static.sql == " UNION ".join(disjuncts)
    # self-contained: the join key is spelled in the text, not in the plan
    assert all(f".{c.name}" not in translation.sql
               for w in plan.windows for c in w.computed)
    if label in ANCHORED:
        assert plan.start == 7.0
        assert plan_sql(translation.sql, deployment.engine).start is None


def catalog_classification(deployment):
    """Tier, partition mode and signature-key counts of the registered
    catalog (written against what both the parent commit and this one
    expose, so it could generate the fixture it is compared with)."""
    session = deployment.session()
    tasks = {}
    pooled = {"relation": set(), "aggregate": set(), "side": set()}
    for task in diagnostic_catalog():
        plan = session.submit(task.starql).registered.plan
        signature = plan.signature
        keys = {
            "relation": {signature.relation_key},
            "aggregate": {signature.aggregate_key} - {None},
            "side": {side.key for side in signature.sides},
        }
        tasks[str(task.task_id)] = {
            "tier": plan.incremental.mode.name,
            "partition": plan.partitioning.mode.name,
            **{kind: len(found) for kind, found in keys.items()},
        }
        for kind, found in keys.items():
            pooled[kind] |= found
    return {
        "tasks": tasks,
        "catalog": {kind: len(found) for kind, found in pooled.items()},
    }


def test_catalog_classification_is_the_parent_commits():
    golden = json.loads(
        (ROOT / "golden" / "catalog_classification.json").read_text()
    )
    assert catalog_classification(small_deployment()) == golden
    tiers = [task["tier"] for task in golden["tasks"].values()]
    assert tiers.count("RECOMPUTE") == 11 and len(tiers) == 20


@pytest.mark.parametrize("incremental", [True, False])
@pytest.mark.parametrize("shards", [1, 2])
def test_starql_handle_and_its_sql_text_deliver_the_same_rows(
    shards, incremental
):
    dep = small_deployment(duration=45, shards=shards, incremental=incremental)
    session = dep.session(sink_capacity=None)
    pairs = []
    for label, text in {**CATALOG, **ANCHORED}.items():
        prepared = session.prepare(text)
        handle = session.submit(prepared, name=f"{label}/starql")
        from_text = dep.gateway.register(
            replanned(prepared.translation, dep.engine, f"{label}/sql")
        )
        assert len(from_text.runtime.leaf_runtimes) == len(
            handle.registered.runtime.leaf_runtimes
        )
        pairs.append((label, handle.registered, from_text))
    while dep.step():
        pass
    delivered = 0
    for label, starql, sql in pairs:
        ours, theirs = starql.results(), sql.results()
        assert [
            (r.window_id, r.window_end, r.columns, r.rows) for r in ours
        ] == [
            (r.window_id, r.window_end, r.columns, r.rows) for r in theirs
        ], label
        assert len(ours) >= 2, label
        delivered += sum(len(r.rows) for r in ours)
    assert delivered > 100


def test_lint_cq_fails_when_the_emitted_sql_drifts_from_the_plan(
    deployment, monkeypatch, capsys
):
    translator = deployment.translator
    text = CATALOG["t02"]
    assert not analyze_starql(text, translator).has_errors

    honest = type(translator).translate

    def drifting(self, query, name=None):
        result = honest(self, query, name)
        return replace(result, sql=result.sql.replace(
            "timeSlidingWindow(S_Msmt, ", "timeSlidingWindow(S_Msmt, 1", 1
        ))

    monkeypatch.setattr(type(translator), "translate", drifting)
    report = analyze_starql(text, translator)
    assert [d.code for d in report.errors] == ["ANA008"]
    assert "different plan" in report.errors[0].message

    def unplannable(self, query, name=None):
        result = honest(self, query, name)
        return replace(result, sql=result.sql.replace(" AS w1", " AS st", 1))

    monkeypatch.setattr(type(translator), "translate", unplannable)
    report = analyze_starql(text, translator)
    assert [d.code for d in report.errors] == ["ANA008"]
    assert "does not plan" in report.errors[0].message
    # ... and `make lint-cq` exits non-zero on it
    assert lint_cq(["--siemens", "--quiet"]) == 1
    assert "ANA008" in capsys.readouterr().out
