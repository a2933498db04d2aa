"""E1 (Figure 1): the monotonic-increase diagnostic task end-to-end.

Regenerates the paper's flagship example: parse the STARQL program,
enrich + unfold it, run it over a measurement stream with an injected
ramp, and verify the alert fires exactly on the ramping sensor.
The benchmark times one full window-sweep of the compiled plan.

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""

from repro.exastream import QueryState
from repro.siemens import diagnostic_catalog


def test_fig1_translation_and_shape(fresh_deployment, benchmark):
    """Benchmark: STARQL -> plan translation (enrichment + unfolding)."""
    from repro.starql import parse_starql

    task = diagnostic_catalog()[0]
    query = parse_starql(task.starql)

    translation = benchmark(
        lambda: fresh_deployment.translator.translate(query, name="fig1b")
    )
    assert translation.fleet_size >= 1
    assert "timeSlidingWindow" in translation.sql
    assert translation.plan.windows[0].spec.range_seconds == 10.0


def test_fig1_execution_detects_ramp(fresh_deployment, small_fleet, benchmark):
    """Benchmark: executing the Figure 1 plan over 22 windows."""
    session = fresh_deployment.session(sink_capacity=None)
    handle = session.submit(diagnostic_catalog()[0].starql, name="fig1")
    registered = handle.registered
    construct = handle.prepared.translation.construct

    def run_all():
        registered.next_window = 0
        registered.sink.clear()
        registered.state = QueryState.REGISTERED
        while fresh_deployment.gateway.step(window_limit=22):
            pass
        return registered.results()

    results = benchmark(run_all)
    alerted = {
        str(construct.triples_for(row)[0][0]).rsplit("/", 1)[-1]
        for result in results
        for row in result.rows
    }
    streamed = {row[1] for row in fresh_deployment.engine.stream("S_Msmt").take(10_000)}
    expected = {s for s in small_fleet.ramp_sensors if s in streamed}
    assert expected and expected <= alerted, (expected, alerted)
