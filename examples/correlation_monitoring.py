"""Cross-stream correlation: the Pearson catalog task in STARQL.

Catalog task 5 pairs the sensors of two assemblies of one turbine and
alerts when their windowed readings correlate above 0.9, through the
engine's exact ``PEARSON`` sequence UDF.  The fleet generator injects a correlated pair; the task
must alert on it.

Run:  python examples/correlation_monitoring.py
"""

from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet


def starql_pearson_task() -> None:
    print("== catalog task 5: Pearson correlation in STARQL ==")
    fleet = generate_fleet(
        FleetConfig(turbines=3, plants=2, correlated_pairs=2)
    )
    pair = fleet.correlated[0]
    sensors = list(pair) + fleet.sensor_ids[:4]
    deployment = deploy(
        fleet=fleet, stream_sensors=sensors, stream_duration=35
    )
    task = diagnostic_catalog()[4]
    session = deployment.session(sink_capacity=8)
    handle = session.submit(
        session.prepare(task.starql), name="pearson", max_windows=3
    )
    while session.step(1):
        pass
    # the alert set: subjects constructed from surviving bindings
    alerts = {
        str(subject).rsplit("/", 1)[-1]
        for subject, _, _ in handle.alerts()
    }
    print(f"sensors alerted as correlated: {sorted(alerts)[:6]}")
    print(f"injected correlated pair     : {pair}")
    assert pair[0] in alerts or pair[1] in alerts


if __name__ == "__main__":
    starql_pearson_task()
