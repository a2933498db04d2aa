"""Demo scenario S1: diagnostics with the preconfigured deployment.

Submits a selection of catalog tasks as query handles through a session
over the Siemens deployment, steps the cooperative executor, and
monitors the handles on the deployment's text dashboard (every session
handle feeds its own panel) — the workflow a service engineer follows
in the demo.

Run:  python examples/turbine_diagnostics.py
"""

import time

from repro.siemens import (
    FleetConfig,
    deploy,
    diagnostic_catalog,
    generate_fleet,
)


def main() -> None:
    fleet = generate_fleet(
        FleetConfig(turbines=8, plants=3, correlated_pairs=3)
    )
    deployment = deploy(fleet=fleet, stream_duration=35)
    catalog = diagnostic_catalog()

    print(f"deployment: {fleet.config.turbines} turbines, "
          f"{len(fleet.sensor_ids)} sensors, "
          f"{len(deployment.mappings)} mappings, "
          f"{deployment.ontology.term_count()} ontology terms")

    session = deployment.session(sink_capacity=32)
    selected = [catalog[i] for i in (0, 1, 3, 6, 7, 9)]
    total_fleet = 0
    for task in selected:
        handle = session.submit(
            session.prepare(task.starql), name=task.name, max_windows=25
        )
        total_fleet += handle.prepared.fleet_size
        print(f"submitted  {task.name:<28} "
              f"(unfolds to {handle.prepared.fleet_size} SQL block(s))")
    print(f"\n{len(selected)} STARQL queries -> "
          f"{total_fleet} low-level data queries\n")

    started = time.perf_counter()
    while session.step(5):
        pass  # handles progress round-robin; panels update per result
    seconds = time.perf_counter() - started
    print(deployment.dashboard.render())
    states = {h.name: h.state.name for h in session.handles}
    print(f"\nhandle states: {states}")
    metrics = deployment.engine.metrics
    stats = deployment.engine.cache.stats
    print(f"processed {metrics.total_tuples_in} window tuples "
          f"in {seconds:.2f}s "
          f"({metrics.total_tuples_in / max(seconds, 1e-9):,.0f} tuples/s, "
          f"cache hit rate {stats.combined_hit_rate:.0%} batch + pane)")


if __name__ == "__main__":
    main()
