"""All 20 catalog tasks on live dashboards (Figure 3's monitoring view).

Submits the complete diagnostic catalog as session handles against one
deployment, steps the cooperative executor in rounds (rendering interim
progress the way the live demo does), and prints the final per-task
dashboard.

Run:  python examples/diagnostics_dashboard.py
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
        FleetConfig(turbines=6, plants=3, correlated_pairs=3)
    )
    deployment = deploy(fleet=fleet, stream_duration=40)

    catalog = diagnostic_catalog()
    session = deployment.session(sink_capacity=16)
    dashboard = deployment.dashboard  # every session handle feeds a panel
    fleet_total = 0
    for task in catalog:
        handle = session.submit(
            session.prepare(task.starql),
            name=f"{task.task_id:02d}-{task.name}"[:28],
            max_windows=15,
        )
        fleet_total += handle.prepared.fleet_size
    print(f"submitted {len(catalog)} STARQL diagnostic tasks "
          f"({fleet_total} unfolded SQL blocks)\n")

    monitor = deployment.monitor()
    started = time.perf_counter()
    rounds = 0
    while session.step(5):
        rounds += 1
        running = sum(1 for h in session.handles if not h.state.is_terminal)
        print(f"round {rounds}: {running}/{len(catalog)} handles runnable, "
              f"{dashboard.total_alerts()} alerts so far")
        if rounds % 4 == 0:  # live per-task progress (S2's monitoring view)
            print()
            print(monitor.render())
            print()
    seconds = time.perf_counter() - started
    print()
    print(dashboard.render())
    print()
    print("final registry view (throughput / latency percentiles / MQO):")
    print(session.metrics().render())

    stats = deployment.engine.cache.stats
    print(f"\nran in {seconds:.2f}s; wCache: "
          f"{stats.hits + stats.pane_hits} hits / "
          f"{stats.misses + stats.pane_misses} misses "
          f"(hit rate {stats.combined_hit_rate:.0%}, batch + pane) — "
          "20 concurrent handles shared the same materialised windows")


if __name__ == "__main__":
    main()
