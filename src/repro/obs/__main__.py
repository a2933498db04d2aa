"""``python -m repro.obs`` — the live monitoring CLI.

Two modes:

* **Trace mode** (default): read a JSONL trace file produced by
  :class:`~repro.obs.tracing.JsonlExporter` (e.g. via
  ``REPRO_TRACE=trace.jsonl python examples/async_dashboard.py``) and
  render the per-query pulse/latency/hot-span report.  ``--follow``
  tails the file and re-renders as new spans land.
* **Live mode** (``--live``): spin up the Siemens deployment, attach a
  :class:`~repro.obs.monitor.Monitor` to its gateway and render the
  per-query progress table after every few pulses — the demo's S2
  monitoring scenario end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .monitor import render_trace_report
from .tracing import Span


def _parse_lines(lines) -> list[Span]:
    spans = []
    for line in lines:
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def _trace_mode(path: str, follow: bool, interval: float,
                out=sys.stdout) -> int:
    try:
        handle = open(path, encoding="utf-8")
    except OSError as error:
        print(f"cannot open trace file: {error}", file=sys.stderr)
        return 2
    with handle:
        spans = _parse_lines(handle)
        print(render_trace_report(spans), file=out)
        while follow:
            time.sleep(interval)
            fresh = _parse_lines(handle)
            if fresh:
                spans.extend(fresh)
                print("", file=out)
                print(render_trace_report(spans), file=out)
    return 0


def _live_mode(tasks: int, rounds: int, shards: int, out=sys.stdout) -> int:
    from ..siemens.catalog import diagnostic_catalog
    from ..siemens.deployment import deploy
    from ..siemens.generator import FleetConfig, generate_fleet

    fleet = generate_fleet(FleetConfig(turbines=4, plants=2))
    deployment = deploy(fleet=fleet, stream_duration=20, shards=shards)
    session = deployment.session()
    for task in diagnostic_catalog()[:tasks]:
        session.submit(task.starql, name=f"t{task.task_id}")
    monitor = deployment.monitor()
    for pulse_round in range(1, rounds + 1):
        if not session.step(4):
            break
        print(f"— live monitor, round {pulse_round} —", file=out)
        print(monitor.render(), file=out)
        print("", file=out)
    session.close()
    print("— final —", file=out)
    print(monitor.render(), file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render per-query monitoring tables from a trace "
                    "file or a live Siemens deployment.",
    )
    parser.add_argument("trace", nargs="?", help="JSONL trace file to read")
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing the trace file")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="follow-mode poll interval in seconds")
    parser.add_argument("--live", action="store_true",
                        help="attach to a live Siemens deployment instead")
    parser.add_argument("--tasks", type=int, default=6,
                        help="live mode: catalog tasks to register")
    parser.add_argument("--rounds", type=int, default=5,
                        help="live mode: monitoring rounds to render")
    parser.add_argument("--shards", type=int, default=1,
                        help="live mode: engine shards")
    options = parser.parse_args(argv)
    if options.live:
        return _live_mode(options.tasks, options.rounds, options.shards)
    if not options.trace:
        parser.error("a trace file is required unless --live is given")
    return _trace_mode(options.trace, options.follow, options.interval)


if __name__ == "__main__":
    raise SystemExit(main())
