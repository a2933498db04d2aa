"""Where one ledger pass spends its time.

    python benchmarks/profile_pass.py --workload siemens_catalog --seed 11
    make profile WORKLOAD=siemens_catalog SEED=11

One discarded warm-up pass, then one pass under ``cProfile``: the top 25
functions by cumulative and by self time, and a per-query table of
``PlanRuntime.execute_window`` (calls, total, mean and worst window,
share of the execute time).  The workload comes from the ledger
(``ledger.workloads.make_workload``), so the pass is exactly what the
benchmark times; nothing under ``benchmarks/ledger/`` is touched.

``cProfile`` charges every Python call and no native work, which shifts
proportions: use the tables to find candidates, then measure with the
ledger (``make ledger``), profiling off.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TOP = 25


def per_query_table(windows: dict[str, list[float]]) -> str:
    """One row per query, busiest first, from its window wall times."""
    total = sum(sum(times) for times in windows.values()) or 1.0
    lines = [
        f"{'query':<24}{'windows':>9}{'total ms':>11}{'mean ms':>10}"
        f"{'max ms':>10}{'share':>8}"
    ]
    for name, times in sorted(
        windows.items(), key=lambda item: -sum(item[1])
    ):
        busy = sum(times)
        lines.append(
            f"{name:<24}{len(times):>9}{busy * 1e3:>11.1f}"
            f"{busy / len(times) * 1e3:>10.2f}{max(times) * 1e3:>10.2f}"
            f"{busy / total:>8.1%}"
        )
    lines.append(
        f"{'all':<24}{sum(map(len, windows.values())):>9}{total * 1e3:>11.1f}"
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="siemens_catalog")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()

    # the ledger's own path set-up: this checkout's src/, and
    # benchmarks/ as the home of the ``ledger`` package
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from ledger.spec import SCALES
    from ledger.trace import NullTracer
    from ledger.workloads import make_workload
    from repro.exastream.engine import PlanRuntime

    workload = make_workload(args.workload, args.seed, SCALES[args.scale])
    workload.run_pass(NullTracer())  # warm-up, discarded

    windows: dict[str, list[float]] = defaultdict(list)
    execute_window = PlanRuntime.execute_window

    def timed_execute_window(runtime, window_id):
        started = perf_counter()
        result = execute_window(runtime, window_id)
        if result is not None:
            windows[runtime.plan.name].append(perf_counter() - started)
        return result

    profiler = cProfile.Profile()
    PlanRuntime.execute_window = timed_execute_window
    gc.collect()
    try:
        profiler.enable()
        result = workload.run_pass(NullTracer())
        profiler.disable()
    finally:
        PlanRuntime.execute_window = execute_window

    print(f"== {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(result.window_ms)} delivered windows, execute wall "
          f"{result.execute_wall_s:.2f} s (under cProfile)")
    for premise in result.premises:
        print(f"premise broken: {premise}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    for order in ("cumulative", "tottime"):
        print(f"\n-- top {TOP} by {order}")
        stats.sort_stats(order).print_stats(TOP)
    print("-- PlanRuntime.execute_window per query (profiled pass)")
    print(per_query_table(windows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
