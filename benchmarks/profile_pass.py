"""Where one ledger pass spends its time.

    python benchmarks/profile_pass.py --workload siemens_catalog --seed 11
    make profile WORKLOAD=siemens_catalog SEED=11

One discarded warm-up pass; then one pass with ``perf_counter`` around
the stream readers' entry points, printed as a per-reader table (stream
and grid, pulses, tuples, and the seconds spent in the pulse cut with
buffer eviction, in pane slicing and in batch assembly); for
``siemens_ops``, one pass with ``perf_counter`` around each checkpoint
step, printed as the number of epochs and of plan frames written, the
seconds per pass in the snapshot walk, in pickling and in the log
append (its fsync included), and each epoch's bytes by part (reader
positions, runtime rings, MQO entries, plan frames, sinks); then one pass
under ``cProfile``: the top 25 functions by cumulative and by self time,
and a per-query table of ``PlanRuntime.execute_window`` (calls, total,
mean and worst window, share of the execute time).  The workload comes
from the ledger (``ledger.workloads.make_workload``), so each pass is
exactly what the benchmark times; nothing under ``benchmarks/ledger/``
is touched.

``cProfile`` charges every Python call and no native work, which shifts
proportions (a per-tuple loop reads about 3x its real cost): use the
tables to find candidates, then measure with the ledger (``make
ledger``), profiling off.  The reader table is timed without it.
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


class ReaderTimes:
    """One reader's pulses, fresh tuples and seconds per entry point."""

    def __init__(self, name: str, grid: str) -> None:
        self.name, self.grid = name, grid
        self.pulses = self.tuples = 0
        self.cut = self.slicing = self.assembly = 0.0


def reader_table(readers: list[ReaderTimes]) -> str:
    """One row per reader, busiest first."""
    lines = [
        f"{'reader':<40}{'grid':>10}{'pulses':>8}{'tuples':>10}"
        f"{'cut s':>8}{'slice s':>9}{'batch s':>9}"
    ]
    rows = sorted(readers, key=lambda r: -(r.cut + r.slicing + r.assembly))
    for r in rows + [_total(readers)]:
        lines.append(
            f"{r.name[:39]:<40}{r.grid:>10}{r.pulses:>8}{r.tuples:>10}"
            f"{r.cut:>8.3f}{r.slicing:>9.3f}{r.assembly:>9.3f}"
        )
    return "\n".join(lines)


def _total(readers: list[ReaderTimes]) -> ReaderTimes:
    total = ReaderTimes("all", "")
    for r in readers:
        total.pulses += r.pulses
        total.tuples += r.tuples
        total.cut += r.cut
        total.slicing += r.slicing
        total.assembly += r.assembly
    return total


def timed_readers(workload, tracer) -> list[ReaderTimes]:
    """Run one pass with ``perf_counter`` around the reader's pulse cut
    (``_next_pulse``), pane slicing (``_slice_pulse``) and batch
    assembly (``_assemble``)."""
    from repro.streams.wcache import SharedWindowReader

    readers: dict[int, ReaderTimes] = {}
    originals = {
        name: getattr(SharedWindowReader, name)
        for name in ("_next_pulse", "_slice_pulse", "_assemble")
    }

    def times_of(reader) -> ReaderTimes:
        times = readers.get(id(reader))
        if times is None:
            spec = reader.spec
            times = readers[id(reader)] = ReaderTimes(
                reader.stream_name,
                f"{spec.range_seconds:g}/{spec.slide_seconds:g}",
            )
        return times

    def next_pulse(reader):
        started = perf_counter()
        pulse = originals["_next_pulse"](reader)
        times = times_of(reader)
        times.cut += perf_counter() - started
        if pulse is not None:
            times.pulses += 1
            times.tuples += len(pulse.fresh)
        return pulse

    def slice_pulse(reader, pulse):
        started = perf_counter()
        originals["_slice_pulse"](reader, pulse)
        times_of(reader).slicing += perf_counter() - started

    def assemble(reader, pulse):
        started = perf_counter()
        batch = originals["_assemble"](reader, pulse)
        times_of(reader).assembly += perf_counter() - started
        return batch

    SharedWindowReader._next_pulse = next_pulse
    SharedWindowReader._slice_pulse = slice_pulse
    SharedWindowReader._assemble = assemble
    gc.collect()
    try:
        workload.run_pass(tracer)
    finally:
        for name, method in originals.items():
            setattr(SharedWindowReader, name, method)
    return list(readers.values())


class CheckpointTimes:
    """Seconds per checkpoint step over one pass, the plan frames
    written, and each epoch's pickled bytes by part."""

    STEPS = ("snapshot walk", "pickling", "append (fsync incl.)")
    PARTS = ("reader positions", "runtime rings", "MQO entries", "plan frames", "sinks")

    def __init__(self) -> None:
        self.epochs = self.plan_frames = self.appends = 0
        self.seconds = dict.fromkeys(self.STEPS, 0.0)
        self.bytes = dict.fromkeys(self.PARTS, 0)

    def count_parts(self, snap: dict) -> None:
        import pickle

        def size(value) -> int:
            return len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

        scopes = snap["scopes"].values()
        self.epochs += 1
        for part, value in (
            ("reader positions", [r["readers"] for r in scopes]),
            ("runtime rings", [r["runtimes"] for r in scopes]),
            ("MQO entries", snap["mqo"]),
            ("sinks", [q["sink"] for q in snap["queries"]]),
        ):
            self.bytes[part] += size(value)

    def table(self) -> str:
        epochs = self.epochs or 1
        lines = [f"{'step':<28}{'s per pass':>12}{'ms per epoch':>14}"]
        for step, seconds in self.seconds.items():
            lines.append(f"{step:<28}{seconds:>12.4f}{seconds / epochs * 1e3:>14.2f}")
        total = sum(self.seconds.values())
        lines.append(f"{'all':<28}{total:>12.4f}{total / epochs * 1e3:>14.2f}")
        lines.append(f"{'appends':<28}{self.appends:>12}")
        lines.append(f"{'plan frames written':<28}{self.plan_frames:>12}")
        lines.append(f"\n{'part':<28}{'KB per epoch':>12}")
        for part, count in self.bytes.items():
            lines.append(f"{part:<28}{count / epochs / 1e3:>12.1f}")
        lines.append(
            f"{'all parts':<28}{sum(self.bytes.values()) / epochs / 1e3:>12.1f}"
        )
        return f"{self.epochs} epochs\n" + "\n".join(lines)


def timed_checkpoints(workload, tracer) -> CheckpointTimes:
    """Run one pass with ``perf_counter`` around each step of
    ``CheckpointManager.checkpoint``: the snapshot walk
    (``snapshot_gateway``, less the plan pickling it calls),
    ``pickle.dumps`` and ``CheckpointLog.write`` (its fsync included).
    Plan frames are counted and sized as they are framed; the other
    part sizes are pickled apart, outside the timed steps."""
    import pickle
    import types

    from repro.exastream.durability import checkpoint
    from repro.exastream.durability.log import KIND_PLAN, CheckpointLog

    times = CheckpointTimes()
    seconds = times.seconds
    originals = (
        checkpoint.snapshot_gateway, checkpoint.pickle,
        CheckpointLog.write, checkpoint.frame,
    )

    def timed(step, fn):
        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            seconds[step] += perf_counter() - started
            return result
        return wrapper

    def snapshot_gateway(gateway, plan_at):
        pickling = seconds["pickling"]
        snap = walk(gateway, plan_at)
        # the walk pickles new plans through plan_at: book that apart
        seconds["snapshot walk"] -= seconds["pickling"] - pickling
        times.count_parts(snap)
        return snap

    def frame(kind, epoch, payload):
        if kind == KIND_PLAN:
            times.plan_frames += 1
            times.bytes["plan frames"] += len(payload)
        return originals[3](kind, epoch, payload)

    def write(log, data, at=None):
        times.appends += 1
        return timed_write(log, data, at)

    walk = timed("snapshot walk", originals[0])
    timed_write = timed("append (fsync incl.)", originals[2])
    checkpoint.snapshot_gateway = snapshot_gateway
    checkpoint.pickle = types.SimpleNamespace(
        dumps=timed("pickling", pickle.dumps),
        loads=pickle.loads,
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    )
    CheckpointLog.write = write
    checkpoint.frame = frame
    gc.collect()
    try:
        workload.run_pass(tracer)
    finally:
        checkpoint.snapshot_gateway, checkpoint.pickle = originals[:2]
        CheckpointLog.write, checkpoint.frame = originals[2:]
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="siemens_catalog")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()

    # the ledger's own path set-up: this checkout's src/, and
    # benchmarks/ as the home of the ``ledger`` package
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from ledger.oracle import load_golden
    from ledger.spec import SCALES
    from ledger.trace import NullTracer
    from ledger.workloads import make_workload
    from repro.exastream.engine import PlanRuntime

    sizes = SCALES[args.scale]
    workload = make_workload(args.workload, args.seed, sizes)
    # as the ledger does: siemens_ops stops its server (the "crash")
    # after this share of the oracle's windows, then recovers
    oracle = load_golden(args.workload, args.seed, sizes.inputs())
    workload.expected_windows = (oracle or workload.reference()).windows
    workload.run_pass(NullTracer())  # warm-up, discarded
    readers = timed_readers(workload, NullTracer())
    checkpoints = (
        timed_checkpoints(workload, NullTracer())
        if args.workload == "siemens_ops" else None
    )

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
          "stream readers (perf_counter pass, no profiler)")
    print(reader_table(readers))
    if checkpoints is not None:
        print(f"\n== {args.workload} seed {args.seed} scale {args.scale}: "
              "checkpoints (perf_counter pass, no profiler)")
        print(checkpoints.table())
    print(f"\n== {args.workload} seed {args.seed} scale {args.scale}: "
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
