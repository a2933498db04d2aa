"""One command for the repo benchmark.

    python benchmarks/ledger/run.py                      # all four workloads
    python benchmarks/ledger/run.py --workload pane_hot --seed 23
    python benchmarks/ledger/run.py --aa                 # A/A noise check
    python benchmarks/ledger/run.py --write-golden --seed 11

With ``--workload NAME`` the workload runs in this process and the last
line of stdout is the driver's JSON object (``BENCHMARK.json`` contract):
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, every workload runs in a fresh subprocess
(untraced passes, then one traced pass), the per-workload reports are
merged into ``out/ledger.seed<S>.json`` and the exit code is non-zero on
any oracle mismatch or broken workload premise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    # Run as a script: import the checkout's own source tree and this
    # directory as the ``ledger`` package; keep the script directory
    # itself off the path so ``trace``/``compare`` shadow nothing.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: {ROOT / 'src' / 'repro'} not found; nothing to measure")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from ledger import oracle as oracle_mod  # noqa: E402
from ledger import trace as trace_mod  # noqa: E402
from ledger.spec import (  # noqa: E402
    DRIVER_END_TO_END,
    END_TO_END,
    LEDGER_ONLY,
    PER_LAYER,
    SCALES,
    WORKLOADS,
    metrics_for,
    percentile,
    summarize,
)
from ledger.workloads import OUT_DIR, make_workload  # noqa: E402

RUN_SECONDS = 15  # BENCHMARK.json's run_seconds
DEFAULT_SEED = 11


# -- one workload, in this process -------------------------------------------


def _evaluate(result, oracle) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one pass against the oracle."""
    attempted = len(result.register_ms) + result.register_failed
    failed = result.register_failed
    for label, results in result.streams.values():
        if label in oracle.expected:
            attempted += oracle.expected[label][1]
            failed += oracle.failed_windows(label, results)
    return attempted, failed


def _self_oracle(result) -> oracle_mod.Oracle:
    """Run-to-run equality: the first pass's digests, per label."""
    expected = {}
    for label, results in result.streams.values():
        expected.setdefault(label, oracle_mod.digest_results(results))
    return oracle_mod.Oracle("self", expected)


def _pass_values(result) -> dict[str, float]:
    """One pass's value for every end-to-end timing (the report keeps
    the ones the workload defines)."""
    values = {
        "register_total_ms": sum(result.register_ms),
        # one segment per drained run; register_churn has one per session
        "tuples_per_s": statistics.median(
            tuples / wall for tuples, wall in result.segments
        ),
        "window_ms_p50": percentile(result.window_ms, 50),
        "window_ms_p99": percentile(result.window_ms, 99),
        "register_ms_p50": percentile(result.register_ms, 50),
        "register_ms_p99": percentile(result.register_ms, 99),
    }
    values.update(result.extra)
    return values


def _layer_metrics(traced, trace_path: Path, unresolved: set[str],
                   untraced_walls: list[float]) -> dict:
    """Every per-layer metric of the traced pass (``None`` = unresolved)."""
    spans = trace_mod.read_spans(trace_path)
    layers = trace_mod.span_metrics(spans, unresolved)
    counts = traced.counts
    for key in ("engine.tuples_in", "engine.tuples_out", "engine.panes_built",
                "mqo.pipelines", "bus.deliveries", "bus.dropped",
                "bus.backpressure_deferrals", "gateway.deliver.busy_s",
                "wcache.hit_ratio", "wcache.pane_hit_ratio"):
        layers[key] = counts[key]
    layers["starql.translate.cache_hit_ratio"] = counts.get(
        "starql.translate.cache_hit_ratio", 0.0
    )
    lookups = counts["registry.mqo_lookups"]
    layers["mqo.hit_ratio"] = (
        counts["registry.mqo_hits"] / lookups if lookups else 0.0
    )
    pane_windows = layers["engine.pane.windows"]
    layers["engine.pane.served_ratio"] = (
        None if pane_windows is None
        else counts["registry.pane_served_windows"] / pane_windows
        if pane_windows else 0.0
    )
    layers["durability.checkpoint.epochs"] = counts.get(
        "durability.checkpoint.epochs", 0
    )
    layers["durability.checkpoint.bytes"] = counts.get(
        "durability.checkpoint.bytes", 0
    )
    layers["bench.trace_overhead_pct"] = (
        (traced.execute_wall_s / statistics.median(untraced_walls) - 1.0)
        * 100.0
    )
    wall = traced.register_wall_s + traced.execute_wall_s
    attributed = trace_mod.attributed_seconds(spans, ("register", "execute"))
    layers["bench.unattributed_share"] = max(0.0, 1.0 - attributed / wall)
    return layers


def _environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", write_golden: bool = False) -> dict:
    """Run one workload here and return its report (see README)."""
    sizes = SCALES[scale]
    workload = make_workload(name, seed, sizes)
    oracle = None if write_golden else oracle_mod.load_golden(
        name, seed, sizes.inputs()
    )
    if oracle is None:
        oracle = workload.reference()
    if write_golden and not oracle.expected:
        raise SystemExit("ledger: --write-golden needs the independent path")
    workload.expected_windows = oracle.windows

    null = trace_mod.NullTracer()
    if sizes.warmup and not oracle.warmed:
        workload.warm_up()
    single = write_golden or workload.single_pass
    min_passes = 1 if single else sizes.min_passes
    passes, attempted, failed = [], 0, 0
    per_pass_ops: list[int] = []
    premises: list[str] = []
    began = perf_counter()
    while len(passes) < min_passes or perf_counter() - began < seconds:
        gc.collect()
        result = workload.run_pass(null)
        if not oracle.expected:
            oracle = _self_oracle(result)
        ops, bad = _evaluate(result, oracle)
        attempted, failed = attempted + ops, failed + bad
        per_pass_ops.append(ops)
        premises.extend(result.premises)
        result.streams.clear()  # digested: keep peak RSS about the system
        passes.append(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up is short (tens of ms): sample it several more times
    extra_setups = [workload.sample_setup() for _ in range(sizes.setup_samples)]

    per_pass = [_pass_values(result) for result in passes]
    end_to_end = {}
    for metric in metrics_for(name):
        if metric.name == "setup_s":
            values = [s for result in passes for s in result.setup_s]
            values += extra_setups
        elif metric.name == "peak_rss_mb":
            values = [peak_rss_mb]
        elif metric.name == "ops_attempted":
            values = per_pass_ops
        elif metric.name == "failed_share":
            values = [failed / attempted]
        else:
            values = [v[metric.name] for v in per_pass]
        end_to_end[metric.name] = {"unit": metric.unit, **summarize(values, metric)}

    report = {
        "workload": name,
        "why": WORKLOADS[name],
        "seed": seed,
        "scale": scale,
        "sizes": sizes.as_dict(),
        "seconds": seconds,
        "passes": len(passes),
        "oracle": {"source": oracle.source, "digest": oracle.digest(),
                   "windows": oracle.windows},
        "end_to_end": end_to_end,
        "env": _environment(),
    }

    if trace:
        tracer = trace_mod.Tracer()
        gc.collect()
        with trace_mod.installed(tracer):
            traced = workload.run_pass(tracer)
        ops, bad = _evaluate(traced, oracle)
        attempted, failed = attempted + ops, failed + bad
        premises.extend(traced.premises)
        trace_path = OUT_DIR / f"{name}.trace.jsonl"
        tracer.write(trace_path)
        layers = _layer_metrics(
            traced, trace_path, tracer.unresolved,
            [result.execute_wall_s for result in passes],
        )
        report["per_layer"] = {
            key: {"unit": unit, "value": layers[key]}
            for key, unit in PER_LAYER.items()
        }
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    if write_golden:
        if failed or premises:
            raise SystemExit(
                f"ledger: measured path disagrees with the independent path "
                f"({failed} failed, premises {premises}); golden not written"
            )
        path = oracle_mod.write_golden(name, seed, sizes.inputs(), oracle)
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    report.update(
        attempted=attempted, failed=failed, premises=premises,
        correct=failed == 0 and not premises,
    )
    return report


def render_report(report: dict) -> str:
    """The human-readable table of one workload's report."""
    lines = [
        f"== {report['workload']} (seed {report['seed']}, scale "
        f"{report['scale']}, {report['passes']} passes, oracle: "
        f"{report['oracle']['source']}) ==",
        f"   {report['why']}",
        f"  {'end-to-end metric':<28}{'unit':<10}{'value':>14}{'median':>14}"
        f"{'IQR':>12}{'n':>6}",
    ]
    for name, row in report["end_to_end"].items():
        lines.append(
            f"  {name:<28}{row['unit']:<10}{row['value']:>14.4f}"
            f"{row['median']:>14.4f}{row['iqr']:>12.4f}{row['n']:>6}"
        )
    if "per_layer" in report:
        lines.append(f"  {'per-layer metric':<38}{'unit':<8}{'value':>14}")
        for name, row in report["per_layer"].items():
            value = row["value"]
            shown = "null" if value is None else f"{value:.4f}"
            lines.append(f"  {name:<38}{row['unit']:<8}{shown:>14}")
        lines.append(trace_mod.render_stage_table(ROOT / report["trace_file"]))
    for sentence in report["premises"]:
        lines.append(f"  PREMISE BROKEN: {sentence}")
    lines.append(
        f"  attempted {report['attempted']}, failed {report['failed']}, "
        f"correct {report['correct']}"
    )
    return "\n".join(lines)


def driver_line(report: dict, trace: bool) -> str:
    """The last stdout line the ``BENCHMARK.json`` contract asks for."""
    metrics = {}
    if trace:
        rows = dict(report["per_layer"])
        for name in LEDGER_ONLY:  # one-workload end-to-end metrics
            row = report["end_to_end"].get(name)
            rows[name] = (
                {"unit": row["unit"], "value": row["value"]} if row
                else {"unit": _UNITS[name], "value": 0.0}
            )
        for name, row in rows.items():
            value = row["value"]
            if value is None:  # unresolved entry point: warned at install
                value = 0.0
            metrics[name] = {"value": value, "unit": row["unit"]}
    else:
        for name in DRIVER_END_TO_END:
            row = report["end_to_end"][name]
            metrics[name] = {"value": row["value"], "unit": row["unit"]}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


_UNITS = {metric.name: metric.unit for metric in END_TO_END}


# -- every workload, one subprocess each -------------------------------------


def run_all(seed: int, seconds: float, scale: str, tag: str) -> tuple[Path, bool]:
    """Run the four workloads; returns ``(ledger file, all correct)``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    reports = {}
    for name in WORKLOADS:
        report_path = OUT_DIR / f"{name}.{tag}.json"
        report_path.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
             "--scale", scale, "--report", str(report_path)],
            check=False,
        )
        if not report_path.exists():
            raise SystemExit(f"ledger: workload {name} produced no report")
        reports[name] = json.loads(report_path.read_text())
    ledger_path = OUT_DIR / f"ledger.{tag}.json"
    ledger_path.write_text(json.dumps(
        {"seed": seed, "scale": scale, "workloads": reports}, indent=1
    ))
    print(f"ledger written to {ledger_path.relative_to(ROOT)}")
    return ledger_path, all(r["correct"] for r in reports.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--report", type=Path,
                        help="also write the workload's report as JSON")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare the two")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden/<workload>.seed<S>.sha256")
    args = parser.parse_args(argv)

    if args.write_golden:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            run_workload(name, args.seed, 0, False, args.scale, True)
        return 0
    if args.aa:
        from ledger import compare

        first, ok_a = run_all(args.seed, args.seconds, args.scale, "aa-A")
        second, ok_b = run_all(args.seed, args.seconds, args.scale, "aa-B")
        return compare.main([str(first), str(second)]) or int(not (ok_a and ok_b))
    if args.workload == "all":
        _, ok = run_all(args.seed, args.seconds, args.scale, f"seed{args.seed}")
        return int(not ok)

    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1))
    print(render_report(report))
    print(driver_line(report, bool(args.trace)))
    return int(not report["correct"])


if __name__ == "__main__":
    sys.exit(main())
