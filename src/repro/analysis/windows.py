"""Window-grid diagnostics: why a plan will (or won't) run incrementally.

The planner classifies every plan as PANE_INCREMENTAL / PANE_JOIN /
RECOMPUTE (:func:`repro.exastream.partial_agg.analyze_incremental`);
this module turns that classification — and the
pane-decomposition arithmetic behind it — into diagnostics a query
author can act on *before* the query runs: non-decomposable range/slide
grids, the pane cap, aggregates outside the combinable set, and
two-stream joins whose grids force full recompute.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..streams.window import MAX_PANES_PER_WINDOW, pane_plan
from .diagnostics import AnalysisReport, Severity, find_span

__all__ = ["check_windows"]


def _window_needle(ref) -> tuple[str, ...]:
    """Text snippets that likely locate this window in the source."""
    spec = ref.spec

    def fmt(value: float) -> str:
        return str(int(value)) if value == int(value) else str(value)

    return (
        f"timeSlidingWindow({ref.stream}, {fmt(spec.range_seconds)}, "
        f"{fmt(spec.slide_seconds)})",
        ref.stream,
    )


def _explain_non_decomposable(spec) -> tuple[str, str]:
    """(reason, hint) for why ``pane_plan(spec)`` returned ``None``."""
    fr = Fraction(spec.range_seconds)
    fs = Fraction(spec.slide_seconds)
    gcd = Fraction(
        math.gcd(fr.numerator * fs.denominator, fs.numerator * fr.denominator),
        fr.denominator * fs.denominator,
    )
    panes_per_window = fr / gcd
    if panes_per_window > MAX_PANES_PER_WINDOW:
        return (
            f"gcd(range, slide) = {float(gcd)}s yields "
            f"{panes_per_window} panes per window, over the "
            f"{MAX_PANES_PER_WINDOW}-pane cap",
            "align the slide to a coarser divisor of the range "
            f"(at most {MAX_PANES_PER_WINDOW} panes per window)",
        )
    return (
        f"the pane width {float(gcd)}s is not exactly representable in "
        "float arithmetic, so pane boundaries would drift off the window "
        "grid",
        "use range/slide values whose ratio is exact in binary "
        "(e.g. whole seconds)",
    )


def check_windows(plan, report: AnalysisReport) -> None:
    """Pane-decomposition and incremental-mode diagnostics for a plan."""
    source = plan.source
    decision = plan.incremental

    for ref in plan.windows:
        spec = ref.spec
        if spec.range_seconds <= spec.slide_seconds:
            kind = (
                "tumbling"
                if spec.range_seconds == spec.slide_seconds
                else "sampling"
            )
            report.add(
                "ANA020",
                Severity.INFO,
                f"window {ref.alias!r} over {ref.stream!r} is {kind} "
                f"(range {spec.range_seconds}s <= slide "
                f"{spec.slide_seconds}s): consecutive windows share no "
                "tuples, so pane reuse does not apply",
                span=find_span(source, *_window_needle(ref)),
            )
            continue
        if pane_plan(spec) is None:
            reason, hint = _explain_non_decomposable(spec)
            report.add(
                "ANA021",
                Severity.WARNING,
                f"window {ref.alias!r} over {ref.stream!r} (range "
                f"{spec.range_seconds}s, slide {spec.slide_seconds}s) is "
                f"not pane-decomposable: {reason}; the engine recomputes "
                "every window from scratch",
                span=find_span(source, *_window_needle(ref)),
                hint=hint,
            )

    if decision is not None and not decision.is_incremental:
        overlapping = any(
            w.spec.range_seconds > w.spec.slide_seconds for w in plan.windows
        )
        decomposable = any(pane_plan(w.spec) is not None for w in plan.windows)
        # Only surface the engine's reason when there was something to
        # lose — an overlapping, decomposable window running in recompute
        # mode.  Per-window causes are already reported above.
        if overlapping and decomposable:
            report.add(
                "ANA022",
                Severity.WARNING,
                "the plan runs in RECOMPUTE mode although its windows "
                f"overlap: {decision.reason}",
                span=_decision_span(plan, decision),
                hint=_decision_hint(decision.reason),
            )

    if len(plan.windows) == 2:
        a, b = plan.windows
        if (
            a.spec != b.spec
            and pane_plan(a.spec) is not None
            and pane_plan(b.spec) is not None
            and decision is not None
            and decision.is_pane_join
        ):
            report.add(
                "ANA023",
                Severity.INFO,
                f"joined streams use different window grids "
                f"({a.alias}: {a.spec.range_seconds}/"
                f"{a.spec.slide_seconds}s, {b.alias}: "
                f"{b.spec.range_seconds}/{b.spec.slide_seconds}s); "
                "window instances pair by window id on each stream's own "
                "pulse grid",
                span=find_span(source, *_window_needle(b)),
            )


def _decision_span(plan, decision):
    source = plan.source
    reason = decision.reason or ""
    if "aggregate" in reason:
        # point at the first offending aggregate call if we can find it
        if plan.aggregate is not None:
            for call in plan.aggregate.calls:
                span = find_span(source, call.function)
                if span is not None:
                    return span
    return find_span(source, *_window_needle(plan.windows[0]))


def _decision_hint(reason: str | None) -> str | None:
    if reason is None:
        return None
    if "non-decomposable aggregates" in reason:
        return (
            "only COUNT/SUM/AVG/MIN/MAX combine across panes; sequence "
            "UDFs need the full window"
        )
    if "row order" in reason:
        return "aggregate instead of projecting raw rows, or accept recompute"
    if "equi-join key" in reason:
        return (
            "add a direct stream-stream equality (a.x = b.y) so the "
            "symmetric-hash pane join applies"
        )
    if "more than two" in reason:
        return "pane joins pair exactly two windowed streams"
    return None
