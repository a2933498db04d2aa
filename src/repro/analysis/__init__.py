"""Static CQ diagnostics: on-demand analysis + invariant audit.

Layer 1 — the **CQ analyzer** (:func:`analyze_plan`,
:func:`analyze_starql`): type inference against the relational schemas
and ontology mappings, interval-arithmetic satisfiability of predicate
sets, join-key compatibility, window-grid/pane diagnostics, and MQO
sharing predictions read from the gateway's live pipeline registry.
Findings are structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects (severity,
source span, fix hint).  Analysis runs only when asked —
``Session.explain``, ``python -m repro.analysis`` — and binds nothing;
registration never runs it.  To refuse a query on error-severity
findings, explain it, check ``report.has_errors`` and do not submit it.

Layer 2 — the **plan-invariant verifier** (:func:`verify_gateway`):
debug/audit assertions over live engine state (demand refcount balance,
pane-ring bounds, planner/runtime signature agreement), enabled via the
``REPRO_AUDIT`` environment variable and run in CI over the Siemens
suite and the randomized query corpus.

``python -m repro.analysis`` lints STARQL files from the command line.
"""

from .analyzer import analyze_plan, analyze_starql
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceSpan,
    find_span,
)
from .verifier import InvariantViolation, verify_gateway, verify_runtime

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    "InvariantViolation",
    "analyze_plan",
    "analyze_starql",
    "find_span",
    "verify_gateway",
    "verify_runtime",
]
