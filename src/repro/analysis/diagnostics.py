"""Structured diagnostics: the analyzer's output vocabulary.

Every finding of the static CQ analyzer is a :class:`Diagnostic` — a
severity, a stable code, a human-readable message, an optional source
span into the query text and an optional fix hint.  Reports group the
diagnostics of one query and render them ``file:line:col``-style so the
CLI and CI output stay greppable.

Severities:

* ``error`` — the query is wrong (it can never produce a row, references
  unknown columns, or compares incompatible types); a caller that
  refuses such queries checks :attr:`AnalysisReport.has_errors` before
  registering.
* ``warning`` — the query runs but defeats an engine optimization
  (non-pane-decomposable windows, the pane cap, mismatched join grids).
* ``info`` — advisory observations: predicted MQO sharing, redundant
  filters, containment-based subsumption opportunities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Severity", "SourceSpan", "Diagnostic", "AnalysisReport", "find_span"]


class Severity(str, Enum):
    """How bad one finding is (orderable: error > warning > info)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A half-open ``[start, end)`` character range into the query text."""

    start: int
    end: int
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def find_span(text: str | None, *needles: str) -> SourceSpan | None:
    """Locate the first of ``needles`` in ``text`` as a source span.

    Spans are best-effort: analyzer checks run over plan objects, so a
    finding is tied back to the text by searching for the offending
    snippet (a literal, a column name, a window clause).  ``None`` when
    the text is unavailable or no needle occurs.
    """
    if not text:
        return None
    for needle in needles:
        if not needle:
            continue
        start = text.find(needle)
        if start >= 0:
            prefix = text[:start]
            line = prefix.count("\n") + 1
            column = start - (prefix.rfind("\n") + 1) + 1
            return SourceSpan(start, start + len(needle), line, column)
    return None


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    hint: str | None = None

    def render(self, query: str = "") -> str:
        where = f":{self.span}" if self.span is not None else ""
        prefix = f"{query}{where}: " if query or where else ""
        text = f"{prefix}{self.severity}[{self.code}]: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class AnalysisReport:
    """All diagnostics produced for one query."""

    query: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        span: SourceSpan | None = None,
        hint: str | None = None,
    ) -> None:
        self.diagnostics.append(Diagnostic(code, severity, message, span, hint))

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def render(self) -> str:
        """Human-readable multi-line report, most severe first."""
        ordered = sorted(
            self.diagnostics, key=lambda d: -d.severity.rank
        )
        if not ordered:
            return f"{self.query}: no findings"
        return "\n".join(d.render(self.query) for d in ordered)
