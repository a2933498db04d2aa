"""Monitoring dashboards for registered diagnostic tasks.

"To demonstrate diagnostics results we prepared a devoted monitoring
dashboard for each diagnostic task in the catalog.  Dashboards show
diagnostics results in real time, as well as statistics on streaming
answers, relevant turbines, and other information."

The dashboard consumes :class:`~repro.exastream.engine.WindowResult`
objects and maintains per-task statistics plus the set of affected
entities; ``render()`` produces the text view the demo would display.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..exastream import WindowResult

__all__ = ["TaskPanel", "Dashboard"]


@dataclass
class TaskPanel:
    """Statistics of one diagnostic task."""

    task_name: str
    windows_seen: int = 0
    windows_with_alerts: int = 0
    total_alerts: int = 0
    last_window_id: int = -1
    last_window_end: float = 0.0
    affected_entities: Counter = field(default_factory=Counter)

    def observe(self, result: WindowResult) -> None:
        """Fold one window result into the panel."""
        self.windows_seen += 1
        self.last_window_id = result.window_id
        self.last_window_end = result.window_end
        if result.rows:
            self.windows_with_alerts += 1
            self.total_alerts += len(result.rows)
            for row in result.rows:
                self.affected_entities[str(row[0])] += 1

    @property
    def alert_rate(self) -> float:
        if self.windows_seen == 0:
            return 0.0
        return self.windows_with_alerts / self.windows_seen

    def top_entities(self, n: int = 5) -> list[tuple[str, int]]:
        return self.affected_entities.most_common(n)


class Dashboard:
    """All task panels of one deployment."""

    def __init__(self) -> None:
        self._panels: dict[str, TaskPanel] = {}

    def _panel_for(self, task_name: str) -> TaskPanel:
        panel = self._panels.get(task_name)
        if panel is None:
            panel = TaskPanel(task_name)
            self._panels[task_name] = panel
        return panel

    def observe(self, result: WindowResult) -> None:
        """Route one window result to its task's panel."""
        self._panel_for(result.query).observe(result)

    def subscribe(self, handle) -> TaskPanel:
        """Attach a panel to a query handle's own subscriber list.

        Accepts anything with ``name`` and ``subscribe(callback)`` — a
        session :class:`~repro.optique.session.QueryHandle` or a gateway
        :class:`~repro.exastream.gateway.RegisteredQuery`.  The panel then
        updates per result as the cooperative executor steps.
        Subscribing the same handle twice is a no-op (per-callback
        idempotent), so sessions that auto-attach a dashboard compose
        with manual calls.
        """
        panel = self._panel_for(handle.name)
        handle.subscribe(self.observe)
        return panel

    def panel(self, task_name: str) -> TaskPanel:
        return self._panels[task_name]

    @property
    def panels(self) -> list[TaskPanel]:
        return sorted(self._panels.values(), key=lambda p: p.task_name)

    def total_alerts(self) -> int:
        return sum(p.total_alerts for p in self._panels.values())

    def render(self) -> str:
        """The text dashboard (one line per task)."""
        lines = [
            f"{'task':<28} {'windows':>8} {'alerts':>7} {'rate':>6}  top entities",
            "-" * 88,
        ]
        for panel in self.panels:
            top = ", ".join(
                f"{entity.rsplit('/', 1)[-1]}x{count}"
                for entity, count in panel.top_entities(3)
            )
            lines.append(
                f"{panel.task_name:<28} {panel.windows_seen:>8} "
                f"{panel.total_alerts:>7} {panel.alert_rate:>6.0%}  {top}"
            )
        lines.append("-" * 88)
        lines.append(f"total alerts: {self.total_alerts()}")
        return "\n".join(lines)
