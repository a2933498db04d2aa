"""Stream substrate: stream sources, CQL windows and panes, the wCache."""

from .stream import ListSource, Stream, StreamSchema, StreamSource, merge_sources
from .wcache import SharedWindowReader, WindowCache, WindowCacheStats
from .window import (
    Heartbeat,
    PanePlan,
    PaneSlice,
    PaneWindow,
    PulseResume,
    WindowBatch,
    WindowSpec,
    pane_plan,
    time_sliding_window,
)

__all__ = [
    "ListSource",
    "Stream",
    "StreamSchema",
    "StreamSource",
    "merge_sources",
    "SharedWindowReader",
    "WindowCache",
    "WindowCacheStats",
    "Heartbeat",
    "PanePlan",
    "PaneSlice",
    "PaneWindow",
    "PulseResume",
    "WindowBatch",
    "WindowSpec",
    "pane_plan",
    "time_sliding_window",
]
