"""What the delivered windows are checked against.

Every query's delivered windows are folded into one sha256 over
``(window_id, window_end, columns, rows)`` in delivery order.  The
expected digests come from, in order of preference:

* a committed golden (``golden/<workload>.seed<S>.sha256``) when one
  exists for this seed *and* these sizes — regenerated only by
  ``run.py --write-golden``, which also cross-checks it against the
  independent path;
* for seeds without a golden: the independent path itself, computed
  untimed before the passes.  For the Siemens workloads that is the
  repo's full-recompute, unshared, unsharded executor; for ``pane_hot``
  a numpy evaluation of the two aggregates written here.

This module is the only place in the ledger that spells the
``incremental=`` / ``mqo=`` keywords.  When a later PR retires them the
reference degrades to "goldens only" with a warning (see
:func:`siemens_reference`); the passes themselves use no execution knob.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GOLDEN_DIR",
    "Oracle",
    "digest_results",
    "load_golden",
    "write_golden",
    "siemens_reference",
    "pane_reference",
]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def digest_results(results) -> tuple[str, int]:
    """``(sha256 hex, window count)`` of one query's delivered windows."""
    sha = hashlib.sha256()
    count = 0
    for r in results:
        sha.update(
            repr((r.window_id, r.window_end, tuple(r.columns), list(r.rows)))
            .encode()
        )
        count += 1
    return sha.hexdigest(), count


def _sizes_key(sizes: dict) -> str:
    return hashlib.sha256(
        json.dumps(sizes, sort_keys=True).encode()
    ).hexdigest()[:16]


@dataclass
class Oracle:
    """Expected ``label -> (sha256, window count)`` and where it came from."""

    source: str  # "golden" | "reference" | "none"
    expected: dict[str, tuple[str, int]]
    #: computing it ran the system on these inputs in this process, so
    #: the runner needs no separate discarded warm-up pass
    warmed: bool = False

    @property
    def windows(self) -> int:
        return sum(n for _, n in self.expected.values())

    def digest(self) -> str:
        """One digest over the whole table (what compare.py matches)."""
        sha = hashlib.sha256()
        for label in sorted(self.expected):
            sha.update(f"{label} {self.expected[label]}".encode())
        return sha.hexdigest()

    def failed_windows(self, label: str, results) -> int:
        """Windows of one delivered stream that are missing or unequal.

        Digests are per query, so one unequal window fails every window
        of that query (the conservative count).
        """
        digest, expected_n = self.expected[label]
        got, n = digest_results(results)
        if got == digest:
            return 0
        return max(expected_n, n)


def _golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}.seed{seed}.sha256"


def load_golden(workload: str, seed: int, sizes: dict) -> Oracle | None:
    """The committed golden, or ``None`` if absent or for other sizes."""
    path = _golden_path(workload, seed)
    if not path.exists():
        return None
    expected: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:2] != ["#", "sizes"] or header[2] != _sizes_key(sizes):
            return None
        for line in fh:
            digest, entry = line.split()
            label, _, count = entry.rpartition(":")
            expected[label] = (digest, int(count))
    return Oracle("golden", expected)


def write_golden(workload: str, seed: int, sizes: dict, oracle: Oracle) -> Path:
    path = _golden_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# sizes {_sizes_key(sizes)}\n")
        for label in sorted(oracle.expected):
            digest, count = oracle.expected[label]
            fh.write(f"{digest}  {label}:{count}\n")
    return path


# -- independent paths ---------------------------------------------------------


def siemens_reference(build, tasks, max_windows: int | None) -> Oracle:
    """Digests of ``tasks`` on the full-recompute, unshared executor.

    ``build(**deploy_kwargs)`` stands up the workload's deployment; the
    reference asks it for the path that shares no pane, MQO or shard
    code with the measured run.
    """
    try:
        dep = build(incremental=False, mqo=False, shards=1)
    except TypeError as exc:  # the knobs were retired: goldens only
        print(
            f"ledger.oracle: independent path unavailable ({exc}); this "
            "seed has no golden, so outputs are checked for run-to-run "
            "equality only",
            file=sys.stderr,
        )
        return Oracle("none", {})
    try:
        session = dep.session(sink_capacity=None)
        handles = {
            label: session.submit(text, name=label, max_windows=max_windows)
            for label, text in tasks
        }
        while session.step(1):
            pass
        expected = {
            label: digest_results(handle.poll())
            for label, handle in handles.items()
        }
        session.close()
    finally:
        close_databases(dep)
    return Oracle("reference", expected, warmed=True)


def close_databases(dep) -> None:
    """Release a Siemens deployment's sqlite connections."""
    fleet = dep.fleet
    for database in (fleet.plant_db, fleet.legacy_db, fleet.history_db):
        database.close()


@dataclass
class _Window:
    window_id: int
    window_end: float
    columns: list[str]
    rows: list[tuple]


def pane_reference(inputs) -> Oracle:
    """numpy evaluation of ``pane_hot``'s two aggregates.

    CQL windows as the engine documents them: pulse ``k`` closes at
    ``k * slide`` (grid anchored at the first timestamp, 0.0), holds the
    tuples with ``end - range <= ts <= end``, and the stream's end
    flushes the one pending pulse.  Values are multiples of 1/16, so
    every sum is exact in binary floating point whatever the fold order
    and the comparison can be byte-for-byte.
    """
    hz, ticks = inputs.hz, inputs.values.shape[0]
    last_ts = (ticks - 1) / hz
    expected = {}
    for query in inputs.queries:
        keep = np.array(
            [query.static_filter(row) for row in inputs.static_rows[: inputs.values.shape[1]]]
        )
        sids = np.flatnonzero(keep)
        values = inputs.values[:, sids]
        passing = query.stream_filter(values)
        n_windows = math.ceil(last_ts / query.slide) + 1
        windows = []
        for k in range(n_windows):
            end = k * query.slide
            lo = max(0, math.ceil((end - query.range) * hz))
            hi = min(ticks - 1, math.floor(end * hz))
            block, mask = values[lo:hi + 1], passing[lo:hi + 1]
            counts = mask.sum(axis=0)
            rows = []
            for column in np.flatnonzero(counts):
                selected = block[mask[:, column], column]
                rows.append(
                    (int(sids[column]), *query.aggregate(selected))
                )
            windows.append(_Window(k, float(end), list(query.columns), rows))
        expected[query.name] = digest_results(windows)
    return Oracle("reference", expected)
