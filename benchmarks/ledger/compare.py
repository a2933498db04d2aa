"""Compare two ledger files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: both values, the ratio B/A
(A is the base), the metric's bound, and a verdict:

* ``ok``         B is no worse than A by more than the bound;
* ``regressed``  it is;
* ``unresolved`` either side's inter-quartile range is wider than the
  bound, so the pair cannot tell (single-sample metrics have no IQR and
  always resolve).

Files whose seeds, sizes or oracle digests differ measured different
inputs and are refused.  Exit code 1 on any ``regressed`` row or a
higher ``failed_share``; 2 when the files are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ledger.spec import END_TO_END  # noqa: E402

__all__ = ["compare", "main"]


def _incomparable(a: dict, b: dict) -> list[str]:
    reasons = []
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            reasons.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            reasons.append(f"{name}: present in one file only")
            continue
        if wa["sizes"] != wb["sizes"]:
            reasons.append(f"{name}: sizes differ")
        if wa["oracle"]["digest"] != wb["oracle"]["digest"]:
            reasons.append(f"{name}: oracle digests differ")
    return reasons


def _verdict(metric, row_a: dict, row_b: dict) -> tuple[float, str]:
    base, new = row_a["value"], row_b["value"]
    ratio = new / base if base else float("inf") if new else 1.0
    if metric.bound is None:  # a count of work: any change is a change
        return ratio, "ok" if new == base else "regressed"
    if metric.name == "failed_share":  # any increase
        return ratio, "regressed" if new > base else "ok"
    for row in (row_a, row_b):
        if row["median"] and row["iqr"] / row["median"] > metric.bound:
            return ratio, "unresolved"
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    return ratio, "regressed" if worse > metric.bound else "ok"


def compare(a: dict, b: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, unit, A, B, ratio, bound, verdict)``
    and whether anything regressed."""
    rows, regressed = [], False
    for name, report_a in a["workloads"].items():
        report_b = b["workloads"][name]
        for metric in END_TO_END:
            row_a = report_a["end_to_end"].get(metric.name)
            row_b = report_b["end_to_end"].get(metric.name)
            if row_a is None or row_b is None:
                continue
            ratio, verdict = _verdict(metric, row_a, row_b)
            regressed = regressed or verdict == "regressed"
            rows.append((name, metric.name, metric.unit, row_a["value"],
                         row_b["value"], ratio, metric.bound, verdict))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    reasons = _incomparable(a, b)
    if reasons:
        print("not comparable: " + "; ".join(reasons), file=sys.stderr)
        return 2
    rows, regressed = compare(a, b)
    print(f"base A = {argv[0]}, B = {argv[1]}, ratio = B / A")
    print(f"{'workload':<17}{'metric':<28}{'unit':<10}{'A':>14}{'B':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for name, metric, unit, va, vb, ratio, bound, verdict in rows:
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<17}{metric:<28}{unit:<10}{va:>14.4f}{vb:>14.4f}"
              f"{ratio:>8.3f}{shown:>7}  {verdict}")
    return int(regressed)


if __name__ == "__main__":
    sys.exit(main())
