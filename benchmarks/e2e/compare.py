"""Diff two reports of ``run.py``, row by row.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric.  A row is a REGRESSION when
B's median is worse than A's by more than the metric's bound from
``BENCHMARK.json``; it is *unresolved* when the two inter-quartile
ranges overlap by more than the bound (the runs cannot be told apart at
the resolution the bound asks for), unless every slice of B reads
better than every slice of A.  Exits non-zero on a regression or when B
failed a larger share of its operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def _quartiles(row: dict) -> tuple[float, float]:
    values = row.get("values") or [row["value"]]
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(report_a: dict, report_b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, change, bound, status)`` and pass/fail."""
    rows = []
    passed = True
    for workload, a in sorted(report_a["workloads"].items()):
        b = report_b["workloads"].get(workload)
        if b is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row_a, row_b = a["end_to_end"].get(name), b["end_to_end"].get(name)
            if row_a is None or row_b is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (row_b["value"] - row_a["value"]) / row_a["value"]
            (a_low, a_high), (b_low, b_high) = _quartiles(row_a), _quartiles(row_b)
            overlap = max(0.0, min(a_high, b_high) - max(a_low, b_low)) / row_a["value"]
            values_a, values_b = row_a.get("values", []), row_b.get("values", [])
            separated = bool(values_a and values_b) and (
                max(values_b) < min(values_a) if sign > 0 else min(values_b) > max(values_a)
            )
            if worse > bound:
                status, passed = "REGRESSION", False
            elif overlap > bound and not separated:
                status = "unresolved"
            else:
                status = "ok"
            rows.append((workload, name, row_a["value"], row_b["value"], worse, bound, status))
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        status = "ok" if share_b <= share_a else "REGRESSION"
        passed = passed and share_b <= share_a
        rows.append((workload, "fail_share", share_a, share_b, share_b - share_a, 0.0, status))
    return rows, passed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, passed = compare(report_a, report_b, spec)
    print(f"{'workload':13s} {'metric':17s} {'A':>11s} {'B':>11s} {'worse by':>9s} {'bound':>6s}  status")
    for workload, metric, a, b, worse, bound, status in rows:
        print(f"{workload:13s} {metric:17s} {a:11.4f} {b:11.4f} {worse:+9.2%} {bound:6.2f}  {status}")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    regressions = sum(1 for row in rows if row[-1] == "REGRESSION")
    print(f"{len(rows)} rows, {regressions} regressions, {unresolved} unresolved")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
