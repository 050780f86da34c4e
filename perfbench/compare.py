"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite_cold --steadiness 10 --out base.jsonl
    (check out the change)
    python3 perfbench/run.py --workload suite_cold --steadiness 10 --out new.jsonl
    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the records ``run.py --out`` appends.  Results from
hosts that differ in Python version, core count or machine
configuration fingerprint are refused: their timings are not
comparable.  For every workload and end-to-end metric the report gives
both medians and quartiles and flags a change whose median is worse
than the parent's by more than the metric's bound in ``BENCHMARK.json``.
Exit status: 0 no regression, 1 a regression or more failed items,
2 refused.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Host fields that must be equal for two results to be compared.
HOST_KEYS = ("python", "nproc", "config")


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_records(path) for path in argv)
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts "
              f"({', '.join(HOST_KEYS)}): {sorted(hosts)}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    status = 0
    workloads = sorted({r["workload"] for r in base if not r["trace"]}
                       & {r["workload"] for r in new if not r["trace"]})
    for workload in workloads:
        old = [r for r in base if r["workload"] == workload
               and not r["trace"]]
        cur = [r for r in new if r["workload"] == workload
               and not r["trace"]]
        print(f"{workload}: {len(old)} base runs, {len(cur)} new runs")
        failed_old = sum(r["failed"] for r in old)
        failed_new = sum(r["failed"] for r in cur)
        if failed_new > failed_old:
            print(f"  more failed items: {failed_old} -> {failed_new}")
            status = 1
        for metric in declared:
            name = metric["name"]
            a = _quartiles([r["metrics"][name]["value"] for r in old])
            b = _quartiles([r["metrics"][name]["value"] for r in cur])
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            if verdict != "ok":
                status = 1
            print(f"  {name:12s} base {a[1]:11.5g} [{a[0]:.5g}, {a[2]:.5g}]"
                  f"  new {b[1]:11.5g} [{b[0]:.5g}, {b[2]:.5g}]"
                  f"  {change:+7.1%} (bound {metric['bound']:.0%})"
                  f"  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
