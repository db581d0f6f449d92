"""Compare two suite results, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``suite.py --out``. For each workload and end-to-end
metric (per-layer metrics when both files are traced runs) it prints each
side's median and quartiles and the ratio new / base, with the base
median beside it. A metric is "unresolved" when either side's spread
(interquartile distance over the median) is wider than its bound, unless
every new run beats every base run; otherwise it is "worse" when the new
median is worse than the base median by more than the bound, and
"better" or "same" else. Metrics without a bound are only listed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from esbench import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    data = json.loads(path.read_text())
    by_workload: dict[str, list[dict]] = {}
    for run in data["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return {"trace": data["trace"], "workloads": by_workload}


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    higher = better == "higher"
    all_better = (min(new) > max(base)) if higher else (max(new) < min(base))
    if (stats.spread(base) > bound or stats.spread(new) > bound) and not all_better:
        return "unresolved"
    b, n = stats.median(base), stats.median(new)
    change = (n - b) / abs(b) if b else 0.0
    worse_by = -change if higher else change
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < 0 else "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    if base["trace"] != new["trace"]:
        print("error: one file is a traced run and the other is not", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if base["trace"] else spec["end_to_end"]
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base["workloads"].get(workload), new["workloads"].get(workload)
        if not b_runs or not n_runs:
            print(f"\n{workload}: missing on one side")
            continue
        print(f"\n{workload}: base {len(b_runs)} runs, new {len(n_runs)} runs")
        print(f"  {'metric':<44}{'unit':>12}  {'base median [q1, q3]':>36}  "
              f"{'new median [q1, q3]':>36}  {'new/base':>9}  verdict")
        for metric in metrics:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs]
            bq, nq = stats.quartiles(b), stats.quartiles(n)
            ratio = f"{nq[1] / bq[1]:.4f}" if bq[1] else "n/a"
            side = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"  {name:<44}{metric['unit']:>12}  {side.format(*bq):>36}  {side.format(*nq):>36}  "
                  f"{ratio:>9}  {verdict(b, n, metric['better'], metric.get('bound'))}")
        b_fail = sum(r["result"]["failed"] for r in b_runs) / sum(r["result"]["attempted"] for r in b_runs)
        n_fail = sum(r["result"]["failed"] for r in n_runs) / sum(r["result"]["attempted"] for r in n_runs)
        print(f"  {'failed_frac':<44}{'1':>12}  {b_fail:>36.6g}  {n_fail:>36.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
