"""Run the benchmark over several seeds and report every metric per workload.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench-results.json
    python3 perfbench/suite.py --seeds 1-5 --workloads point_queries --trace 1

Runs ``run.py`` once per (workload, seed), one process at a time, with the
settings in ``BENCHMARK.json``. Prints, for each workload and metric, the
median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound, plus ``failed_frac``; with ``--out`` it
also saves every run's result line, details and provenance as JSON, the
input :mod:`compare` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from esbench import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
              "result": json.loads(lines[-1]), "stderr": done.stderr.strip()}
    for line in lines[:-1]:
        if line.startswith("{"):
            record.update(json.loads(line))
    return record


def summarize(spec: dict, records: list[dict], trace: int) -> None:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"wall {stats.median([r['wall_s'] for r in runs]):.1f} s per run (median)")
        print(f"  {'metric':<44}{'unit':>12}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for metric in declared:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            bound = metric.get("bound")
            spread = stats.spread(values) if q2 else 0.0
            flag = ""
            if bound is not None:
                flag = "  wide" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
            print(f"  {metric['name']:<44}{metric['unit']:>12}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{'' if bound is None else format(bound, '.2f'):>7}{flag}")
        print(f"  {'failed_frac':<44}{'1':>12}{failed / attempted:>14.6g}   ({failed} of {attempted} operations)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="save all runs to this JSON file")
    args = parser.parse_args()
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    records = []
    for workload in names:
        for seed in parse_seeds(args.seeds):
            records.append(run_once(spec, workload, seed, args.trace))
            print(f"ran {workload} seed {seed}: {records[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps({"trace": args.trace, "runs": records}, indent=1) + "\n")
    summarize(spec, records, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
