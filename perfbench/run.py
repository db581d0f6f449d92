"""esphere benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan_grid --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report, the run's provenance and details such as sample counts.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from esbench import env, selfcheck, tracing
from esbench.workloads import DECLARED, FAMILIES, Batch, Family

# Set-up is measured this many times per run, each in a fresh process,
# spread evenly over the run.
SETUP_REPEATS = 9
# Interleaved rounds of the interpreter / numpy / esphere start-up timings.
STARTUP_ROUNDS = 7
CLI_MAIN_REPEATS = 21
SETUP_TIMEOUT_S = 120
# Share of the measured loop's wall time given to probe slices, and the
# least number of slices of each other workload in a run.
PROBE_SHARE = 0.4
MIN_SLICES = 3

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "mc_mtrials_per_s": "Mtrials/s",
    "scan_csv_points_per_s": "points/s", "scan_json_points_per_s": "points/s",
    "point_calls_per_s": "calls/s", "point_call_p50_us": "us", "point_call_tail_us": "us",
    "cli_p50_ms": "ms", "cli_tail_ms": "ms",
}
LAW_SPANS = (
    "singlet.joint_distribution_analytic", "singlet.experiment_triple",
    "sphere.Direction.from_angles", "sphere.outcome_probability", "operational.classify",
    "analysis.scan", "analysis.chsh", "analysis.correlation",
)


def layer_units() -> dict[str, str]:
    units = {
        "singlet.simulate.calls": "count", "singlet.simulate.trials": "count",
        "singlet.simulate.self_s": "s", "rng.draw_s": "s", "singlet.simulate.over_rng": "ratio",
        "singlet.simulate.bytes_drawn": "B",
    }
    for name in LAW_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "operational.prob_objects_per_point": "count/point", "validation.checks_per_point": "count/point",
        "cli.build_parser_s": "s", "cli.cmd_scan.self_s": "s", "cli.emit_csv_s": "s",
        "cli.emit_json_s": "s", "cli.output_bytes": "B", "cli.emit.peak_alloc_mb": "MB",
        "analysis.scan.peak_alloc_mb": "MB", "startup.interpreter_s": "s",
        "startup.numpy_import_s": "s", "startup.esphere_import_s": "s", "startup.cli_main_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def setup_once(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=env.ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != b"READY" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


class Probes:
    """Short slices of the other workloads, and set-up samples, spread over the home loop.

    After each home operation, outside its timing, slices of the other
    workloads run until they have had ``PROBE_SHARE`` of the loop's wall
    time, each workload in proportion to its ``probe_weight``; and a fresh
    process measures set-up whenever the next of ``SETUP_REPEATS`` even
    steps over ``seconds`` is reached. Spread this way, the probes see the
    same machine conditions as the home loop; this machine's speed drifts
    from second to second and from minute to minute.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.setup: list[float] = []
        self.families = [f(seed, probe=True) for name, f in FAMILIES.items() if name != workload]
        self.batches = {f.name: Batch(f.window) for f in self.families}
        self.used = {f.name: 0.0 for f in self.families}  # wall seconds of each one's slices
        self.slices = {f.name: 0 for f in self.families}
        self.start = time.perf_counter()
        for family in self.families:
            family.warm_up()

    def slice(self, family: Family) -> None:
        begin = time.perf_counter()
        family.run(limit=family.slice_ops, batch=self.batches[family.name])
        self.used[family.name] += time.perf_counter() - begin
        self.slices[family.name] += 1

    def between(self) -> None:
        elapsed = time.perf_counter() - self.start
        if len(self.setup) < SETUP_REPEATS and elapsed >= len(self.setup) * self.seconds / SETUP_REPEATS:
            self.setup.append(setup_once(self.workload, self.seed))
        while sum(self.used.values()) < PROBE_SHARE * (time.perf_counter() - self.start):
            self.slice(min(self.families, key=lambda f: self.used[f.name] / f.probe_weight))

    def finish(self) -> None:
        """Top up to the minimum numbers of slices and set-up samples; check the outputs."""
        while len(self.setup) < SETUP_REPEATS:
            self.setup.append(setup_once(self.workload, self.seed))
        for family in self.families:
            while self.slices[family.name] < MIN_SLICES:
                self.slice(family)
            family.check(self.batches[family.name])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str], dict]:
    """End-to-end metrics: the home workload for ``seconds``, probes in between."""
    home = FAMILIES[workload](seed)
    probes = Probes(workload, seed, seconds)
    try:
        home.warm_up()
        probes.start = time.perf_counter()
        batch = home.run(deadline=time.perf_counter() + seconds, between=probes.between,
                         batch=Batch(home.window))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes.finish()
        home.check(batch)
    finally:
        home.close()
        for family in probes.families:
            family.close()
    metrics, detail = home.metrics(batch)
    metrics.update(setup_s=statistics.median(probes.setup), peak_rss_mb=peak_kb / 1024.0)
    detail.update(setup_samples=probes.setup, home_ops=batch.attempted, probe_slices=probes.slices)
    attempted, errors = batch.attempted, batch.failures()
    for family in probes.families:
        pbatch = probes.batches[family.name]
        pm, pd = family.metrics(pbatch)
        metrics.update(pm)
        detail.update({f"probe.{k}": v for k, v in pd.items()})
        attempted += pbatch.attempted
        errors += pbatch.failures()
    detail["failed_frac"] = len(errors) / attempted
    return ({k: metrics[k] for k in UNITS}, attempted, errors, detail)


def _subprocess_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env.child_env(), cwd=env.ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - start


def startup_layers() -> dict[str, float]:
    """Start-up cost split by subtraction between separate process timings.

    Each round times the three commands back to back; a layer is the median
    over rounds of the difference within a round, so slow drift cancels.
    """
    runs: dict[str, list[float]] = {"pass": [], "import numpy": [], "import esphere": []}
    for _ in range(STARTUP_ROUNDS):
        for code in runs:
            runs[code].append(_subprocess_seconds(code))
    def paired(a: str, b: str) -> float:
        return statistics.median(x - y for x, y in zip(runs[a], runs[b]))

    cli = sys.modules["esphere.cli"]
    main_s = []
    for _ in range(CLI_MAIN_REPEATS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(["joint", "--epsilon", "0.5", "--theta", "1.0"])
            main_s.append(time.perf_counter() - start)
    return {
        "startup.interpreter_s": statistics.median(runs["pass"]),
        "startup.numpy_import_s": paired("import numpy", "pass"),
        "startup.esphere_import_s": paired("import esphere", "import numpy"),
        "startup.cli_main_s": statistics.median(main_s),
    }


def trace(workload: str, seed: int) -> tuple[dict, int, list[str], dict]:
    """Per-layer metrics: operations untraced, then as many fresh ones traced."""
    home: Family = FAMILIES[workload](seed)
    peaks = tracing.MemoryPeaks()
    rec = tracing.Recorder()
    try:
        home.warm_up()
        plain = home.run(limit=home.trace_ops)
        instrumentation = tracing.Instrumentation().trace(rec)
        try:
            traced = home.run(limit=home.trace_ops, rec=rec)
        finally:
            instrumentation.restore()
        sizes = home.output_bytes(traced)
        home.check(plain)
        home.check(traced)
        if workload == "scan_grid":
            tracemalloc.start()
            instrumentation = tracing.Instrumentation().memory(peaks)
            try:
                home.memory_pass()
            finally:
                instrumentation.restore()
                tracemalloc.stop()
    finally:
        home.close()
    rec.save(env.work_dir() / f"trace-{workload}.npz")

    by_tag = rec.self_times(home.tags(traced))
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, _tag), (n, s) in by_tag.items():
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + s
    totals = home.totals(traced)
    points = totals["points"]
    sim_self = self_s.get("singlet.simulate", 0.0)
    m = {
        "singlet.simulate.calls": calls.get("singlet.simulate", 0),
        "singlet.simulate.trials": totals["trials"],
        "singlet.simulate.self_s": sim_self,
        "rng.draw_s": totals["draw_s"],
        "singlet.simulate.over_rng": sim_self / totals["draw_s"] if totals["draw_s"] else 0.0,
        "singlet.simulate.bytes_drawn": 16 * totals["trials"],
    }
    for name in LAW_SPANS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    counters = {k: v[0] for k, v in rec.counters.items()}
    m["operational.prob_objects_per_point"] = counters.get(tracing.PROB_COUNTER, 0) / points if points else 0.0
    m["validation.checks_per_point"] = counters.get(tracing.CHECK_COUNTER, 0) / points if points else 0.0
    m["cli.build_parser_s"] = self_s.get("cli.build_parser", 0.0)
    m["cli.cmd_scan.self_s"] = self_s.get("cli.cmd_scan", 0.0)
    m["cli.emit_csv_s"] = by_tag.get(("cli.main", "csv"), (0, 0.0))[1]
    m["cli.emit_json_s"] = by_tag.get(("cli.main", "json"), (0, 0.0))[1]
    m["cli.output_bytes"] = statistics.mean(sizes) if sizes else 0.0
    m["cli.emit.peak_alloc_mb"] = peaks.peaks["cli.emit"]
    m["analysis.scan.peak_alloc_mb"] = peaks.peaks["analysis.scan"]
    m.update(startup_layers())
    untraced, with_spans = sum(plain.seconds), sum(traced.seconds)
    m["trace.overhead_frac"] = (with_spans - untraced) / untraced
    detail = {"trace_ops": traced.attempted, "spans": len(rec.start), "points": points,
              "untraced_s": untraced, "traced_s": with_spans,
              "memory_pass_grid": (f"{home.memory_epsilons} x 1001" if workload == "scan_grid" else None)}
    errors = plain.failures() + traced.failures()
    return ({k: m[k] for k in layer_units()}, plain.attempted + traced.attempted, errors, detail)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=DECLARED, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        es = env.import_library()
    except env.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        family = FAMILIES[args.workload](args.seed)
        try:
            family.warm_up()
            family.next_op()  # draws the first cycle of inputs
        finally:
            family.close()
        print("READY", flush=True)
        return 0

    problems = selfcheck.run()
    if args.trace:
        metrics, attempted, errors, detail = trace(args.workload, args.seed)
        units = layer_units()
    else:
        metrics, attempted, errors, detail = measure(args.workload, args.seed, args.seconds)
        units = UNITS
    for problem in (problems + errors)[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# esphere benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"#   {name:<40} {value:>16.6g} {units[name]}")
    print(f"#   {'failed_frac':<40} {len(errors) / attempted:>16.6g} (of {attempted} operations)")
    print(json.dumps({"provenance": env.provenance(es, args.seed)}))
    print(json.dumps({"detail": detail, "self_check_problems": problems}))
    result = {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
