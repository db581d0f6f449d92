"""The workloads: inputs, operations and output checks.

Each workload is a :class:`Family`. It draws fresh operations from the
workload seed, one cycle at a time, so that no call repeats within a run;
runs them one at a time (one caller, one operation in flight); times each
from outside; and checks each output against the oracle outside the timed
region. The library only ever sees the generated inputs.

``scan_grid`` and ``point_queries`` are the declared workloads. Each runs at
home scale when it is the workload being measured, and at probe scale in
short slices spread over the other one's run. ``mc_sweep`` and ``cli_cold``
run only as probes. So every run reports every metric (see README.md,
"Probes").
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import checks, env, oracle, stats
from .tracing import ROOT_SPAN, Recorder

TWO_PI = 2.0 * math.pi
CANONICAL = (0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)  # a, a', b, b'


class Batch:
    """What one loop over a family's operations did.

    With ``window`` 0 it keeps every operation, its time and its output,
    for a check after the loop. With a window it keeps only a summary of
    each closed window of that many successful calls, so that the harness's
    memory does not grow with the number of calls a run makes; outputs are
    then checked as the loop goes.
    """

    def __init__(self, window: int = 0) -> None:
        self.window = window
        self.attempted = 0
        self.errors: dict[int, str] = {}  # position -> failure
        self.ops: list = []
        self.seconds: list[float] = []  # of each kept operation, or of the open window
        self.outputs: list = []
        self.windows: list[tuple[float, float, float]] = []  # (sum, median, tail) seconds

    def add(self, op, seconds: float, output, error: str | None) -> None:
        if error is not None:
            self.errors[self.attempted] = error
        self.attempted += 1
        if not self.window:
            self.ops.append(op)
            self.seconds.append(seconds)
            self.outputs.append(output)
        elif error is None:
            self.seconds.append(seconds)
            if len(self.seconds) == self.window:
                self.windows.append((math.fsum(self.seconds), stats.median(self.seconds),
                                     stats.tail(self.seconds)[0]))
                self.seconds.clear()

    @property
    def ok(self) -> list[int]:
        return [k for k in range(len(self.ops)) if k not in self.errors]

    def failures(self) -> list[str]:
        return list(self.errors.values())


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _eps(rng: np.random.Generator) -> float:
    """Elastic length with both endpoints drawn exactly now and then."""
    u = rng.random()
    if u < 0.1:
        return 0.0
    if u < 0.2:
        return 1.0
    return float(rng.uniform(0.05, 1.0))


def _angles(rng: np.random.Generator) -> tuple[float, float]:
    return (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, TWO_PI)))


def _pair_with_cosine(rng: np.random.Generator, c: float) -> tuple[float, float, float]:
    """Polar angles ``theta1, theta2`` and a shared azimuth with ``cos(theta2 - theta1) = c``."""
    gap = math.acos(c)
    theta1 = float(rng.uniform(0.0, math.pi - gap))
    return (theta1, min(math.pi, theta1 + gap), float(rng.uniform(0.0, TWO_PI)))


class Family:
    """One workload: how to draw operations, run one and check one."""

    name = ""
    # Operations run untraced, and as many others traced, in a trace run.
    trace_ops = 1
    # Operations in one probe slice, and the family's share of the probe
    # time relative to the others'.
    slice_ops = 1
    probe_weight = 1
    # Window of the batch a measured loop records into; 0 keeps every operation.
    window = 0

    def __init__(self, seed: int, probe: bool = False) -> None:
        self.S = importlib.import_module("esphere.singlet")
        self.A = importlib.import_module("esphere.analysis")
        self.O = importlib.import_module("esphere.operational")
        self.SP = importlib.import_module("esphere.sphere")
        self.C = importlib.import_module("esphere.cli")
        self.block = self.S.BLOCK_TRIALS
        self.rng = np.random.default_rng(seed)
        self.probe = probe
        self.queue: deque = deque()

    # -- per family --------------------------------------------------------
    def cycle(self) -> list:
        """Fresh operations, drawn from the workload's random stream."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def verify(self, op, output) -> str | None:
        raise NotImplementedError

    def metrics(self, batch: Batch) -> tuple[dict[str, float], dict[str, object]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.execute(self.next_op())

    def more_needed(self, batch: Batch) -> bool:
        """Whether the loop must go on past its deadline."""
        return not batch.attempted

    def points(self, op) -> int:
        return 1

    def trials(self, op) -> int:
        return 0

    def draw_seconds(self, op) -> float:
        return 0.0

    def tag(self, op) -> str:
        return ""

    def output_bytes(self, batch: Batch) -> list[int]:
        """Bytes of output per operation, read before the outputs are checked."""
        return []

    def close(self) -> None:
        """Remove anything the family left on disk."""

    # -- shared ------------------------------------------------------------
    def next_op(self):
        if not self.queue:
            self.queue.extend(self.cycle())
        return self.queue.popleft()

    def run(self, deadline: float | None = None, limit: int | None = None,
            rec: Recorder | None = None, between=None, batch: Batch | None = None) -> Batch:
        """Closed loop: the next operation starts when the previous one ended.

        Runs until ``deadline`` or ``limit`` operations, adding to ``batch``
        (a new one that keeps every operation by default). ``between`` is
        called after each operation, outside its timing.
        """
        batch = Batch() if batch is None else batch
        clock = time.perf_counter
        root = rec.name_id(ROOT_SPAN) if rec is not None else 0
        done = 0
        while limit is None or done < limit:
            if deadline is not None and clock() >= deadline and not self.more_needed(batch):
                break
            op = self.next_op()
            sid = -1
            if rec is not None:
                rec.op_id = batch.attempted
                sid = rec.begin(root)
            start = clock()
            try:
                output, error = self.execute(op), None
            except Exception as exc:  # a failed operation is counted, the loop goes on
                output, error = None, _error(exc)
            elapsed = clock() - start
            if rec is not None:
                rec.finish(sid)
            if batch.window and error is None:
                error, output = self._verify(op, output), None
            batch.add(op, elapsed, output, error)
            done += 1
            if between is not None:
                between()
        return batch

    def _verify(self, op, output) -> str | None:
        try:
            return self.verify(op, output)
        except Exception as exc:  # a checker crash on odd output is a failed check
            return f"check raised {_error(exc)}"

    def check(self, batch: Batch) -> None:
        """Verify every kept output; failures land in ``batch.errors``."""
        for k, op in enumerate(batch.ops):
            if k not in batch.errors:
                problem = self._verify(op, batch.outputs[k])
                if problem is not None:
                    batch.errors[k] = problem
            batch.outputs[k] = None

    def totals(self, batch: Batch) -> dict[str, float]:
        """Work counts for the per-layer report."""
        return {
            "points": sum(self.points(op) for op in batch.ops),
            "trials": sum(self.trials(op) for op in batch.ops),
            "draw_s": sum(self.draw_seconds(op) for op in batch.ops),
        }

    def tags(self, batch: Batch) -> dict[int, str]:
        return {k: self.tag(op) for k, op in enumerate(batch.ops)}


# -- mc_sweep (probe only) --------------------------------------------------

@dataclass
class McOp:
    spec: object
    c: float
    eps: float
    right_first: bool
    trials: int
    seed: int


class McSweep(Family):
    """In-process ``simulate`` calls of about 1e6 trials each."""

    name = "mc_sweep"
    slice_ops = 4
    TRIALS = 1_000_000

    def cycle(self) -> list[McOp]:
        """One call of each kind: interior or band-clamped point, either order."""
        kinds = [(inside, right) for inside in (True, False) for right in (False, True)]
        return [self._op(bool(inside), bool(right)) for inside, right in self.rng.permutation(kinds).tolist()]

    def _op(self, inside: bool, right_first: bool) -> McOp:
        rng = self.rng
        if inside:  # 0 < |c| < eps: the break point decides the second side
            eps = float(rng.uniform(0.3, 1.0))
            target = float(rng.uniform(0.1, 0.9)) * eps
        else:  # |c| >= eps: the band is clamped, the second side is certain
            eps = float(rng.uniform(0.2, 0.8))
            target = eps + float(rng.uniform(0.05, 0.95)) * (1.0 - eps)
        target *= 1.0 if rng.random() < 0.5 else -1.0
        theta1, theta2, phi = _pair_with_cosine(rng, target)
        trials = self.TRIALS + int(rng.integers(-self.TRIALS // 50, self.TRIALS // 50))
        if trials % self.block == 0:
            trials += 1
        order = self.S.MeasurementOrder.RIGHT_FIRST if right_first else self.S.MeasurementOrder.LEFT_FIRST
        spec = self.S.JointTestSpec(
            u1=self.SP.Direction.from_angles(theta1, phi),
            u2=self.SP.Direction.from_angles(theta2, phi),
            epsilon=eps,
            order=order,
        )
        c = oracle.dot(oracle.direction(theta1, phi), oracle.direction(theta2, phi))
        return McOp(spec, c, eps, right_first, trials, int(rng.integers(0, 2**62)))

    def warm_up(self) -> None:
        op = self._op(True, False)
        self.S.simulate(op.spec, self.block + 123, op.seed)

    def execute(self, op: McOp):
        freqs, counts = self.S.simulate(op.spec, op.trials, op.seed)
        return (freqs.as_tuple(), tuple(counts))

    def verify(self, op: McOp, output) -> str | None:
        ref, _ = oracle.reference_counts(op.c, op.eps, op.right_first, op.trials, op.seed, self.block)
        freqs, got = output
        problem = checks.simulate_result(freqs, got, ref, op.trials)
        if problem:
            return problem
        stat, dof, ok = oracle.chi_square(got, oracle.joint_table(op.c, op.eps, op.right_first))
        return None if ok else (f"chi-square {stat:.2f} on {dof} dof exceeds the "
                                f"{oracle.CHI2_FALSE_ALARM:g} critical value {oracle.CHI2_CRITICAL.get(dof)}")

    def metrics(self, batch):
        trials = sum(batch.ops[k].trials for k in batch.ok)
        seconds = math.fsum(batch.seconds[k] for k in batch.ok)
        return ({"mc_mtrials_per_s": trials / seconds / 1e6 if seconds else 0.0},
                {"mc_ops": len(batch.ok), "mc_seconds": seconds})


# -- scan_grid --------------------------------------------------------------

@dataclass
class ScanOp:
    epsilons: list[float]
    theta_points: int
    fmt: str

    @property
    def thetas(self) -> list[float]:
        return np.linspace(0.0, math.pi, self.theta_points).tolist()


class ScanGrid(Family):
    """In-process ``esphere scan`` over the 101 x 1001 grid, CSV and JSON in turn.

    Every cycle covers the grid once: the 101 epsilons, in a fresh seeded
    order, split into four slices of 25 or 26, each scanned over the full
    1001-point theta axis. A whole-grid operation takes about 5 s, and the
    two of each format a run could hold spread by a third from run to run;
    quarter-grid operations do the same work per point. At probe scale a
    cycle covers the 101 epsilons in nine slices over 101 thetas.
    """

    name = "scan_grid"
    trace_ops = 4
    slice_ops = 4
    probe_weight = 2
    # Memory pass: tracemalloc slows the scan about five times, so it runs
    # on this many epsilons with the full theta axis.
    memory_epsilons = 10

    def __init__(self, seed: int, probe: bool = False) -> None:
        super().__init__(seed, probe)
        self.formats = ["csv", "json"] if self.rng.random() < 0.5 else ["json", "csv"]
        self.out = tempfile.mkdtemp(prefix="scan-", dir=env.work_dir())
        self.made = 0  # operations drawn so far; formats alternate over them
        self.files = 0

    def cycle(self) -> list[ScanOp]:
        order = [k / 100 for k in self.rng.permutation(101).tolist()]
        parts, thetas = (9, 101) if self.probe else (4, 1001)
        ops = []
        for j in range(parts):
            epsilons = order[j * 101 // parts:(j + 1) * 101 // parts]
            ops.append(ScanOp(epsilons, thetas, self.formats[self.made % 2]))
            self.made += 1
        return ops

    def argv(self, op: ScanOp, path: str) -> list[str]:
        return ["scan", "--epsilons", ",".join(repr(e) for e in op.epsilons),
                "--theta-points", str(op.theta_points), "--format", op.fmt, "--output", path]

    def warm_up(self) -> None:
        for fmt in self.formats:
            path = os.path.join(self.out, f"warm.{fmt}")
            self.C.main(self.argv(ScanOp([0.0, 0.5, 1.0], 11, fmt), path))
            os.remove(path)

    def execute(self, op: ScanOp):
        self.files += 1
        path = os.path.join(self.out, f"{self.files}.{op.fmt}")
        code = self.C.main(self.argv(op, path))
        if code != 0:
            raise RuntimeError(f"esphere scan exited {code}")
        return path

    def more_needed(self, batch):
        # at least two operations of each format
        fmts = [op.fmt for op in batch.ops]
        return min(fmts.count("csv"), fmts.count("json")) < 2

    def verify(self, op: ScanOp, path) -> str | None:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(path)
        return checks.scan_output(text, op.fmt, op.epsilons, op.thetas)

    def output_bytes(self, batch: Batch) -> list[int]:
        return [os.path.getsize(p) for p in batch.outputs if p and os.path.exists(p)]

    def memory_pass(self) -> None:
        """Run one operation of each format on the reduced grid, outputs checked."""
        for fmt in self.formats:
            op = self.next_op()
            small = ScanOp(op.epsilons[: self.memory_epsilons], op.theta_points, fmt)
            path = os.path.join(self.out, f"memory.{fmt}")
            if self.C.main(self.argv(small, path)) != 0:
                raise RuntimeError("esphere scan failed in the memory pass")
            problem = self.verify(small, path)
            if problem:
                raise RuntimeError(problem)

    def points(self, op: ScanOp) -> int:
        return len(op.epsilons) * op.theta_points

    def tag(self, op: ScanOp) -> str:
        return op.fmt

    def metrics(self, batch):
        out, detail = {}, {}
        for fmt in ("csv", "json"):
            done = [k for k in batch.ok if batch.ops[k].fmt == fmt]
            points = sum(self.points(batch.ops[k]) for k in done)
            seconds = math.fsum(batch.seconds[k] for k in done)
            out[f"scan_{fmt}_points_per_s"] = points / seconds if seconds else 0.0
            detail[f"scan_{fmt}_ops"] = len(done)
            detail[f"scan_{fmt}_seconds"] = seconds
        return (out, detail)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# -- point_queries ----------------------------------------------------------

@dataclass
class PointOp:
    kind: str
    call: object  # zero-argument callable into the library
    data: tuple  # what the oracle needs
    want: object = None  # the oracle's answer


class PointQueries(Family):
    """One-point library calls, the six kinds in equal shares."""

    name = "point_queries"
    trace_ops = 40_000
    KINDS = ("outcome", "joint", "correlation", "classify", "chsh", "simulate")
    # Metrics are taken per window of this many consecutive calls, 200 of
    # each kind. A tail over a whole run would sit at p99.998 and measure
    # operating-system noise; within a window it is p99.2.
    window = 200 * len(KINDS)
    slice_ops = 5 * window
    probe_weight = 2
    # simulate: trials log-uniform in [1, SIM_MAX_TRIALS], eps = 0 in this share of calls
    SIM_MAX_TRIALS = 4099
    SIM_EPS_ZERO = 0.25

    def cycle(self) -> list[PointOp]:
        """One window of calls, with the oracle's answers drawn up front.

        Every window holds the same number of calls of each kind, in a fresh
        order, and its ``simulate`` calls take one trial count from each of
        equal slices of the log-uniform range. So every window asks for the
        same work, and its median call does not jump between the three fast
        one-formula kinds and the slower ones as their shares vary. Answers are computed here, not between timed calls, so that the
        oracle's numpy work does not cool the caches the calls use.
        """
        rng, per = self.rng, self.window // len(self.KINDS)
        strata = (np.arange(per) + rng.random(per)) / per
        trials = np.exp(strata * math.log(self.SIM_MAX_TRIALS + 1)).astype(int).tolist()
        eps_zero = (rng.permutation(per) < round(per * self.SIM_EPS_ZERO)).tolist()
        sims = iter(zip(trials, eps_zero))
        ops = []
        for kind in rng.permutation(np.repeat(np.arange(len(self.KINDS)), per)).tolist():
            name = self.KINDS[kind]
            op = self._simulate(*next(sims)) if name == "simulate" else getattr(self, "_" + name)()
            op.want = self._oracle(op)
            ops.append(op)
        return ops

    def warm_up(self) -> None:
        for kind in self.KINDS[:-1]:
            getattr(self, "_" + kind)().call()
        self._simulate(self.SIM_MAX_TRIALS, False).call()

    def execute(self, op: PointOp):
        return op.call()

    def _pair(self):
        (t1, f1), (t2, f2) = _angles(self.rng), _angles(self.rng)
        u1 = self.SP.Direction.from_angles(t1, f1)
        u2 = self.SP.Direction.from_angles(t2, f2)
        return u1, u2, oracle.dot(oracle.direction(t1, f1), oracle.direction(t2, f2))

    def _joint(self):
        u1, u2, c = self._pair()
        eps, S = _eps(self.rng), self.S
        return PointOp("joint", lambda: S.joint_distribution_analytic(u1, u2, eps), (c, eps))

    def _correlation(self):
        u1, u2, c = self._pair()
        eps, A = _eps(self.rng), self.A
        return PointOp("correlation", lambda: A.correlation(u1, u2, eps), (c, eps))

    def _chsh(self):
        # eps is the only argument, so it is drawn from a continuum: an
        # endpoint drawn exactly would repeat the same call within a run.
        eps, A = float(self.rng.uniform(0.0, 1.0)), self.A
        return PointOp("chsh", lambda: A.chsh(A.ChshSetup.coplanar(eps)), (eps,))

    def _classify(self):
        u1, u2, c = self._pair()
        eps, S, O = _eps(self.rng), self.S, self.O
        return PointOp("classify", lambda: O.classify(S.experiment_triple(u1, u2, eps)), (c, eps))

    def _outcome(self):
        r = float(self.rng.uniform(0.0, 0.99))  # strictly inside the ball: a mixed state
        (ts, fs), (tu, fu) = _angles(self.rng), _angles(self.rng)
        state = self.SP.BlochState.from_angles(r, ts, fs)
        u = self.SP.Direction.from_angles(tu, fu)
        st = math.sin(ts)
        v = (r * st * math.cos(fs), r * st * math.sin(fs), r * math.cos(ts))
        eps, SP = _eps(self.rng), self.SP
        return PointOp("outcome", lambda: SP.outcome_probability(state, u, eps),
                       (oracle.dot(v, oracle.direction(tu, fu)), eps))

    def _simulate(self, trials: int, eps_zero: bool):
        u1, u2, c = self._pair()
        rng = self.rng
        eps = 0.0 if eps_zero else float(rng.uniform(0.05, 1.0))
        right = bool(rng.random() < 0.5)
        order = self.S.MeasurementOrder.RIGHT_FIRST if right else self.S.MeasurementOrder.LEFT_FIRST
        spec = self.S.JointTestSpec(u1=u1, u2=u2, epsilon=eps, order=order)
        seed, S = int(rng.integers(0, 2**62)), self.S
        return PointOp("simulate", lambda: S.simulate(spec, trials, seed), (c, eps, right, trials, seed))

    def _oracle(self, op: PointOp):
        d = op.data
        if op.kind == "joint":
            return oracle.joint_table(d[0], d[1]).tolist()
        if op.kind == "correlation":
            return [float(oracle.correlation(d[0], d[1]))]
        if op.kind == "chsh":
            a, a2, b, b2 = (oracle.direction(t) for t in CANONICAL)
            cs = [oracle.dot(x, y) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
            return [float(oracle.correlation(c, d[0])) for c in cs] + [oracle.chsh_s(d[0])]
        if op.kind == "classify":
            v = oracle.classify(d[0], d[1])
            return tuple(bool(v[k]) for k in
                         ("compatible", "separated", "classical_left", "classical_right", "classical_joint"))
        if op.kind == "outcome":
            p = oracle.p_yes(d[0], d[1])
            return [p, 1.0 - p]
        c, eps, right, trials, seed = d
        return oracle.reference_counts(c, eps, right, trials, seed, self.block)

    def verify(self, op: PointOp, out) -> str | None:
        want = op.want
        if op.kind == "joint":
            return checks.floats("joint", out.as_tuple(), want)
        if op.kind == "correlation":
            return checks.floats("E", [out], want)
        if op.kind == "chsh":
            got = [out.e_ab, out.e_ab_prime, out.e_a_prime_b, out.e_a_prime_b_prime, out.s]
            return checks.floats("chsh", got, want)
        if op.kind == "classify":
            got = (out.compatible, out.separated, out.classical_left, out.classical_right, out.classical_joint)
            return None if got == want else f"classify {got}, expected {want}"
        if op.kind == "outcome":
            return checks.floats("outcome", [out.p_yes, out.p_no], want)
        freqs, got_counts = out
        return checks.simulate_result(freqs.as_tuple(), got_counts, want[0], op.data[3])

    def more_needed(self, batch):
        return not batch.windows

    def trials(self, op: PointOp) -> int:
        return op.data[3] if op.kind == "simulate" else 0

    def draw_seconds(self, op: PointOp) -> float:
        return op.want[1] if op.kind == "simulate" else 0.0

    def metrics(self, batch):
        w = self.window
        windows = batch.windows
        seconds = math.fsum(total for total, _, _ in windows)
        return ({
            "point_calls_per_s": len(windows) * w / seconds if seconds else 0.0,
            "point_call_p50_us": statistics.fmean(p50 for _, p50, _ in windows) * 1e6,
            "point_call_tail_us": statistics.fmean(tail for _, _, tail in windows) * 1e6,
        }, {"point_calls": batch.attempted, "point_windows": len(windows), "point_window_calls": w,
            "point_call_tail_percentile": 100.0 * (w - stats.TAIL_BEYOND) / w})


# -- cli_cold (probe only) --------------------------------------------------

@dataclass
class CliOp:
    command: str
    fmt: str
    argv: list[str]
    params: dict


class CliCold(Family):
    """A fresh ``python -m esphere.cli`` process per operation, one at a time."""

    name = "cli_cold"
    slice_ops = 3
    # Enough cold processes that the tail rule lands above their median.
    probe_weight = 4
    COMMANDS = ("single", "joint", "classify", "chsh", "vessels", "simulate", "scan")
    SIM_TRIALS = 10_000
    TIMEOUT_S = 60

    def cycle(self) -> list[CliOp]:
        """Every command in both formats, in a fresh order with fresh arguments."""
        combos = [(c, f) for c in self.COMMANDS for f in ("csv", "json")]
        return [self._op(*combos[j]) for j in self.rng.permutation(len(combos)).tolist()]

    def _op(self, command: str, fmt: str) -> CliOp:
        rng = self.rng
        eps = _eps(rng)
        p: dict = {"eps": eps}
        if command == "single":
            p.update(r=float(rng.uniform(0.0, 1.0)), state=_angles(rng), axis=_angles(rng))
            argv = ["--epsilon", repr(eps), "--state-r", repr(p["r"]),
                    "--state-theta", repr(p["state"][0]), "--state-phi", repr(p["state"][1]),
                    "--dir-theta", repr(p["axis"][0]), "--dir-phi", repr(p["axis"][1])]
        elif command == "joint":
            p.update(u1=_angles(rng), u2=_angles(rng))
            argv = ["--epsilon", repr(eps), "--theta1", repr(p["u1"][0]), "--phi1", repr(p["u1"][1]),
                    "--theta2", repr(p["u2"][0]), "--phi2", repr(p["u2"][1])]
        elif command == "classify":
            p.update(theta=float(rng.uniform(0.0, math.pi)))
            argv = ["--epsilon", repr(eps), "--theta", repr(p["theta"])]
        elif command == "chsh":
            argv = ["--epsilon", repr(eps)]
        elif command == "vessels":
            p.update(kind=str(rng.choice(["alpha-alpha", "alpha-beta"])))
            argv = ["--kind", p["kind"]]
        elif command == "simulate":
            p.update(theta=float(rng.uniform(0.0, math.pi)), seed=int(rng.integers(0, 2**62)),
                     right=bool(rng.random() < 0.5))
            argv = ["--epsilon", repr(eps), "--theta", repr(p["theta"]), "--trials", str(self.SIM_TRIALS),
                    "--seed", str(p["seed"]), "--order", "right-first" if p["right"] else "left-first"]
        else:
            p.update(epsilons=[_eps(rng) for _ in range(3)], theta_points=5)
            argv = ["--epsilons", ",".join(repr(e) for e in p["epsilons"]), "--theta-points", "5"]
        return CliOp(command, fmt, [command, *argv, "--format", fmt], p)

    def execute(self, op: CliOp):
        done = subprocess.run([sys.executable, "-m", "esphere.cli", *op.argv], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, env=env.child_env(),
                              cwd=env.ROOT, timeout=self.TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"esphere {op.argv[0]} exited {done.returncode}")
        return done.stdout.decode("utf-8")

    def _rows(self, op: CliOp) -> list[dict]:
        p = op.params
        eps = p["eps"]
        if op.command == "single":
            r, (ts, fs) = p["r"], p["state"]
            st = math.sin(ts)
            v = (r * st * math.cos(fs), r * st * math.sin(fs), r * math.cos(ts))
            yes = oracle.p_yes(oracle.dot(v, oracle.direction(*p["axis"])), eps)
            return [{"p_yes": yes, "p_no": 1.0 - yes}]
        if op.command == "joint":
            c = oracle.dot(oracle.direction(*p["u1"]), oracle.direction(*p["u2"]))
            return [dict(zip(("p1", "p2", "p3", "p4"), oracle.joint_table(c, eps).tolist()))]
        if op.command == "classify":
            return _scan_dicts([eps], [p["theta"]])
        if op.command == "chsh":
            a, a2, b, b2 = (oracle.direction(t) for t in CANONICAL)
            cs = [oracle.dot(x, y) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
            keys = ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime")
            row = {k: float(oracle.correlation(c, eps)) for k, c in zip(keys, cs)}
            row["s"] = oracle.chsh_s(eps)
            return [row]
        if op.command == "vessels":
            return [{"kind": p["kind"], **oracle.VESSELS[p["kind"]]}]
        if op.command == "simulate":
            c = oracle.dot(oracle.direction(0.0), oracle.direction(p["theta"]))
            counts, _ = oracle.reference_counts(c, eps, p["right"], self.SIM_TRIALS, p["seed"], self.block)
            law = oracle.joint_table(c, eps, p["right"]).tolist()
            return [{"outcome": f"x{j + 1}", "count": counts[j], "frequency": counts[j] / self.SIM_TRIALS,
                     "analytic": law[j]} for j in range(4)]
        return _scan_dicts(p["epsilons"], np.linspace(0.0, math.pi, p["theta_points"]).tolist())

    def verify(self, op: CliOp, text) -> str | None:
        return checks.rendered(text, op.fmt, self._rows(op))

    def metrics(self, batch):
        secs = [batch.seconds[k] for k in batch.ok]
        tail, pct = stats.tail(secs)
        return ({"cli_p50_ms": stats.median(secs) * 1e3, "cli_tail_ms": tail * 1e3},
                {"cli_runs": len(secs), "cli_tail_percentile": pct})


def _scan_dicts(epsilons: list[float], thetas: list[float]) -> list[dict]:
    cols = oracle.scan_rows(epsilons, thetas)
    return [{key: (bool(col[j]) if col.dtype == bool else float(col[j])) for key, col in cols.items()}
            for j in range(len(cols["epsilon"]))]


FAMILIES = {f.name: f for f in (McSweep, ScanGrid, PointQueries, CliCold)}
# The workloads BENCHMARK.json declares; the others run only as probes.
DECLARED = ("scan_grid", "point_queries")
