"""Check the checker: the oracle must agree with the library at the edges,
and deliberately corrupted results must be reported as failures."""

from __future__ import annotations

import importlib
import math
import os

from . import checks, env, oracle

EDGE_EPSILONS = (0.0, 5e-324, 1.0)


def _edge_pairs(SP, eps: float):
    """(label, u1, u2, oracle u1, oracle u2) at c = +eps, c = -eps, identical and opposite axes."""
    pole = (0.0, 0.0, 1.0)
    side = math.sqrt(1.0 - eps * eps)
    tilted = oracle.direction(1.1, 0.7)
    opposite = tuple(-x for x in tilted)
    for label, a, b in (("c=+eps", pole, (side, 0.0, eps)), ("c=-eps", pole, (side, 0.0, -eps)),
                        ("identical", tilted, tilted), ("opposite", tilted, opposite)):
        yield label, SP.Direction(*a), SP.Direction(*b), a, b


def _edges() -> list[str]:
    S = importlib.import_module("esphere.singlet")
    A = importlib.import_module("esphere.analysis")
    O = importlib.import_module("esphere.operational")
    SP = importlib.import_module("esphere.sphere")
    problems = []
    for eps in EDGE_EPSILONS:
        for label, u1, u2, a, b in _edge_pairs(SP, eps):
            where = f"eps={eps!r} {label}"
            c = oracle.dot(a, b)
            found = [
                checks.floats("joint", S.joint_distribution_analytic(u1, u2, eps).as_tuple(),
                              oracle.joint_table(c, eps).tolist()),
                checks.floats("E", [A.correlation(u1, u2, eps)], [float(oracle.correlation(c, eps))]),
                checks.floats("p_yes", [SP.outcome_probability(SP.BlochState(*b), u1, eps).p_yes],
                              [oracle.p_yes(c, eps)]),
            ]
            report = O.classify(S.experiment_triple(u1, u2, eps))
            want = oracle.classify(c, eps)
            for key in ("compatible", "separated", "classical_left", "classical_right", "classical_joint"):
                if getattr(report, key) != bool(want[key]):
                    found.append(f"{key} = {getattr(report, key)}, expected {bool(want[key])}")
            for order in S.MeasurementOrder:
                right = order is S.MeasurementOrder.RIGHT_FIRST
                spec = S.JointTestSpec(u1=u1, u2=u2, epsilon=eps, order=order)
                freqs, got = S.simulate(spec, 1001, 7)
                ref, _ = oracle.reference_counts(c, eps, right, 1001, 7, S.BLOCK_TRIALS)
                found.append(checks.simulate_result(freqs.as_tuple(), got, ref, 1001))
            problems += [f"{where}: {p}" for p in found if p]
        got = A.chsh(A.ChshSetup.coplanar(eps)).s
        if not checks.close(got, oracle.chsh_s(eps)):
            problems.append(f"eps={eps!r}: S = {got!r}, expected {oracle.chsh_s(eps)!r}")
    return problems


def _corruptions() -> list[str]:
    """Each corrupted result must be caught; return the ones that were not."""
    S = importlib.import_module("esphere.singlet")
    SP = importlib.import_module("esphere.sphere")
    C = importlib.import_module("esphere.cli")
    missed = []

    # swapped p2/p3: at eps = 0 with c > 0 the certain outcome is p2
    u1, u2 = SP.Direction.from_angles(0.0), SP.Direction.from_angles(0.5)
    p = list(S.joint_distribution_analytic(u1, u2, 0.0).as_tuple())
    p[1], p[2] = p[2], p[1]
    c = oracle.dot(oracle.direction(0.0), oracle.direction(0.5))
    if checks.floats("joint", p, oracle.joint_table(c, 0.0).tolist()) is None:
        missed.append("joint table with p2 and p3 swapped")

    spec = S.JointTestSpec(u1=u1, u2=u2, epsilon=0.7)
    trials, seed = 20_000, 11
    freqs, got = S.simulate(spec, trials, seed)
    ref, _ = oracle.reference_counts(c, 0.7, False, trials, seed, S.BLOCK_TRIALS)
    if checks.simulate_result(freqs.as_tuple(), got, ref, trials) is not None:
        missed.append("uncorrupted simulate result was rejected")
    swapped = (got[0], got[2], got[1], got[3])
    if got[1] != got[2] and checks.counts(swapped, ref, trials) is None:
        missed.append("simulate counts with x2 and x3 swapped")
    moved = (got[0] + 1, got[1], got[2], got[3] - 1)
    if checks.counts(moved, ref, trials) is None:
        missed.append("a count off by one (sum kept)")
    if checks.counts((got[0] + 1, *got[1:]), ref, trials) is None:
        missed.append("a count off by one (sum off)")

    path = os.path.join(env.work_dir(), f"selfcheck-{os.getpid()}.csv")
    epsilons, thetas = [0.0, 0.5], [0.0, 1.0, math.pi]
    try:
        C.main(["scan", "--epsilons", "0.0,0.5", "--thetas", "0.0,1.0," + repr(math.pi), "--output", path])
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
    if checks.scan_output(text, "csv", epsilons, thetas) is not None:
        missed.append("uncorrupted scan csv was rejected")
    header, _, body = text.partition("\n")
    wrong = header.replace(",E,", ",correlation,") + "\n" + body
    if checks.scan_output(wrong, "csv", epsilons, thetas) is None:
        missed.append("scan csv with a wrong header")
    expected_rows = [{"p1": 0.0, "p2": 1.0, "p3": 0.0, "p4": 0.0}]
    if checks.rendered("p1,p3,p2,p4\n0,0,1,0\n", "csv", expected_rows) is None:
        missed.append("joint csv with a wrong header")
    return [f"self-check missed: {m}" for m in missed]


def run() -> list[str]:
    """Problems found; an empty list means the checker can be trusted."""
    return _edges() + _corruptions()
