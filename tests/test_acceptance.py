"""End-to-end acceptance gate for the elastic-sphere model.

Nine numbered checks pin the package's headline behavior: the quantum
limit of the analytic joint law, the CHSH curve between the quantum and
algebraic extremes, Monte Carlo fidelity, the separability landscape,
the deterministic-marginal theorem, the product-form algebra, the
connected-vessels scenarios, order invariance, and the density-matrix
bridge. Each check prints a single pass or fail line; run with

    pytest tests/test_acceptance.py -v -s

to see every line alongside the pytest verdicts.
"""

import csv
import functools
import io
import math
import time

import numpy as np

from esphere import (
    ChshSetup,
    Direction,
    ExperimentTriple,
    JointOutcomeProb,
    JointTestSpec,
    MeasurementOrder,
    OutcomeProb,
    Tolerance,
    check_compatibility,
    check_product_criterion,
    check_separability,
    chsh,
    classify,
    cli,
    is_classical_joint,
    is_classical_test,
    joint_distribution_analytic,
    scan,
    simulate,
    vessels_scenario,
)
from esphere.sphere import BlochState, from_density_matrix, to_density_matrix

SQRT2 = math.sqrt(2.0)


def criterion(num, summary):
    """Print one pass/fail line per acceptance check, then defer to pytest."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL ({summary})")
                raise
            print(f"criterion {num}: PASS ({summary})")

        return wrapper

    return decorate


def run_cli_csv(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


def random_direction(rng):
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return Direction(v[0] / n, v[1] / n, v[2] / n)


@criterion(1, "quantum-limit joint law on the seven reference angles")
def test_criterion_1_quantum_limit_probabilities():
    pole = Direction.from_angles(0.0)
    angles = (
        0.0,
        math.pi / 6.0,
        math.pi / 4.0,
        math.pi / 3.0,
        math.pi / 2.0,
        2.0 * math.pi / 3.0,
        math.pi,
    )
    for theta in angles:
        u2 = Direction.from_angles(theta)
        j = joint_distribution_analytic(pole, u2, 1.0)
        same = 0.5 * math.sin(0.5 * theta) ** 2
        diff = 0.5 * math.cos(0.5 * theta) ** 2
        for got, want in zip(j.as_tuple(), (same, diff, diff, same)):
            assert abs(got - want) <= 1e-12, theta


@criterion(2, "CHSH endpoints via the CLI and the min(4, 2*sqrt(2)/eps) law")
def test_criterion_2_chsh_reproduction(capsys):
    start = time.perf_counter()

    (row,) = run_cli_csv(capsys, "chsh", "--epsilon", "1")
    assert abs(float(row["s"]) - 2.0 * SQRT2) <= 1e-9

    (row,) = run_cli_csv(capsys, "chsh", "--epsilon", "0")
    assert float(row["s"]) == 4.0

    a, a_prime, b, b_prime = (
        Direction.from_angles(t)
        for t in (0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)
    )
    for eps in np.linspace(0.1, 1.0, 10):
        eps = float(eps)
        # Brute force: four joint distributions, four correlations, one S.
        def corr(u1, u2):
            j = joint_distribution_analytic(u1, u2, eps)
            return (j.p1 + j.p4) - (j.p2 + j.p3)

        brute = abs(corr(a, b) - corr(a, b_prime) + corr(a_prime, b) + corr(a_prime, b_prime))
        law = min(4.0, 2.0 * SQRT2 / eps)
        assert abs(brute - law) <= 1e-9, eps
        assert abs(chsh(ChshSetup.coplanar(eps)).s - law) <= 1e-9, eps

    assert time.perf_counter() - start < 1.0


@criterion(3, "Monte Carlo frequencies within 0.002 of the analytic law")
def test_criterion_3_monte_carlo_fidelity(capsys):
    start = time.perf_counter()

    rows = run_cli_csv(
        capsys,
        "simulate",
        "--epsilon", "1",
        "--theta", "1.0471976",
        "--trials", "1000000",
        "--seed", "42",
    )
    reference = (0.125, 0.375, 0.375, 0.125)
    for row, want in zip(rows, reference):
        assert abs(float(row["frequency"]) - want) <= 0.002, row

    pole = Direction.from_angles(0.0)
    cases = {0.3: (1.3, math.pi / 2.0, 1.8), 0.7: (0.9, 1.2, 2.0)}
    seed = 43
    for eps, thetas in cases.items():
        for theta in thetas:
            u2 = Direction.from_angles(theta)
            spec = JointTestSpec(u1=pole, u2=u2, epsilon=eps)
            freq, _ = simulate(spec, trials=1_000_000, seed=seed)
            seed += 1
            analytic = joint_distribution_analytic(pole, u2, eps)
            for got, want in zip(freq.as_tuple(), analytic.as_tuple()):
                assert abs(got - want) <= 0.002, (eps, theta)

    assert time.perf_counter() - start < 10.0


@criterion(4, "separability landscape over the (epsilon, theta) grid")
def test_criterion_4_separability_landscape():
    start = time.perf_counter()
    thetas = [float(t) for t in np.linspace(0.0, math.pi, 181)]
    tol = Tolerance(eps_prob=1e-9)

    cols = scan([0.25, 0.5, 0.75, 1.0], thetas, tol)
    for i in range(len(cols["epsilon"])):
        assert cols["compatible"][i], (cols["epsilon"][i], cols["theta"][i])
        # Column 90 is the orthogonal midpoint of the 181-point grid.
        assert cols["separated"][i] == (i % 181 == 90), (cols["epsilon"][i], cols["theta"][i])

    pole = Direction.from_angles(0.0)
    cols = scan([0.0], thetas, tol)
    for i in range(len(cols["epsilon"])):
        expected = pole.dot(Direction.from_angles(cols["theta"][i])) <= 0.0
        assert cols["compatible"][i] == expected, cols["theta"][i]
        assert cols["separated"][i] == expected, cols["theta"][i]

    assert time.perf_counter() - start < 1.0


@criterion(5, "deterministic marginals: compatible iff separated, and classical")
def test_criterion_5_theorem_one_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20250819)
    tol = Tolerance().eps_prob
    certain_yes = OutcomeProb(1.0, 0.0)
    certain_no = OutcomeProb(0.0, 1.0)

    kept = 0
    while kept < 1000:
        left_yes = bool(rng.integers(2))
        right_yes = bool(rng.integers(2))
        if rng.integers(2):
            # Near point mass on the cell matching the marginals.
            jitter = float(rng.uniform(0.0, tol / 8.0))
            cell = 2 * (not left_yes) + (not right_yes)
            probs = [jitter / 3.0] * 4
            probs[cell] = 1.0 - jitter
        else:
            weights = rng.uniform(0.01, 1.0, size=4)
            probs = list(weights / weights.sum())
        t = ExperimentTriple(
            left=certain_yes if left_yes else certain_no,
            right=certain_yes if right_yes else certain_no,
            joint=JointOutcomeProb(*probs),
        )
        compatible, residuals = check_compatibility(t)
        # Skip the shell around the tolerance boundary where the
        # biconditional is allowed to fray by predicate construction.
        if tol / 4.0 < max(residuals) < 4.0 * tol:
            continue
        kept += 1
        separated, _ = check_separability(t)
        assert compatible == separated
        if compatible:
            assert is_classical_joint(t.joint)

    assert time.perf_counter() - start < 1.0


@criterion(6, "product triples are compatible; separated iff p1*p4 == p2*p3")
def test_criterion_6_algebraic_implications():
    start = time.perf_counter()
    rng = np.random.default_rng(6021023)

    for _ in range(1000):
        pl = float(rng.uniform(0.0, 1.0))
        pr = float(rng.uniform(0.0, 1.0))
        t = ExperimentTriple(
            left=OutcomeProb(pl, 1.0 - pl),
            right=OutcomeProb(pr, 1.0 - pr),
            joint=JointOutcomeProb(
                pl * pr, pl * (1.0 - pr), (1.0 - pl) * pr, (1.0 - pl) * (1.0 - pr)
            ),
        )
        compatible, _ = check_compatibility(t)
        assert compatible, (pl, pr)

    # Exact dyadic grid: every four-outcome distribution in eighths. Sums
    # and products are exact in binary floating point, so the tolerance
    # can sit at machine scale.
    exact = Tolerance(eps_prob=1e-15)
    count = 0
    for k1 in range(9):
        for k2 in range(9 - k1):
            for k3 in range(9 - k1 - k2):
                k4 = 8 - k1 - k2 - k3
                j = JointOutcomeProb(k1 / 8.0, k2 / 8.0, k3 / 8.0, k4 / 8.0)
                t = ExperimentTriple(
                    left=OutcomeProb(j.p1 + j.p2, j.p3 + j.p4),
                    right=OutcomeProb(j.p1 + j.p3, j.p2 + j.p4),
                    joint=j,
                )
                compatible, _ = check_compatibility(t, exact)
                assert compatible
                separated, _ = check_separability(t, exact)
                assert separated == check_product_criterion(j, exact), j
                count += 1
    assert count == 165

    assert time.perf_counter() - start < 1.0


@criterion(7, "connected-vessels joints break compatibility, not classicality of parts")
def test_criterion_7_vessels_scenarios():
    t = vessels_scenario("alpha_beta")
    assert t.joint.as_tuple() == (0.5, 0.0, 0.5, 0.0)
    assert is_classical_test(t.left) and is_classical_test(t.right)
    report = classify(t)
    assert not report.compatible
    assert not report.classical_joint

    t = vessels_scenario("alpha_alpha")
    assert t.joint.p1 == 0.0
    assert not classify(t).compatible


@criterion(8, "left-first and right-first runs tell the same story")
def test_criterion_8_order_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(77001)
    trials = 100_000

    for i in range(50):
        eps = float(rng.uniform(0.05, 1.0))
        u1 = random_direction(rng)
        u2 = random_direction(rng)

        # Analytic: a right-first run reports (right, left) cells, so map
        # its distribution back into (left, right) labels by swapping the
        # mixed outcomes.
        lf = joint_distribution_analytic(u1, u2, eps)
        swapped = joint_distribution_analytic(u2, u1, eps)
        rf = (swapped.p1, swapped.p3, swapped.p2, swapped.p4)
        for a, b in zip(lf.as_tuple(), rf):
            assert abs(a - b) <= 1e-15, (eps, i)

        seed = 9000 + i
        freq_lf, _ = simulate(
            JointTestSpec(u1=u1, u2=u2, epsilon=eps), trials=trials, seed=seed
        )
        freq_rf, _ = simulate(
            JointTestSpec(u1=u1, u2=u2, epsilon=eps, order=MeasurementOrder.RIGHT_FIRST),
            trials=trials,
            seed=seed,
        )
        for a, b in zip(freq_lf.as_tuple(), freq_rf.as_tuple()):
            pooled = 0.5 * (a + b)
            combined_se = math.sqrt(2.0 * pooled * (1.0 - pooled) / trials)
            assert abs(a - b) <= 4.0 * combined_se, (eps, i)

    assert time.perf_counter() - start < 5.0


@criterion(9, "density-matrix bridge: spectrum, purity, round trip")
def test_criterion_9_density_matrix_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)

    states = []
    for _ in range(97):
        r = float(rng.uniform(0.0, 1.0))
        u = random_direction(rng)
        states.append(BlochState(r * u.x, r * u.y, r * u.z))
    states.append(BlochState.center())
    states.append(BlochState(0.0, 0.0, 1.0))
    u = random_direction(rng)
    states.append(BlochState(u.x, u.y, u.z))

    for s in states:
        r = s.norm()
        d = to_density_matrix(s)
        arr = np.array([[d.d00, d.d01], [d.d10, d.d11]])
        assert np.allclose(arr, arr.conj().T, atol=1e-15)
        assert abs(np.trace(arr).real - 1.0) <= 1e-15
        assert abs(np.trace(arr).imag) <= 1e-15

        hi, lo = d.eigenvalues()
        assert abs(hi - 0.5 * (1.0 + r)) <= 1e-10
        assert abs(lo - 0.5 * (1.0 - r)) <= 1e-10
        lo_np, hi_np = np.linalg.eigvalsh(arr)
        assert abs(hi - hi_np) <= 1e-10
        assert abs(lo - lo_np) <= 1e-10

        idempotent = bool(np.max(np.abs(arr @ arr - arr)) <= 1e-10)
        assert idempotent == (1.0 - r <= 1e-10), r

        back = from_density_matrix(d)
        assert abs(back.x - s.x) <= 1e-10
        assert abs(back.y - s.y) <= 1e-10
        assert abs(back.z - s.z) <= 1e-10

    assert time.perf_counter() - start < 1.0
