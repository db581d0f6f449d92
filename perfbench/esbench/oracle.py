"""Independent closed-form oracle and reference sampler for esphere outputs.

Everything here is written from the model description (PAPER.md and the
README), not from the library's code:

* elastic measurement of one sphere: the particle lands at ``a = v . u`` on
  a band of half-length ``eps`` that snaps uniformly; yes when the break is
  at or below the particle, so ``p_yes = (eps + a) / (2 eps)`` clamped to
  [0, 1]; at ``eps = 0`` the answer is yes exactly when ``a >= 0``;
* singlet pair, ``c = u1 . u2``: ``p1 = p4 = (eps - c) / (4 eps)`` and
  ``p2 = p3 = (eps + c) / (4 eps)`` inside the band, clamped to the
  deterministic pairs outside it; at ``eps = 0`` the first-measured side
  answers yes, so the certain outcome is (yes, yes) when ``c <= 0`` and
  otherwise (yes, no) under left-first labelling, (no, yes) under
  right-first labelling;
* ``E = -c / eps`` clamped to [-1, 1] (``eps = 0``: +1 when ``c <= 0``);
* canonical CHSH ``S(eps) = min(4, 2 sqrt(2) / eps)``.

The law is written once, over numpy arrays; scalar callers pass scalars.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Absolute tolerance for comparing a library float with the oracle. Looser
# than the few-ulp error of either route, far tighter than any real defect.
FLOAT_ATOL = 1e-12
# Residual tolerance the library's predicates use by default.
PREDICATE_TOL = 1e-9

# Upper 1e-6 quantiles of the chi-square law, by degrees of freedom. A
# correct sampler exceeds them once in a million operations.
CHI2_FALSE_ALARM = 1e-6
CHI2_CRITICAL = {1: 23.928, 2: 27.631, 3: 30.665}

SCAN_HEADER = ("epsilon", "theta", "p1", "p2", "p3", "p4", "E",
               "compatible", "separated", "classical_joint")


def direction(theta: float, phi: float = 0.0) -> tuple[float, float, float]:
    """Unit axis at polar angle theta and azimuth phi."""
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def dot(u: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    """Projection of one unit vector on another, clipped to [-1, 1]."""
    d = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return max(-1.0, min(1.0, d))


def p_yes(a: float, eps: float) -> float:
    """Yes probability of the elastic measurement at projection ``a``."""
    if eps == 0.0:
        return 1.0 if a >= 0.0 else 0.0
    return min(1.0, max(0.0, (eps + a) / (2.0 * eps)))


def joint_table(c, eps, right_first=False) -> np.ndarray:
    """Singlet joint law, shape ``(..., 4)`` over broadcast ``c`` and ``eps``."""
    c = np.asarray(c, dtype=float)
    eps = np.asarray(eps, dtype=float)
    c, eps = np.broadcast_arrays(c, eps)
    random = eps > 0.0
    safe = np.where(random, eps, 1.0)
    with np.errstate(over="ignore"):  # subnormal eps: outside the band the ratio is infinite
        anti = np.clip((safe - c) / (4.0 * safe), 0.0, 0.5)
        same = np.clip((safe + c) / (4.0 * safe), 0.0, 0.5)
    table = np.stack([anti, same, same, anti], axis=-1)
    # eps = 0: one certain outcome, labelled by who went first
    certain = np.zeros(table.shape)
    certain[..., 0] = c <= 0.0
    certain[..., 2 if right_first else 1] = c > 0.0
    return np.where(random[..., None], table, certain)


def correlation(c, eps) -> np.ndarray:
    """E = p1 + p4 - p2 - p3 in closed form."""
    c = np.asarray(c, dtype=float)
    eps = np.asarray(eps, dtype=float)
    safe = np.where(eps > 0.0, eps, 1.0)
    with np.errstate(over="ignore"):
        slope = np.clip(-c / safe, -1.0, 1.0)
    return np.where(eps > 0.0, slope, np.where(c <= 0.0, 1.0, -1.0))


def chsh_s(eps: float) -> float:
    """Canonical coplanar CHSH value."""
    return 4.0 if eps == 0.0 else min(4.0, 2.0 * math.sqrt(2.0) / eps)


def classify(c, eps, tol: float = PREDICATE_TOL) -> dict[str, np.ndarray]:
    """Operational verdicts for the singlet triple at ``(c, eps)``.

    Each side measured alone acts on a centred particle (a = 0): yes with
    probability 1/2, or with certainty at eps = 0. Compatibility asks that
    the joint's marginals reproduce those; separability that the joint is
    their product; classicality that one outcome is certain.
    """
    p = joint_table(c, eps)
    side = np.where(np.asarray(eps) > 0.0, 0.5, 1.0)
    p1, p2, p3, p4 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    comp = np.max(np.stack([
        np.abs(side - (p1 + p2)), np.abs(1.0 - side - (p3 + p4)),
        np.abs(side - (p1 + p3)), np.abs(1.0 - side - (p2 + p4)),
    ]), axis=0) <= tol
    sep = np.max(np.stack([
        np.abs(p1 - side * side), np.abs(p2 - side * (1.0 - side)),
        np.abs(p3 - (1.0 - side) * side), np.abs(p4 - (1.0 - side) * (1.0 - side)),
    ]), axis=0) <= tol
    classical_side = np.maximum(side, 1.0 - side) >= 1.0 - tol
    return {
        "compatible": comp,
        "separated": sep & comp,
        "classical_left": classical_side,
        "classical_right": classical_side,
        "classical_joint": np.max(p, axis=-1) >= 1.0 - tol,
    }


def scan_rows(epsilons: list[float], thetas: list[float]) -> dict[str, np.ndarray]:
    """Expected scan columns, epsilon outermost, keyed by CSV header."""
    pole = direction(0.0)
    c_theta = np.array([dot(pole, direction(t)) for t in thetas])
    eps = np.repeat(np.asarray(epsilons, dtype=float), len(thetas))
    theta = np.tile(np.asarray(thetas, dtype=float), len(epsilons))
    c = np.tile(c_theta, len(epsilons))
    p = joint_table(c, eps)
    verdict = classify(c, eps)
    return {
        "epsilon": eps, "theta": theta,
        "p1": p[:, 0], "p2": p[:, 1], "p3": p[:, 2], "p4": p[:, 3],
        "E": correlation(c, eps),
        "compatible": verdict["compatible"],
        "separated": verdict["separated"],
        "classical_joint": verdict["classical_joint"],
    }


VESSELS = {
    # Twenty litres over two connected vessels; each test alone is certain.
    "alpha-alpha": {"left_p_yes": 1.0, "right_p_yes": 1.0, "p1": 0.0, "p2": 0.5, "p3": 0.5,
                    "p4": 0.0, "compatible": False, "separated": False, "classical_left": True,
                    "classical_right": True, "classical_joint": False},
    "alpha-beta": {"left_p_yes": 1.0, "right_p_yes": 1.0, "p1": 0.5, "p2": 0.0, "p3": 0.5,
                   "p4": 0.0, "compatible": False, "separated": False, "classical_left": True,
                   "classical_right": True, "classical_joint": False},
}


def _second_yes(lam: np.ndarray, a: float, eps: float) -> int:
    """Yes answers of a side whose particle sits at projection ``a``."""
    if a >= eps:
        return int(lam.size)
    if a <= -eps:
        return 0
    return int(np.count_nonzero(lam <= a))


def reference_counts(
    c: float, eps: float, right_first: bool, trials: int, seed: int, block_trials: int
) -> tuple[tuple[int, int, int, int], float]:
    """Joint-test counts from the rod dynamics, with the documented stream.

    Block ``b`` of ``block_trials`` trials draws ``2 n`` uniforms on
    ``[-eps, eps]`` from ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(b,)))``: the first ``n`` break the first-measured side's
    band, the next ``n`` the second side's. The first particle sits at the
    centre; the rod then drags the partner opposite the realised eigenstate,
    to projection ``-c`` after yes and ``+c`` after no. Returns the counts
    in (left, right) labelling and the seconds spent drawing uniforms.
    """
    first_second = [0, 0, 0, 0]  # (yes,yes), (yes,no), (no,yes), (no,no) by measuring order
    draw_s = 0.0
    if eps == 0.0:
        # the centred first particle ties at a = 0 and answers yes
        first_second[0 if -c >= 0.0 else 1] = trials
    else:
        full, rest = divmod(trials, block_trials)
        sizes = [block_trials] * full + ([rest] if rest else [])
        for block, n in enumerate(sizes):
            start = time.perf_counter()
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
            lam = rng.uniform(-eps, eps, 2 * n)
            draw_s += time.perf_counter() - start
            first_yes = lam[:n] <= 0.0
            n_yes = int(np.count_nonzero(first_yes))
            second = lam[n:]
            yy = _second_yes(second[first_yes], -c, eps)
            ny = _second_yes(second[~first_yes], c, eps)
            first_second[0] += yy
            first_second[1] += n_yes - yy
            first_second[2] += ny
            first_second[3] += n - n_yes - ny
    yy, yn, ny, nn = first_second
    if right_first:
        return ((yy, ny, yn, nn), draw_s)
    return ((yy, yn, ny, nn), draw_s)


def chi_square(counts: tuple[int, ...], probs) -> tuple[float, int, bool]:
    """Pearson statistic against ``probs``, its degrees of freedom, verdict.

    Cells with zero probability must be empty; the others enter the
    statistic. The verdict compares with :data:`CHI2_CRITICAL`.
    """
    n = sum(counts)
    stat = 0.0
    cells = 0
    for k, p in zip(counts, probs):
        if p <= 0.0:
            if k:
                return (math.inf, 0, False)
            continue
        expected = n * p
        stat += (k - expected) ** 2 / expected
        cells += 1
    dof = cells - 1
    if dof == 0:
        return (0.0, 0, True)
    return (stat, dof, stat < CHI2_CRITICAL[dof])
