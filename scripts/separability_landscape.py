"""Map where the singlet joint test is compatible, separated, or classical.

Classifies the analytic joint distribution over an (epsilon, theta) grid
and prints a compact character map per epsilon row: 'S' where the two
one-sided tests are separated, 'c' where they are merely compatible,
'x' where no joint experiment recovers the marginals at all (epsilon=0
with positive overlap). For the full grid as CSV or JSON under the
published schema, use ``esphere scan --output``.

Usage:
    python scripts/separability_landscape.py [--epsilons 0,0.25,0.5,0.75,1] \
        [--theta-points 61]
"""

import argparse
import math
import sys

import numpy as np

from esphere import scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--epsilons", default="0,0.25,0.5,0.75,1", help="comma-separated elastic half-lengths"
    )
    parser.add_argument("--theta-points", type=int, default=61, help="grid size on [0, pi]")
    args = parser.parse_args()

    epsilons = [float(tok) for tok in args.epsilons.split(",")]
    thetas = [float(t) for t in np.linspace(0.0, math.pi, args.theta_points)]
    cols = scan(epsilons, thetas)
    marks = np.where(cols["separated"], "S", np.where(cols["compatible"], "c", "x"))

    print(f"theta runs 0 .. pi left to right ({args.theta_points} points)")
    for eps, row in zip(epsilons, marks.reshape(len(epsilons), len(thetas))):
        print(f"epsilon {eps:5.2f}  {''.join(row)}")
    print("\nS separated   c compatible only   x not compatible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
