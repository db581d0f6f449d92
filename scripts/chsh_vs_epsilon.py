"""Sweep the CHSH value across the elastic continuum.

Prints S(epsilon) at the canonical coplanar settings next to the closed
form min(4, 2*sqrt(2)/epsilon), marking where the curve leaves the
algebraic ceiling and where it lands on the quantum value. For one
epsilon in the published CSV/JSON schema, use
``esphere chsh --epsilon E [--format json]``.

Usage:
    python scripts/chsh_vs_epsilon.py [--points 21]
"""

import argparse
import math
import sys

import numpy as np

from esphere import ChshSetup, chsh


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=21, help="grid size on [0, 1]")
    args = parser.parse_args()

    threshold = math.sqrt(2.0) / 2.0
    print(f"{'epsilon':>8}  {'S':>10}  {'closed form':>11}")
    for eps in np.linspace(0.0, 1.0, args.points):
        eps = float(eps)
        s = chsh(ChshSetup.coplanar(eps)).s
        law = 4.0 if eps == 0.0 else min(4.0, 2.0 * math.sqrt(2.0) / eps)
        note = ""
        if eps <= threshold:
            note = "  (ceiling)"
        elif abs(eps - 1.0) < 1e-12:
            note = "  (quantum 2*sqrt(2))"
        print(f"{eps:8.3f}  {s:10.6f}  {law:11.6f}{note}")
    print(f"\nceiling holds up to epsilon = sqrt(2)/2 = {threshold:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
