"""Command-line front end.

Subcommands::

    single     analytic yes/no probabilities of one elastic measurement
    joint      analytic four-outcome distribution of the singlet joint test
    simulate   Monte Carlo joint-test trials (seeded, reproducible)
    classify   compatibility / separability / classicality of one grid point
    chsh       four correlations and the CHSH value S
    scan       classification landscape over an (epsilon, theta) grid
    vessels    the connected-vessels scenarios and their classification

All angles are radians; there is no degree mode. Output is CSV (default)
or JSON with a ``meta`` block; identical invocations produce byte-identical
output, and ``simulate`` demands an explicit ``--seed`` so every published
number can be regenerated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable

import numpy as np

from . import __version__
from .analysis import CANONICAL_CHSH_ANGLES, ChshSetup, chsh, classification_row, scan
from .operational import Tolerance, classify, vessels_scenario
from .singlet import (
    JointTestSpec,
    MeasurementOrder,
    joint_distribution_analytic,
    simulate,
)
from .sphere import BlochState, Direction, outcome_probability
from .validation import ValidationError, check_grid_size

Columns = dict[str, np.ndarray]


def _csv_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # 17 significant digits: parsing the field recovers the exact double
        return "%.17g" % value
    return str(value)


def _json_text(value: object) -> str:
    if isinstance(value, float):
        return float.__repr__(value)  # what json.dumps prints for a finite float
    return json.dumps(value)


def _row(fields: dict[str, object]) -> Columns:
    """One output row as columns of length one."""
    return {key: np.array([value]) for key, value in fields.items()}


def _cells(column: np.ndarray, text: Callable[[object], str], before: str = "", after: str = "") -> list[str]:
    """The printed text of each entry of one column; each distinct value is formatted once."""
    floats = column.dtype.kind == "f"
    # Floats are told apart by bit pattern, so -0.0 keeps its sign.
    distinct, where = np.unique(column.view(np.uint64) if floats else column, return_inverse=True)
    values = (distinct.view(np.float64) if floats else distinct).tolist()
    printed = np.array([before + text(value) + after for value in values], dtype=object)
    return printed[where].tolist()


def _render_csv(columns: Columns) -> str:
    cells = [_cells(column, _csv_text) for column in columns.values()]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _render_json(columns: Columns, meta: dict[str, object]) -> str:
    # Each cell carries its key and indentation as json.dumps(indent=2) lays
    # a row out, and the first and last cells of a row carry its braces, so
    # rows are plain joins; the encoder's indented output is pure Python.
    last = len(columns) - 1
    cells = [
        _cells(
            column,
            _json_text,
            ("    {\n" if i == 0 else "") + f"      {json.dumps(key)}: ",
            "\n    }" if i == last else "",
        )
        for i, (key, column) in enumerate(columns.items())
    ]
    rows = ",\n".join(map(",\n".join, zip(*cells)))
    head = json.dumps({"meta": meta}, indent=2)[: -len("\n}")]
    return f'{head},\n  "rows": [\n{rows}\n  ]\n}}\n'


def _emit(args: argparse.Namespace, columns: Columns) -> None:
    if args.format == "json":
        flags = {
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "format", "output") and value is not None
        }
        meta = {
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "flags": flags,
        }
        text = _render_json(columns, meta)
    else:
        text = _render_csv(columns)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_float_list(raw: str, name: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{name} must be a comma-separated list of numbers, got {raw!r}") from exc


def _resolve_pair(args: argparse.Namespace) -> tuple[Direction, Direction, float]:
    """Directions of a joint test plus the relative angle between them.

    Either ``--theta`` (coplanar shorthand) or the four explicit angles;
    mixing both is rejected. With nothing given the directions coincide.
    """
    explicit = [args.theta1, args.phi1, args.theta2, args.phi2]
    if args.theta is not None:
        if any(value is not None for value in explicit):
            raise ValidationError("--theta cannot be combined with --theta1/--phi1/--theta2/--phi2")
        u1 = Direction.from_angles(0.0)
        u2 = Direction.from_angles(args.theta)
        return (u1, u2, args.theta)
    theta1, phi1, theta2, phi2 = (0.0 if value is None else value for value in explicit)
    u1 = Direction.from_angles(theta1, phi1)
    u2 = Direction.from_angles(theta2, phi2)
    return (u1, u2, math.acos(u1.dot(u2)))


def cmd_single(args: argparse.Namespace) -> Columns:
    state = BlochState.from_angles(args.state_r, args.state_theta, args.state_phi)
    direction = Direction.from_angles(args.dir_theta, args.dir_phi)
    probs = outcome_probability(state, direction, args.epsilon)
    return _row({"p_yes": probs.p_yes, "p_no": probs.p_no})


def cmd_joint(args: argparse.Namespace) -> Columns:
    u1, u2, _ = _resolve_pair(args)
    j = joint_distribution_analytic(u1, u2, args.epsilon)
    return _row({"p1": j.p1, "p2": j.p2, "p3": j.p3, "p4": j.p4})


def cmd_simulate(args: argparse.Namespace) -> Columns:
    u1, u2, _ = _resolve_pair(args)
    order = MeasurementOrder(args.order)
    spec = JointTestSpec(u1=u1, u2=u2, epsilon=args.epsilon, order=order)
    freqs, counts = simulate(spec, args.trials, args.seed)
    analytic = joint_distribution_analytic(u1, u2, args.epsilon)
    reference = list(analytic.as_tuple())
    if args.epsilon == 0.0 and order is MeasurementOrder.RIGHT_FIRST:
        # the deterministic certain outcome is labeled by who went first
        reference[1], reference[2] = reference[2], reference[1]
    return {
        "outcome": np.array(["x1", "x2", "x3", "x4"]),
        "count": np.array(counts),
        "frequency": np.array(freqs.as_tuple()),
        "analytic": np.array(reference),
    }


def cmd_classify(args: argparse.Namespace) -> Columns:
    u1, u2, theta = _resolve_pair(args)
    return _row(classification_row(args.epsilon, theta, u1, u2, Tolerance(args.tolerance)))


def cmd_chsh(args: argparse.Namespace) -> Columns:
    setup = ChshSetup.coplanar(args.epsilon, args.a, args.a_prime, args.b, args.b_prime)
    result = chsh(setup)
    return _row(
        {
            "e_ab": result.e_ab,
            "e_ab_prime": result.e_ab_prime,
            "e_a_prime_b": result.e_a_prime_b,
            "e_a_prime_b_prime": result.e_a_prime_b_prime,
            "s": result.s,
        }
    )


def cmd_scan(args: argparse.Namespace) -> Columns:
    epsilons = _parse_float_list(args.epsilons, "--epsilons")
    if not epsilons:
        raise ValidationError("--epsilons must name at least one value")
    if args.thetas is not None:
        thetas = _parse_float_list(args.thetas, "--thetas")
        if not thetas:
            raise ValidationError("--thetas must name at least one value")
        check_grid_size(len(epsilons), len(thetas))
    else:
        if args.theta_points < 1:
            raise ValidationError(f"--theta-points must be >= 1, got {args.theta_points}")
        check_grid_size(len(epsilons), args.theta_points)
        thetas = np.linspace(0.0, math.pi, args.theta_points).tolist()
    return scan(epsilons, thetas, Tolerance(args.tolerance))


def cmd_vessels(args: argparse.Namespace) -> Columns:
    kind = args.kind.replace("-", "_")
    triple = vessels_scenario(kind)
    report = classify(triple, Tolerance(args.tolerance))
    j = triple.joint
    return _row(
        {
            "kind": args.kind,
            "left_p_yes": triple.left.p_yes,
            "right_p_yes": triple.right.p_yes,
            "p1": j.p1,
            "p2": j.p2,
            "p3": j.p3,
            "p4": j.p4,
            "compatible": report.compatible,
            "separated": report.separated,
            "classical_left": report.classical_left,
            "classical_right": report.classical_right,
            "classical_joint": report.classical_joint,
        }
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--output", default=None, help="write to this file instead of standard output")


def _add_pair_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=None,
                        help="relative angle between the two directions (coplanar shorthand)")
    parser.add_argument("--theta1", type=float, default=None, help="left polar angle")
    parser.add_argument("--phi1", type=float, default=None, help="left azimuth")
    parser.add_argument("--theta2", type=float, default=None, help="right polar angle")
    parser.add_argument("--phi2", type=float, default=None, help="right azimuth")


def _add_tolerance_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="absolute tolerance on probability residuals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esphere",
        description="Elastic-sphere spin model: analytic statistics, simulation, classification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("single", help="one elastic measurement on one sphere")
    p.add_argument("--epsilon", type=float, required=True, help="elastic half-length in [0, 1]")
    p.add_argument("--state-r", type=float, default=0.0, help="state radius in [0, 1]")
    p.add_argument("--state-theta", type=float, default=0.0, help="state polar angle")
    p.add_argument("--state-phi", type=float, default=0.0, help="state azimuth")
    p.add_argument("--dir-theta", type=float, default=0.0, help="measurement polar angle")
    p.add_argument("--dir-phi", type=float, default=0.0, help="measurement azimuth")
    _add_output_flags(p)
    p.set_defaults(func=cmd_single)

    p = subparsers.add_parser("joint", help="analytic singlet joint distribution")
    p.add_argument("--epsilon", type=float, required=True, help="elastic half-length in [0, 1]")
    _add_pair_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_joint)

    p = subparsers.add_parser("simulate", help="Monte Carlo joint-test trials")
    p.add_argument("--epsilon", type=float, required=True, help="elastic half-length in [0, 1]")
    _add_pair_flags(p)
    p.add_argument("--trials", type=int, required=True, help="number of trials (>= 1)")
    p.add_argument("--seed", type=int, required=True,
                   help="random seed (>= 0); required so runs are reproducible")
    p.add_argument("--order", choices=[o.value for o in MeasurementOrder], default=MeasurementOrder.LEFT_FIRST.value,
                   help="which side is measured first")
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = subparsers.add_parser("classify", help="classify one (epsilon, directions) point")
    p.add_argument("--epsilon", type=float, required=True, help="elastic half-length in [0, 1]")
    _add_pair_flags(p)
    _add_tolerance_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = subparsers.add_parser("chsh", help="CHSH value at coplanar settings")
    p.add_argument("--epsilon", type=float, required=True, help="elastic half-length in [0, 1]")
    p.add_argument("--a", type=float, default=CANONICAL_CHSH_ANGLES[0], help="left setting a")
    p.add_argument("--a-prime", type=float, default=CANONICAL_CHSH_ANGLES[1], help="left setting a'")
    p.add_argument("--b", type=float, default=CANONICAL_CHSH_ANGLES[2], help="right setting b")
    p.add_argument("--b-prime", type=float, default=CANONICAL_CHSH_ANGLES[3], help="right setting b'")
    _add_output_flags(p)
    p.set_defaults(func=cmd_chsh)

    p = subparsers.add_parser("scan", help="classification landscape over a grid")
    p.add_argument("--epsilons", required=True, help="comma-separated elastic half-lengths")
    p.add_argument("--thetas", default=None, help="comma-separated relative angles in [0, pi]")
    p.add_argument("--theta-points", type=int, default=181,
                   help="evenly spaced angle grid size on [0, pi] when --thetas is absent")
    _add_tolerance_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_scan)

    p = subparsers.add_parser("vessels", help="connected-vessels scenarios")
    p.add_argument("--kind", choices=("alpha-alpha", "alpha-beta"), required=True,
                   help="which pair of water tests to stage")
    _add_tolerance_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_vessels)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args, args.func(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
