"""Tests for the command-line interface: flags, formats, exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

from esphere import Direction, JointOutcomeProb, ValidationError, cli, joint_distribution_analytic, singlet, validation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def oracle_format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def oracle_csv(rows):
    """Reference CSV renderer: the csv module over row dicts."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([oracle_format_value(v) for v in row.values()])
    return buffer.getvalue()


def oracle_json(rows, meta):
    """Reference JSON renderer: json.dumps of the whole document."""
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def oracle_stdout(argv):
    """What ``esphere <argv>`` prints, rendered by the reference renderers from the command's columns."""
    args = cli.build_parser().parse_args(argv)
    columns = args.func(args)
    rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]
    if args.format == "csv":
        return oracle_csv(rows)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "format", "output") and v is not None}
    return oracle_json(rows, {"version": cli.__version__, "seed": getattr(args, "seed", None), "flags": flags})


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTopLevel:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "esphere" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2


class TestSingle:
    def test_aligned_pure_state_is_certain(self, capsys):
        code, out, _ = run_cli(
            capsys, "single", "--epsilon", "0.5", "--state-r", "1", "--state-theta", "0"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_yes"]) == 1.0
        assert float(row["p_no"]) == 0.0

    def test_center_state_is_even(self, capsys):
        code, out, _ = run_cli(capsys, "single", "--epsilon", "1", "--state-r", "0")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_yes"]) == 0.5

    def test_tilted_direction_gives_three_quarters(self, capsys):
        # a = cos(1.3181) ~ 0.25, epsilon = 0.5: p_yes = (0.5 + a) / 1.
        code, out, _ = run_cli(
            capsys,
            "single",
            "--epsilon", "0.5",
            "--state-r", "1",
            "--state-theta", "0",
            "--dir-theta", "1.3181",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_yes"]) == pytest.approx(0.75, abs=5e-4)
        assert float(row["p_yes"]) == 0.5 + math.cos(1.3181)

    def test_rejects_epsilon_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "single", "--epsilon", "1.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestJoint:
    def test_matches_library_distribution(self, capsys):
        theta = 2.0 * math.pi / 3.0
        code, out, _ = run_cli(
            capsys, "joint", "--epsilon", "1", "--theta", str(theta)
        )
        assert code == 0
        (row,) = parse_csv(out)
        expected = joint_distribution_analytic(
            Direction.from_angles(0.0), Direction.from_angles(theta), 1.0
        )
        got = JointOutcomeProb(
            float(row["p1"]), float(row["p2"]), float(row["p3"]), float(row["p4"])
        )
        assert got.as_tuple() == expected.as_tuple()

    def test_explicit_direction_angles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "joint",
            "--epsilon", "0.5",
            "--theta1", "0", "--phi1", "0",
            "--theta2", str(math.pi / 3.0), "--phi2", "0",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert (float(row["p1"]), float(row["p4"])) == (0.0, 0.0)
        assert float(row["p2"]) == 0.5

    def test_rejects_mixed_angle_styles(self, capsys):
        code, _, err = run_cli(
            capsys, "joint", "--epsilon", "1", "--theta", "1", "--theta1", "1"
        )
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--epsilon", "1", "--theta", "1", "--trials", "10"])
        assert excinfo.value.code == 2

    def test_rejects_zero_trials(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--epsilon", "1", "--theta", "1", "--trials", "0", "--seed", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_rejects_negative_seed(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--epsilon", "1", "--theta", "1", "--trials", "10", "--seed", "-3",
        )
        assert code == 2
        assert "error:" in err

    def test_output_is_reproducible(self, capsys):
        argv = [
            "simulate",
            "--epsilon", "0.7", "--theta", "1.1", "--trials", "20000", "--seed", "9",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_counts_and_frequencies_are_consistent(self, capsys):
        trials = 50000
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--epsilon", "1",
            "--theta", str(math.pi / 2.0),
            "--trials", str(trials),
            "--seed", "4",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["outcome"] for r in rows] == ["x1", "x2", "x3", "x4"]
        assert sum(int(r["count"]) for r in rows) == trials
        for r in rows:
            assert float(r["frequency"]) == int(r["count"]) / trials
            assert float(r["frequency"]) == pytest.approx(
                float(r["analytic"]), abs=0.02
            )

    def test_zero_epsilon_order_swap_relabels(self, capsys):
        base = ["--epsilon", "0", "--theta", "1.0", "--trials", "1000", "--seed", "2"]
        _, out_left, _ = run_cli(capsys, "simulate", *base)
        _, out_right, _ = run_cli(capsys, "simulate", *base, "--order", "right-first")
        left = {r["outcome"]: int(r["count"]) for r in parse_csv(out_left)}
        right = {r["outcome"]: int(r["count"]) for r in parse_csv(out_right)}
        # c > 0 at epsilon 0 concentrates on "first yes, second no".
        assert left == {"x1": 0, "x2": 1000, "x3": 0, "x4": 0}
        assert right == {"x1": 0, "x2": 0, "x3": 1000, "x4": 0}
        for r in parse_csv(out_right):
            assert float(r["frequency"]) == float(r["analytic"])


class TestClassify:
    def test_orthogonal_unit_epsilon_is_separated(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--epsilon", "1", "--theta", repr(math.pi / 2.0)
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["compatible"] == "true"
        assert row["separated"] == "true"
        assert row["classical_joint"] == "false"

    def test_separation_band_is_narrow(self, capsys):
        # Seven digits of pi/2 leave c ~ 2.7e-8, residual ~ 6.7e-9: above
        # the default tolerance, within a looser explicit one.
        _, out, _ = run_cli(capsys, "classify", "--epsilon", "1", "--theta", "1.5707963")
        assert parse_csv(out)[0]["separated"] == "false"
        _, out, _ = run_cli(
            capsys,
            "classify",
            "--epsilon", "1",
            "--theta", "1.5707963",
            "--tolerance", "1e-7",
        )
        assert parse_csv(out)[0]["separated"] == "true"

    def test_oblique_point_is_compatible_only(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--epsilon", "0.5", "--theta", "1.0")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["compatible"] == "true"
        assert row["separated"] == "false"

    def test_header_matches_scan_schema(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "--epsilon", "1", "--theta", "1")
        header = out.splitlines()[0]
        assert header == "epsilon,theta,p1,p2,p3,p4,E,compatible,separated,classical_joint"

    @pytest.mark.parametrize(
        "epsilon, theta, tolerance",
        [
            ("0.5", "1.3", None),  # inside the band
            ("0.5", repr(math.pi / 3.0), None),  # c = epsilon: the band edge
            ("0", "2.0", None),
            ("1", "1.5707963", "1e-7"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_matches_scan_row(self, capsys, epsilon, theta, tolerance, fmt):
        extra = [] if tolerance is None else ["--tolerance", tolerance]
        _, one, _ = run_cli(
            capsys, "classify", "--epsilon", epsilon, "--theta", theta, *extra, "--format", fmt
        )
        _, grid, _ = run_cli(
            capsys, "scan", "--epsilons", epsilon, "--thetas", theta, *extra, "--format", fmt
        )
        if fmt == "csv":
            assert one.splitlines()[1] == grid.splitlines()[1]
        else:
            assert one[one.index('"rows"'):] == grid[grid.index('"rows"'):]


class TestChsh:
    def test_unit_epsilon_quantum_value(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--epsilon", "1")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["s"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_zero_epsilon_algebraic_maximum(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--epsilon", "0")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["s"]) == 4.0

    def test_custom_settings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chsh",
            "--epsilon", "1",
            "--a", "0", "--a-prime", "0", "--b", "0", "--b-prime", "0",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["s"]) == 2.0


class TestScan:
    def test_csv_schema_and_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--epsilons", "0.5,1.0", "--theta-points", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,theta,p1,p2,p3,p4,E,compatible,separated,classical_joint"
        rows = parse_csv(out)
        assert len(rows) == 10
        # %.17g round-trips doubles exactly.
        from esphere import scan as scan_fn

        expected = scan_fn([0.5, 1.0], [i * math.pi / 4.0 for i in range(5)])
        for k, got in enumerate(rows):
            assert float(got["epsilon"]) == expected["epsilon"][k]
            assert float(got["theta"]) == expected["theta"][k]
            assert float(got["p1"]) == expected["p1"][k]
            assert float(got["E"]) == expected["E"][k]
            assert got["separated"] == ("true" if expected["separated"][k] else "false")

    def test_explicit_theta_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--epsilons", "1.0", "--thetas", "0,1.5707963,3.14159"
        )
        assert code == 0
        assert len(parse_csv(out)) == 3

    def test_json_format_has_meta_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--epsilons", "1.0",
            "--theta-points", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["version"] == cli.__version__
        assert doc["meta"]["seed"] is None
        assert doc["meta"]["flags"]["epsilons"] == "1.0"
        assert doc["meta"]["flags"]["theta_points"] == 3
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["compatible"] is True

    def test_bad_epsilons_list_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--epsilons", "0.5,oops")
        assert code == 2
        assert "error:" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--epsilons", "1.0",
            "--theta-points", "3",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("epsilon,theta,")
        assert len(parse_csv(text)) == 3

    def test_unwritable_output_is_an_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "scan",
            "--epsilons", "1.0",
            "--theta-points", "3",
            "--output", str(tmp_path / "missing" / "rows.csv"),
        )
        assert code == 2
        assert "error:" in err


class TestRenderers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--epsilon", "0.5", "--state-r", "1", "--state-theta", "0", "--dir-theta", "1.3181"],
            ["single", "--epsilon", "0", "--state-r", "0"],
            ["joint", "--epsilon", "0.7", "--theta1", "0.3", "--phi1", "1.0", "--theta2", "2.0", "--phi2", "4.0"],
            ["joint", "--epsilon", "5e-324", "--theta", "1.0"],
            ["simulate", "--epsilon", "0.7", "--theta", "1.1", "--trials", "70000", "--seed", "9"],
            ["simulate", "--epsilon", "0", "--theta", "1.0", "--trials", "1000", "--seed", "3", "--order", "right-first"],
            ["classify", "--epsilon", "0.5", "--theta", "-0.0"],
            ["classify", "--epsilon", "1", "--theta", "1.5707963", "--tolerance", "1e-7"],
            ["chsh", "--epsilon", "0.8", "--a", "0.1", "--a-prime", "1.0", "--b", "2.0", "--b-prime", "3.0"],
            ["scan", "--epsilons", "0.25,0.5,1.0", "--theta-points", "19"],
            ["scan", "--epsilons=-0.0,0,5e-324,1e-300,0.5,1", "--thetas=-0.0,0,1.5707963267948966,3.141592653589793"],
            ["scan", "--epsilons", "5e-324", "--thetas", "-0.0"],
            ["scan", "--epsilons", "0.5", "--theta-points", "1", "--tolerance", "0.3"],
            ["vessels", "--kind", "alpha-beta"],
            ["vessels", "--kind", "alpha-alpha"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_reference_renderer(self, capsys, argv, fmt):
        argv = [*argv, "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == oracle_stdout(argv)

    def test_negative_zero_keeps_its_sign(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--epsilons", "0.5", "--thetas=-0.0,0")
        assert [row["theta"] for row in parse_csv(out)] == ["-0", "0"]
        _, out, _ = run_cli(capsys, "scan", "--epsilons", "0.5", "--thetas=-0.0,0", "--format", "json")
        assert '"theta": -0.0,' in out and '"theta": 0.0,' in out


class TestScanGolden:
    """The published 101 x 1001 landscape, pinned byte for byte."""

    EPSILONS = ",".join(repr(round(i * 0.01, 2)) for i in range(101))
    DIGESTS = {
        "csv": "ecd658834f16a78075cbcaf5caf9856889945508145a2bac36ccd6feb7160d1a",
        "json": "1300f6b739ecd1ba84aa66d63d53558d8714a5c5cf34809387fa2ba8d9e88221",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_grid_digest(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "scan", "--epsilons", self.EPSILONS, "--theta-points", "1001", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.DIGESTS[fmt]


class TestTrialsCeiling:
    def test_accepts_trials_at_the_limit(self):
        assert validation.check_trials(10**9) == 10**9

    @pytest.mark.parametrize("trials", [10**9 + 1, 10**12, 10**18])
    def test_rejects_trials_above_the_limit(self, trials):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            validation.check_trials(trials)

    def test_cli_refuses_before_any_block_runs(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a simulation block ran before the trials check")

        monkeypatch.setattr(singlet, "_simulate_block", refuse)
        code, out, err = run_cli(
            capsys, "simulate", "--epsilon", "0.5", "--theta", "1", "--trials", str(10**9 + 1), "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 1000000000" in err


class TestScanGridCeiling:
    def test_accepts_grid_at_the_limit(self):
        validation.check_grid_size(1000, 1000)
        validation.check_grid_size(1, validation.MAX_GRID_POINTS)

    @pytest.mark.parametrize(
        "n_epsilons, n_thetas", [(1000, 1001), (1, 1_000_000_001), (101, 1_000_000_000), (10**12, 10**12)]
    )
    def test_rejects_grid_above_the_limit(self, n_epsilons, n_thetas):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            validation.check_grid_size(n_epsilons, n_thetas)

    def test_cli_refuses_theta_points_before_building_the_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "MAX_GRID_POINTS", 5)

        def refuse(*args, **kwargs):
            raise AssertionError("the theta grid was built before the size check")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        code, out, err = run_cli(capsys, "scan", "--epsilons", "0.5,1.0", "--theta-points", "3")
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 5" in err

    def test_cli_refuses_explicit_theta_list(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "MAX_GRID_POINTS", 5)
        code, out, err = run_cli(capsys, "scan", "--epsilons", "0.5,1.0", "--thetas", "0,1,2")
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 5" in err

    def test_cli_accepts_grid_at_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "MAX_GRID_POINTS", 6)
        code, out, _ = run_cli(capsys, "scan", "--epsilons", "0.5,1.0", "--theta-points", "3")
        assert code == 0
        assert len(parse_csv(out)) == 6


class TestVessels:
    def test_alpha_beta_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "vessels", "--kind", "alpha-beta")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["kind"] == "alpha-beta"
        assert float(row["left_p_yes"]) == 1.0
        assert float(row["right_p_yes"]) == 1.0
        assert (float(row["p1"]), float(row["p2"])) == (0.5, 0.0)
        assert (float(row["p3"]), float(row["p4"])) == (0.5, 0.0)
        assert row["compatible"] == "false"
        assert row["separated"] == "false"
        assert row["classical_left"] == "true"
        assert row["classical_joint"] == "false"

    def test_alpha_alpha_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "vessels", "--kind", "alpha-alpha")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p1"]) == 0.0
        assert (float(row["p2"]), float(row["p3"])) == (0.5, 0.5)
        assert row["compatible"] == "false"


class TestJsonMetaSimulate:
    def test_seed_recorded_in_meta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--epsilon", "1",
            "--theta", "1",
            "--trials", "100",
            "--seed", "31",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["seed"] == 31
        assert doc["meta"]["flags"]["trials"] == 100
        assert doc["meta"]["flags"]["order"] == "left-first"
