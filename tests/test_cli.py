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

    @pytest.mark.parametrize(
        "spelling, values",
        [
            (["--epsilons", "0.5", "--thetas", "-0.0,1"], [("0.5", "-0"), ("0.5", "1")]),
            (["--epsilons", "0.5", "--thetas=-0.0,1"], [("0.5", "-0"), ("0.5", "1")]),
            (["--epsilons", "-0.0,0.5", "--thetas", "1"], [("-0", "1"), ("0.5", "1")]),
        ],
    )
    def test_list_may_start_with_a_minus_sign(self, capsys, spelling, values):
        code, out, _ = run_cli(capsys, "scan", *spelling)
        assert code == 0
        assert [(row["epsilon"], row["theta"]) for row in parse_csv(out)] == values

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_both_spellings_print_the_same(self, capsys, fmt):
        _, spaced, _ = run_cli(capsys, "scan", "--epsilons", "-0.0,0.5", "--thetas", "-0.0,1", "--format", fmt)
        _, joined, _ = run_cli(capsys, "scan", "--epsilons=-0.0,0.5", "--thetas=-0.0,1", "--format", fmt)
        assert spaced == joined != ""

    def test_lone_negative_theta_is_still_refused(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--epsilons", "0.5", "--thetas", "-1")
        assert code == 2
        assert out == ""
        assert "theta must lie in [0, pi]" in err


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
    """Stdout of every analytic subcommand, pinned byte for byte by its sha256.

    ``simulate`` is pinned only at epsilon = 0, where it makes no draws;
    counts at epsilon > 0 follow numpy's random stream, which numpy does
    not promise to keep across its versions (NEP 19).
    """

    EPSILONS = ",".join(repr(round(i * 0.01, 2)) for i in range(101))
    DIGESTS = {
        "csv": "ecd658834f16a78075cbcaf5caf9856889945508145a2bac36ccd6feb7160d1a",
        "json": "1300f6b739ecd1ba84aa66d63d53558d8714a5c5cf34809387fa2ba8d9e88221",
    }
    # command line: (csv sha256, json sha256)
    COMMANDS = {
        "single --epsilon 0.5 --state-r 1 --state-theta 0 --dir-theta 1.3181": (
            "abee70ad0575d3fe9c7332bc492dd3a78f97d702ed0e4579b3fc21962f8f0ad4",
            "46642ffd56ea5185773176c7482dae95df121b2534718669202f55b56509fc53",
        ),
        "single --epsilon 0 --state-r 0": (
            "54742f11c736bb65dbea67986e91a457ef0d0bb3acf9a6f3da9c7b581e707b42",
            "08a606048ba9c8d672476747e0fed34ef9a1b39ad101fdeeeeda231be4c247f6",
        ),
        "single --epsilon 0 --state-r 1 --state-theta 2.0": (
            "b969122f23fc6a14faaa5612795c295937b8468cc0b2e929bd36e4f84e332e3d",
            "0bb61093a1b88b0a1f0ee441d1269754cef028686e481005f9f8997d1db684ca",
        ),
        "single --epsilon 0 --state-r 1 --state-theta 1.0": (
            "54742f11c736bb65dbea67986e91a457ef0d0bb3acf9a6f3da9c7b581e707b42",
            "bbe189e5ba3c004bdbf39334de5bf4288ba4ef3d0ab205600b3ddcf245673ff3",
        ),
        "single --epsilon 0 --state-r 1 --state-theta 1.5707963267948966": (
            "54742f11c736bb65dbea67986e91a457ef0d0bb3acf9a6f3da9c7b581e707b42",
            "91e73c7951584e12e87f7894d554d93884e3cff6c437a6d79530727d69f9e86c",
        ),
        "single --epsilon 5e-324 --state-r 1 --state-theta 1.5707963267948966": (
            "54742f11c736bb65dbea67986e91a457ef0d0bb3acf9a6f3da9c7b581e707b42",
            "332c5ace827c6165cace777ef0da85aa21258b72fd4bdbb91cfd5421cff9de96",
        ),
        "joint --epsilon 1 --theta 1.0471976": (
            "0d4c1f3fe806e3032654e3f7204786aa0c144e21c8fbb05798a951bbdf0696fc",
            "a0e31ae85094047f31cb5dc713091e6fff19944203c7643ebdefa56e7e3babdb",
        ),
        "joint --epsilon 0.7 --theta1 0.3 --phi1 1.0 --theta2 2.0 --phi2 4.0": (
            "de6a3bbac005960aa78b61fcd723fb8a4b6de893230d0c103f0b581f437afc37",
            "f94872de5e379f7e1704422645211fa8245c9ccb7c305d403ec55d44f05ca24a",
        ),
        "joint --epsilon 0 --theta 1.0": (
            "c2cdc32f4754e993292c6cd2eb2d22f11ffcd266cfea3f39a5079c5b89127fc1",
            "cbe32baca5c8b7bda4329b5eeed4398fe712d8b8237b5cd1681c37e037cbb7bc",
        ),
        "joint --epsilon 0 --theta 2.0": (
            "94c25caf68e14d94b1f4db6c160c71b195b7d9bfa0c544788300ee64f3e90008",
            "8ed7455e507903c1438621b833cfec2d498c72954b9f3241b421c0b4b4d01e2b",
        ),
        "joint --epsilon 0 --theta 1.5707963267948966": (
            "c2cdc32f4754e993292c6cd2eb2d22f11ffcd266cfea3f39a5079c5b89127fc1",
            "dbe49c746072672d3164bcfa8f69fb5ea6ea7055a4bb4e2c1b519de58fc5e765",
        ),
        "joint --epsilon 5e-324 --theta 1.5707963267948966": (
            "9bd50ad696130ae34851dd4a0eb19fac0b49f0bf3386947fa9a9261ee9883361",
            "b704e82ab2fa87951384c920e97773d5eceb871ad771d8d36ba6ef978c996d27",
        ),
        "simulate --epsilon 0 --theta 1.0 --trials 1000 --seed 3 --order right-first": (
            "6cd30f842310f6621ee3a8c46944b3a4276b1819dd6f8582ee37518b5364e6d0",
            "2c7fef9d38b3738c2fca9242d35d5b509488acf9ec05b9cdd102f55a8d945094",
        ),
        "simulate --epsilon 0 --theta 2.0 --trials 1000 --seed 3": (
            "24ee93647f62371d3edc5c3bb833ba3c44c3a4fa37501f29e97baf491039ae5a",
            "961daa203ab6e922282a4fcae81eaeb06371060dcc7b168a8a513a02a6f999b2",
        ),
        "classify --epsilon 1 --theta 1.5707963267948966": (
            "06054bcbd62bc38efbd68fe6796e821d0f91b5da35167f8692e524ec5f9b5eb0",
            "7c8bf8d8f9cf52799517a381880bc13adf415a8000738403736954e690612aa7",
        ),
        "classify --epsilon 0.5 --theta 1.3": (
            "44d65056db380d9963a749cff664aee66b961bcf7b3fa43c80a883a4246bc78e",
            "5b88f5e26305bdb4239332494b47471cd67633bff55ed2eedfb9b9462dfd5750",
        ),
        "classify --epsilon 0.5 --theta 1.0471975511965979": (
            "861a33ecf424a48bbcfda097f21e905f18b55274b1bce81f54da5ee3675b8df7",
            "1cd90c29f5335f690b7364ffedd82313791e2427c007acb3a1c95ac8025d0426",
        ),
        "classify --epsilon 0.5 --theta 1.0471975511965979 --tolerance 0.25": (
            "f32d952aac9428c6f5e8fb087bfec43474ea74d2135163812768a3a70bf54eae",
            "78995f8b3e71efc6aea8ab36a1ed7d0a2de6f524e65d3c28db06317346a748ce",
        ),
        "classify --epsilon 0.5 --theta 1.0471975511965979 --tolerance 0.5": (
            "11eb99add75bfd87ce4836a975786e0dff3ddc2ffe56087a89656275583d3007",
            "6187c75eb90479229de4cf1ee8879abd81c939cfa8068b012eeafe6217efce06",
        ),
        "classify --epsilon 0 --theta 2.0": (
            "d159dd5d34f134408e24d9d5d87e969be1692b294e6e841786602c10843adff4",
            "198b0f7d695efebe4799bdd070c52ca764a2a815da6d176aeeaeddcfdb852256",
        ),
        "classify --epsilon 0.7 --theta1 0.3 --phi1 1.0 --theta2 2.0 --phi2 4.0": (
            "c3e94218531aa45efc8cfe45dea4aea824d2ed484cc390d6fadcaa9b3769e057",
            "203299fafde70213c879e70c4bb644ad8853b25fbcbf5ebc2c6f8b52c470beec",
        ),
        "classify --epsilon 0.7": (
            "11b746061051aca6d36a3fff3f3fbada88ae496e48f3bde3453b3458c2fefe9a",
            "5536df0ad7315ad731b108270d2f0f4d07af992f01cb1432a6adcf15382de734",
        ),
        "classify --epsilon 1 --theta 1.5707963 --tolerance 1e-7": (
            "79cb5ba33e30787d6be741745955745f39a1f8a7e202a6af42319dd453294760",
            "806d44b6afb2615f48f39aa3eebaa7ff0b7470ddd3909ecf49f45ffa7556ec5f",
        ),
        "classify --epsilon 5e-324 --theta 1.5707963267948966": (
            "5edd93dde9f0e38d4379e14f2239a796e254cc606d423f9a1e7105fc30f553ee",
            "a418af9e41baeccbb61b4241f909b52ed4401f5b27891855f4489b141427c609",
        ),
        "chsh --epsilon 1": (
            "361566bc07232f7a0ca0541b1de27fc09f706f89c2aa8d8c0ffc105d4a7a2384",
            "39d87ad8d3b98aa264c49a44d17819d111cf333c3e1356484eb13f24618b003f",
        ),
        "chsh --epsilon 0": (
            "1361d0793a5bcd5d0e71dd74c35abfb20b41230ead4267d821350edd43b77157",
            "71656ce03fc26466a1b8b7066c68d6c8f34148ae6606aa1724ca811bbd7e6ba1",
        ),
        "chsh --epsilon 5e-324": (
            "1361d0793a5bcd5d0e71dd74c35abfb20b41230ead4267d821350edd43b77157",
            "968a8c20ccc6248cec4afb4c78eac476cfda7a737befcb3589318a78a5e14e3b",
        ),
        "chsh --epsilon 0.8 --a 0.1 --a-prime 1.0 --b 2.0 --b-prime 3.0": (
            "3c6e62be5db51a4f1b9fb3e863304dd3d752eed64bee4110f4c267d805c951e4",
            "9a90455ec44367fb0490678efeb14b513455229cc86b234edd38ccd82aed5ef7",
        ),
        "scan --epsilons 0.25,0.5,0.75,1.0 --theta-points 181": (
            "d7f409ffa64576069ac9f191c41084667966b00f3cc240e0b26a56536f924a17",
            "7182e1dce17238d2f972262c621f6196a7bd186314db12d7c45404f8d43565f7",
        ),
        "scan --epsilons 1.0,0 --thetas 0,1.5707963,3.14159 --tolerance 1e-7": (
            "1607dc349bdb728e4da5e9c22bbf4a68eff37dc053f612c702f02d65d564114b",
            "7a2de917c82d6b2b16584e09a9b20cd24e3ac8fcfb92eee115e925bc8ad22b07",
        ),
        "scan --epsilons 0,5e-324,1e-300,0.5,1 --thetas=-0.0,0,1.5707963267948966,3.141592653589793": (
            "64b2440870a601d5d9e959823636d92033c41f6e7451cf0d353c5631a3e273d5",
            "ae1a6e5e6e620f3073712e62dde94399a3b3edb96e2d9277218f2f15f89fb883",
        ),
        "scan --epsilons 0.25,0.5,1 --thetas 0,1.0471975511965979,1.318116071652818,1.5707963267948966 --tolerance 0.25": (
            "4230f43bdb1cac646d96b65b5fce9dc8a63ab55f718fa5c8408d942f0a6c15e6",
            "c80101c20bed8a9f11299c067765fe9ca0468d4b2aa671a3dbd086dfc878c36e",
        ),
        "scan --epsilons 0.25,0.5,1 --thetas 0,1.0471975511965979,1.5707963267948966 --tolerance 0.5": (
            "b565f7f22eb1443c3b700131a2a0bfa79f5462aafe662ab53bb3725efa38cca4",
            "ba0eece10c044b6f82558a4504e14e401fa81c658358a344f66207066d199f7b",
        ),
        "vessels --kind alpha-beta": (
            "f0f7d26483fd3659fa9468e9254b271da5882b78d311a2da4f3ba7614c2c04b5",
            "d170a956b612156ddf2f2b7baea6367383ef4c4c5fe4ff145d8850a947b4710b",
        ),
        "vessels --kind alpha-alpha": (
            "8ebbdd6c4dd8b4349ccfe62382d6a8fc2c43bea2a2992d56ed1f8583a58ff5af",
            "bc76046ec3a480af21489a4d1e57dbf021236598e42a428fcc0bafd4c62df385",
        ),
        "vessels --kind alpha-alpha --tolerance 0.5": (
            "279ba6a76bface59d1779276a47cc4684d13200e0bd89b2560353ffcb32f6303",
            "54445d97a3c37815d61731e364920dfb0df7db1e1dc68343b5f725da4e577d55",
        ),
    }
    ERRORS = [
        "scan --epsilons 0.5 --thetas 4.0",
        "classify --epsilon 1.5",
        "scan --epsilons 0.5 --theta-points 0",
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_grid_digest(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "scan", "--epsilons", self.EPSILONS, "--theta-points", "1001", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.DIGESTS[fmt]

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_subcommand_digest(self, capsys, command, fmt):
        code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.COMMANDS[command][fmt == "json"]

    @pytest.mark.parametrize("command", ERRORS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_prints_nothing(self, capsys, command, fmt):
        code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
        assert code == 2
        assert out == ""


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
