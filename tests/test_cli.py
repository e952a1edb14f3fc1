import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import uqdim
from uqdim import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDim:
    def test_e8(self, capsys):
        code, out = run(capsys, "dim", "e8")
        assert code == 0
        assert "dim: 248" in out
        assert "casimir_adjoint: 60" in out

    def test_two_token_name(self, capsys):
        code, doc = run_json(capsys, "dim", "sl", "6")
        assert code == 0
        assert doc["results"]["dim"] == "35"
        assert doc["inputs"]["algebra"] == "sl6"

    def test_explicit_parameters(self, capsys):
        code, doc = run_json(capsys, "dim", "--alpha", "-2", "--beta", "2",
                             "--gamma", "6")
        assert code == 0
        assert doc["results"]["dim"] == "35"

    def test_rational_parameters(self, capsys):
        code, doc = run_json(capsys, "dim", "--alpha=-2", "--beta", "10/3",
                             "--gamma", "8/3")
        assert code == 0
        assert doc["results"]["dim"] == "14"

    def test_pole_exit_code(self, capsys):
        code, doc = run_json(capsys, "dim", "--alpha", "0", "--beta", "1",
                             "--gamma", "1")
        assert code == 3
        assert doc["status"] == "error"

    def test_unknown_algebra_exit_code(self, capsys):
        code, _ = run(capsys, "dim", "su5")
        assert code == 2

    def test_missing_parameters_exit_code(self, capsys):
        code, _ = run(capsys, "dim", "--alpha", "1", "--beta", "2")
        assert code == 2


class TestRationalFlags:
    @pytest.mark.parametrize("argv", [
        ["dim", "--alpha", "1/0", "--beta", "1", "--gamma", "1"],
        ["qdim", "adjoint", "--alpha", "1", "--beta", "1", "--gamma", "1/0"],
    ], ids=["dim", "qdim"])
    def test_zero_denominator_json(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        flag = argv[argv.index("1/0") - 1]
        assert code == 2
        assert doc == {"command": argv[0], "inputs": {}, "status": "error",
                       "results": {"error": f"argument {flag}: zero denominator in '1/0'"}}

    @pytest.mark.parametrize("argv", [
        ["dim", "--alpha", "1/0", "--beta", "1", "--gamma", "1"],
        ["qdim", "adjoint", "--alpha", "1", "--beta", "1/0", "--gamma", "1"],
    ], ids=["dim", "qdim"])
    def test_zero_denominator_text(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        flag = argv[argv.index("1/0") - 1]
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: uqdim {argv[0]}")
        assert captured.err.endswith(
            f"uqdim {argv[0]}: error: argument {flag}: zero denominator in '1/0'\n")

    @pytest.mark.parametrize("text", ["nan", "1/2/3", "x"])
    def test_unreadable_value_keeps_text(self, capsys, text):
        code, doc = run_json(capsys, "dim", "--alpha", text, "--beta", "1", "--gamma", "1")
        assert code == 2
        assert doc["results"]["error"] == f"argument --alpha: invalid Fraction value: {text!r}"


class TestUsageErrors:
    """Usage errors raised by the handlers, pinned to their exact output."""

    @pytest.mark.parametrize("argv, message", [
        (["dim", "e8", "--alpha", "1"],
         "give an algebra name or --alpha/--beta/--gamma, not both"),
        (["qdim", "cartan", "e8", "--series", "0"],
         "qdim cartan requires --n with a positive integer"),
        (["qdim", "y2", "e8", "--series", "0"], "qdim y2 requires --slot alpha|beta|gamma"),
        (["qdim", "z", "sl6", "--k", "1", "--series", "0"],
         "qdim z requires non-negative --k and --l"),
        (["qdim", "z", "sl6", "--series", "0"], "qdim z requires non-negative --k and --l"),
    ])
    def test_exact_output(self, capsys, argv, message):
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc == {"command": argv[0], "inputs": {}, "results": {"error": message},
                       "status": "error"}
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == f"command: {argv[0]}\nerror: {message}\nstatus: error\n"


class TestTextLists:
    def test_list_of_dicts(self, capsys):
        code, out = run(capsys, "verify", "g2zero")
        assert code == 0
        zero = [f"  check=z(k={k}, l={p}) at g2 is the zero series  ok=True"
                for k in range(4) for p in (2, 3)]
        closed = [f"  check=z(k={k}, l=1) at g2 equals the Weyl-line closed form  ok=True"
                  for k in range(4)]
        assert out.splitlines() == [
            "command: verify", "  identity: g2zero", "  order: 20", "  seed: 0",
            "  mode: series", "checks:", *zero, *closed, "status: pass",
        ]

    def test_list_of_lists(self, capsys):
        code, out = run(capsys, "instanton", "sl6", "--x", "0.5", "--nmax", "2")
        assert code == 0
        assert out.splitlines() == [
            "command: instanton", "  algebra: sl6", "  alpha: -2", "  beta: 2",
            "  gamma: 6", "  eps1: 0.0", "  eps2: 0.0", "  sigma: 0.0", "  x: 0.5",
            "  nmax: 2", "rows:",
            "  1  70.04872414570714  70.04872414570714",
            "  2  1966.2718011936313  2036.3205253393385",
            "converged: False", "converged_at: None", "status: pass",
        ]


class TestQdim:
    def test_z_constant(self, capsys):
        code, doc = run_json(capsys, "qdim", "z", "--k", "1", "--l", "1",
                             "sl6", "--series", "0")
        assert code == 0
        assert doc["results"]["coefficients"] == [[0, "3675"]]

    def test_cartan_constant(self, capsys):
        code, doc = run_json(capsys, "qdim", "cartan", "--n", "3", "f4",
                             "--series", "0")
        assert code == 0
        assert doc["results"]["coefficients"] == [[0, "12376"]]

    def test_numeric_adjoint(self, capsys):
        code, doc = run_json(capsys, "qdim", "adjoint", "--alpha", "-2",
                             "--beta", "2", "--gamma", "2", "--x", "0.3")
        assert code == 0
        expected = math.sinh(0.45) / math.sinh(0.15)
        assert abs(doc["results"]["value"] - expected) <= 1e-12

    def test_series_coefficients_round_trip(self, capsys):
        from fractions import Fraction

        code, doc = run_json(capsys, "qdim", "y2", "--slot", "beta", "sl6",
                             "--series", "4")
        assert code == 0
        coeffs = {m: Fraction(c) for m, c in doc["results"]["coefficients"]}
        assert coeffs[0] == 189
        assert coeffs[4] == Fraction(8127, 4)

    def test_x_and_series_exclusive(self, capsys):
        code, _ = run(capsys, "qdim", "x2", "e6", "--x", "0.1", "--series", "2")
        assert code == 2

    def test_parameter_pole(self, capsys):
        code, _ = run(capsys, "qdim", "adjoint", "--alpha", "0", "--beta", "2",
                      "--gamma", "3", "--series", "2")
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ["--series", "100000"],
        ["--series", "-2"],
        ["--x", "0.5", "--series", "2"],
        ["--x=nan"],
    ])
    def test_flags_checked_before_building(self, capsys, flags):
        # alpha = 0 is a parameter pole (exit 3) once the product is built;
        # a bad flag is reported first, as a usage error.
        code, doc = run_json(capsys, "qdim", "adjoint", "--alpha=0", "--beta=1",
                             "--gamma=2", *flags)
        assert code == 2
        assert "vanishes" not in doc["results"]["error"]

    # `qdim ... --json` stdout captured before the series came from the
    # integer even form, without the trailing newline.
    SERIES_PINS = {
        ("adjoint", "e8", "--series", "20"): (
            '{"command": "qdim", "inputs": {"algebra": "e8", "alpha": "-2", "beta": "12", '
            '"gamma": "20", "kind": "adjoint", "series_order": 20}, "results": '
            '{"coefficients": [[0, "248"], [2, "18600"], [4, "576600"], [6, "29791000/3"], '
            '[8, "2269755055/21"], [10, "33768987425/42"], [12, "215546927650183/49896"], '
            '[14, "158729681259632885/9081072"], [16, "7996570975720991933/145297152"], '
            '[18, "18467691312633468312941/133382785536"], '
            '[20, "72071782775223400431322847/253427292518400"]]}, "status": "pass"}'),
        ("x2", "e6", "--series", "8"): (
            '{"command": "qdim", "inputs": {"algebra": "e6", "alpha": "-2", "beta": "6", '
            '"gamma": "8", "kind": "x2", "series_order": 8}, "results": {"coefficients": '
            '[[0, "2925"], [2, "70200"], [4, "752895"], [6, "9643725/2"], '
            '[8, "2331693117/112"]]}, "status": "pass"}'),
        ("z", "--k", "1", "--l", "2", "g2"): (
            '{"command": "qdim", "inputs": {"algebra": "g2", "alpha": "-2", "beta": "10/3", '
            '"gamma": "8/3", "k": 1, "kind": "z", "l": 2, "series_order": 20}, "results": '
            '{"coefficients": [[0, "0"], [2, "0"], [4, "0"], [6, "0"], [8, "0"], [10, "0"], '
            '[12, "0"], [14, "0"], [16, "0"], [18, "0"], [20, "0"]]}, "status": "pass"}'),
    }

    @pytest.mark.parametrize("argv", sorted(SERIES_PINS))
    def test_series_json_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("QDIM_SERIES_ORDER", raising=False)
        code, out = run(capsys, "qdim", *argv, "--json")
        assert code == 0
        assert out == self.SERIES_PINS[argv] + "\n"

    def test_input_order_in_text_mode(self, capsys):
        code, out = run(capsys, "qdim", "cartan", "--n", "2", "e8", "--x", "0.5")
        assert code == 0
        keys = [line.split(":")[0].strip() for line in out.splitlines()[1:8]]
        assert keys == ["algebra", "alpha", "beta", "gamma", "kind", "n", "x"]


class TestVerify:
    def test_s2_small_run(self, capsys):
        code, doc = run_json(capsys, "verify", "s2", "--order", "10",
                             "--trials", "5", "--seed", "3")
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["results"]["exact_zero"] is True
        assert doc["results"]["points_checked"] == 5
        assert doc["results"]["order_checked"] == 10

    def test_numeric_mode(self, capsys):
        code, doc = run_json(capsys, "verify", "a2", "--mode", "numeric",
                             "--trials", "50", "--seed", "1")
        assert code == 0
        assert doc["results"]["max_abs_residual"] <= 1e-9

    def test_numeric_mode_checks_no_order(self, capsys):
        code, doc = run_json(capsys, "verify", "s2", "--mode", "numeric",
                             "--order", "512", "--trials", "20", "--seed", "1")
        assert code == 0
        assert doc["inputs"]["order"] == 512
        assert doc["results"]["order_checked"] is None
        assert doc["results"]["exact_zero"] is None

    def test_g2zero(self, capsys):
        code, doc = run_json(capsys, "verify", "g2zero", "--order", "12")
        assert code == 0
        assert all(c["ok"] for c in doc["results"]["checks"])

    def test_specialization(self, capsys):
        code, doc = run_json(capsys, "verify", "specialization", "--order", "8")
        assert code == 0
        assert len(doc["results"]["checks"]) == 30

    def test_seed_echoed(self, capsys):
        _, doc = run_json(capsys, "verify", "s2", "--order", "6",
                          "--trials", "2", "--seed", "17")
        assert doc["inputs"]["seed"] == 17


class TestTable:
    @pytest.mark.parametrize("which,total", [
        ("s3-sl6", "7770"), ("s3-f4", "24804"), ("s3-so12", "50116"),
    ])
    def test_tables_pass(self, capsys, which, total):
        code, doc = run_json(capsys, "table", which)
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["results"]["universal_sum"] == total
        assert doc["results"]["sym_cube_dim"] == total

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "table", "s3-f4", "--json")
        _, second = run(capsys, "table", "s3-f4", "--json")
        assert first == second


class TestInstanton:
    def test_single_term(self, capsys):
        code, doc = run_json(capsys, "instanton", "e7", "--eps1", "0.1",
                             "--eps2", "0.2", "--sigma", "-1", "--x", "0.5",
                             "--nmax", "1")
        assert code == 0
        rows = doc["results"]["rows"]
        assert len(rows) == 1
        from uqdim.universal import adjoint_product, vogel_params
        expected = (math.exp(-1 * 0.3)
                    * adjoint_product(vogel_params("e7")).value_at(0.5))
        assert rows[0][1] == pytest.approx(expected, rel=1e-10)

    def test_row_count_and_order(self, capsys):
        code, doc = run_json(capsys, "instanton", "sl6", "--eps1", "0.1",
                             "--eps2", "0.2", "--sigma", "-1", "--x", "0.4",
                             "--nmax", "6")
        assert code == 0
        assert [row[0] for row in doc["results"]["rows"]] == [1, 2, 3, 4, 5, 6]

    def test_x_pole_exit_code(self, capsys):
        code, _ = run(capsys, "instanton", "sl6", "--x", "0")
        assert code == 4

    def test_fraction_flag(self, capsys):
        code, doc = run_json(capsys, "instanton", "e8", "--x", "1", "--eps1", "1/3")
        assert code == 0
        assert doc["inputs"]["eps1"] == 1 / 3
        assert [row[0] for row in doc["results"]["rows"]] == list(range(1, 11))

    def test_fraction_flags_match_floats(self, capsys):
        _, fractions = run(capsys, "instanton", "sl6", "--eps1", "1/10", "--eps2=-1/5",
                           "--sigma=-3/2", "--x", "2/5", "--nmax", "3", "--json")
        _, floats = run(capsys, "instanton", "sl6", "--eps1", "0.1", "--eps2=-0.2",
                        "--sigma=-1.5", "--x", "0.4", "--nmax", "3", "--json")
        assert fractions == floats

    @pytest.mark.parametrize("text", [
        "0.1", "-1", "1e-3", "2.5E+2", " 3 ", "1_000", "inf", "-inf", "nan", "7",
    ])
    def test_float_inputs_unchanged(self, text):
        parsed = cli._real(text)
        assert parsed == float(text) or (math.isnan(parsed) and math.isnan(float(text)))

    @pytest.mark.parametrize("flag", ["--eps1", "--eps2", "--sigma", "--x"])
    def test_zero_denominator_is_usage_error(self, capsys, flag):
        argv = ["instanton", "e8", "--x", "1", flag, "1/0", "--json"]
        code = cli.main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["results"]["error"] == f"argument {flag}: zero denominator in '1/0'"

    @pytest.mark.parametrize("text, message", [
        ("one", "expected a float or a fraction p/q"),
        ("1" * 400 + "/3", "is too large for a float"),
    ])
    def test_unreadable_value_is_usage_error(self, capsys, text, message):
        code, doc = run_json(capsys, "instanton", "e8", "--x", "1", "--eps1", text)
        assert code == 2
        assert message in doc["results"]["error"]

    def test_help_names_fraction_flags(self, capsys):
        code, out = run(capsys, "instanton", "--help")
        assert code == 0
        for flag in ("eps1", "eps2", "sigma", "x"):
            assert f"--{flag}=-1/3" in out


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


class TestFloatRange:
    @pytest.mark.parametrize("x", ["100", "25"])
    def test_overflow_exit_code(self, capsys, x):
        code = cli.main(["qdim", "adjoint", "e8", "--x", x, "--json"])
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert code == cli.EXIT_FLOAT == 5
        assert doc["status"] == "error"
        assert "not a finite float" in doc["results"]["error"]

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_x_is_usage_error(self, capsys, x):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--x", x)
        assert code == 2
        assert "finite" in doc["results"]["error"]

    def test_instanton_overflow_exit_code(self, capsys):
        code = cli.main(["instanton", "e8", "--x", "100", "--nmax", "1", "--json"])
        json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert code == 5


class TestParseErrors:
    @pytest.mark.parametrize("argv", [
        ["qdim", "adjoint", "e8", "--x", "-inf"],
        ["qdim", "adjoint", "e8", "--x", "1", "--bogus"],
        ["verify", "s9"],
    ])
    def test_json_error_document(self, capsys, argv):
        code = cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["status"] == "error"
        assert doc["command"] == argv[0]
        assert captured.err == ""

    def test_text_mode_keeps_argparse_message(self, capsys):
        code = cli.main(["verify", "s9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: uqdim verify")
        assert "uqdim verify: error: argument identity: invalid choice" in captured.err


class TestOutputContract:
    def test_document_shape(self, capsys):
        _, doc = run_json(capsys, "dim", "g2")
        assert set(doc) == {"command", "inputs", "results", "status"}

    def test_series_order_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QDIM_SERIES_ORDER", "6")
        _, doc = run_json(capsys, "qdim", "adjoint", "e6")
        assert doc["inputs"]["series_order"] == 6
        assert len(doc["results"]["coefficients"]) == 4

    def test_exact_values_never_floats(self, capsys):
        _, doc = run_json(capsys, "table", "s3-sl6")
        for row in doc["results"]["rows"]:
            assert isinstance(row["universal"], str)


class TestSeriesOrderCap:
    def test_qdim_series_above_cap(self, capsys):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--series",
                             str(cli.MAX_SERIES_ORDER + 1))
        assert code == 2
        assert doc["status"] == "error"
        assert "MAX_SERIES_ORDER = 512" in doc["results"]["error"]

    def test_qdim_negative_series(self, capsys):
        code, _ = run_json(capsys, "qdim", "adjoint", "e8", "--series", "-2")
        assert code == 2

    def test_verify_order_above_cap(self, capsys):
        code, doc = run_json(capsys, "verify", "s3", "--order", "513")
        assert code == 2
        assert "512" in doc["results"]["error"]

    def test_verify_order_at_cap(self, capsys):
        code, doc = run_json(capsys, "verify", "s2", "--mode", "numeric",
                             "--trials", "3", "--order", "512")
        assert code == 0
        assert doc["inputs"]["order"] == 512

    def test_env_order_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QDIM_SERIES_ORDER", "100000")
        code, doc = run_json(capsys, "qdim", "adjoint", "e6")
        assert code == 2
        assert "QDIM_SERIES_ORDER" in doc["results"]["error"]
        assert "512" in doc["results"]["error"]

    @pytest.mark.parametrize("command", [["qdim", "adjoint", "e6"], ["verify", "s2"]])
    def test_env_order_not_an_integer(self, capsys, monkeypatch, command):
        monkeypatch.setenv("QDIM_SERIES_ORDER", "abc")
        code, doc = run_json(capsys, *command)
        assert code == 2
        assert doc["results"]["error"] == "QDIM_SERIES_ORDER must be an integer, got 'abc'"

    def test_env_order_unused_with_x(self, capsys, monkeypatch):
        monkeypatch.setenv("QDIM_SERIES_ORDER", "abc")
        code, doc = run_json(capsys, "qdim", "adjoint", "e6", "--x", "0.5")
        assert code == 0
        assert "series_order" not in doc["inputs"]

    @pytest.mark.parametrize("command", ["qdim", "verify"])
    def test_cap_in_help(self, capsys, command):
        code, out = run(capsys, command, "--help")
        assert code == 0
        assert "0..512" in out


class TestModuleEntryPoint:
    def test_python_m_uqdim_matches_golden(self):
        # The package runs as a module from an uninstalled checkout; its
        # stdout is the crosscheck golden document, byte for byte.
        src = str(Path(uqdim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "uqdim", "dim", "e8", "--json"],
                              capture_output=True, env=env, timeout=60)
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "dim-e8.json"
        assert done.returncode == 0, done.stderr
        assert done.stdout == golden.read_bytes()


def readme_commands():
    """The ``uqdim ...`` lines of the README's "Command line" block, as argv
    lists without their trailing comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("uqdim ")]


class TestReadme:
    def test_block_is_found(self):
        assert len(readme_commands()) == 12

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_line_block_runs(self, capsys, argv):
        code, _ = run(capsys, *argv)
        assert code == 0
