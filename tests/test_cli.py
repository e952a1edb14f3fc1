import ast
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import uqdim
from uqdim import cli
from uqdim.series import PowerSeries, SinhProduct


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


class TestNegativeValues:
    @pytest.mark.parametrize("argv, flag, value", [
        (["qdim", "adjoint", "e8"], "--x", "-1e-3"),
        (["dim", "--beta", "1", "--gamma", "1"], "--alpha", "-1/3"),
        (["instanton", "e8", "--x", "0.1", "--nmax", "1"], "--sigma", "-2e-1"),
    ], ids=["qdim-x", "dim-alpha", "instanton-sigma"])
    def test_spaced_value_matches_equals_form(self, capsys, argv, flag, value):
        code, spaced = run_json(capsys, *argv, flag, value)
        assert code == 0
        assert run_json(capsys, *argv, f"{flag}={value}") == (0, spaced)

    @pytest.mark.parametrize("text", ["-inf", "-nan"])
    def test_non_numbers_stay_options(self, capsys, text):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--x", text)
        assert code == 2
        assert doc["results"]["error"] == "argument --x: expected one argument"


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


class TestExtraPositional:
    """A positional left over after a command that takes no algebra."""

    def test_json_error_document(self, capsys):
        code = cli.main(["verify", "s2", "extra", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {
            "command": "verify", "inputs": {}, "status": "error",
            "results": {"error": "unrecognized arguments: extra"}}
        assert captured.err == ""

    def test_text_goes_to_stderr(self, capsys):
        code = cli.main(["verify", "s2", "extra"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: uqdim ")
        assert captured.err.endswith("uqdim: error: unrecognized arguments: extra\n")


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
            "  1  70.04872414570713  70.04872414570713",
            "  2  1966.2718011936308  2036.320525339338",
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
    def test_series_json_bytes(self, capsys, argv):
        code, out = run(capsys, "qdim", *argv, "--json")
        assert code == 0
        assert out == self.SERIES_PINS[argv] + "\n"

    def test_fraction_x(self, capsys):
        code, fraction = run(capsys, "qdim", "adjoint", "e8", "--x", "1/3", "--json")
        assert code == 0
        assert json.loads(fraction)["results"]["value"] == 66663.84930614666
        _, decimal = run(capsys, "qdim", "adjoint", "e8", "--x", "0.3333333333333333",
                         "--json")
        assert fraction == decimal

    def test_help_names_fraction_x(self, capsys):
        code, out = run(capsys, "qdim", "--help")
        assert code == 0
        assert "float or fraction p/q" in out
        assert "=-1/3" not in out

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

    def test_numeric_mode_accepts_order_zero(self, capsys):
        code, doc = run_json(capsys, "verify", "s2", "--mode", "numeric",
                             "--order", "0", "--trials", "3")
        assert code == 0
        assert doc["inputs"]["order"] == 0
        assert doc["results"]["points_checked"] == 3

    def test_series_mode_rejects_order_zero(self, capsys):
        code, doc = run_json(capsys, "verify", "s2", "--order", "0", "--trials", "3")
        assert code == 2
        assert doc["results"]["error"] == "order and trials must be positive"

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


def refuse(*_args, **_kwargs):
    raise AssertionError("a command path reached the series expansion")


class TestNoPowerSeries:
    """No command builds a PowerSeries; the cross-check suites compare
    products as functions and expand nothing."""

    @pytest.fixture
    def no_expansion(self, monkeypatch):
        monkeypatch.setattr(PowerSeries, "__init__", refuse)
        monkeypatch.setattr(SinhProduct, "series", refuse)
        monkeypatch.setattr(SinhProduct, "even_coefficients", refuse)
        monkeypatch.setattr(SinhProduct, "hurwitz", refuse)

    @pytest.mark.parametrize("suite", ["specialization", "g2zero"])
    def test_suites_expand_nothing(self, capsys, no_expansion, suite):
        code, out = run(capsys, "verify", suite, "--json")
        assert code == 0
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
        assert out.encode() == (golden / f"verify-{suite}.json").read_bytes()

    @pytest.mark.parametrize("suite", ["specialization", "g2zero"])
    def test_suites_ignore_order(self, capsys, no_expansion, suite):
        _, low = run_json(capsys, "verify", suite, "--order", "0")
        _, high = run_json(capsys, "verify", suite, "--order", "512")
        assert low["inputs"]["order"] == 0 and high["inputs"]["order"] == 512
        assert low["results"]["checks"] == high["results"]["checks"]
        assert all(c["ok"] for c in low["results"]["checks"])

    @pytest.mark.parametrize("argv", [
        "dim e8",
        "table s3-sl6", "table s3-f4", "table s3-so12",
        "qdim cartan e8 --n 3 --series 8",
        "qdim x2 so12 --x 0.3",
        "verify s2 --trials 3",
        "verify s3 --mode numeric --trials 20",
        "instanton e7 --eps1 0.1 --eps2 0.2 --sigma -20 --x 0.1 --nmax 10",
    ])
    def test_commands_build_no_power_series(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(PowerSeries, "__init__", refuse)
        code, _ = run(capsys, *argv.split())
        assert code == 0


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
    # SHA-256 of the stdout of `uqdim instanton ARGS --json`, captured when
    # the terms began to read value_at.  The first is the README's example.
    DOCUMENT_PINS = {
        "e7 --eps1 0.1 --eps2 0.2 --sigma -20 --x 0.1 --nmax 10":
            "536a4f2d8502f64d63205a7b3c8dcb36c0fb8040abf4e6e6b5404e0a38d5178a",
        "sl6 --x 0.5 --eps1 1/3":
            "d7dc2a3e823f43b6d7b2f42969deeb320a43968673d92dbb897b47325f97009f",
        "sl6 --x 0 --nmax 2":
            "fbde521c20107f80cd7205f14379db01ba16fb9b37fe0a4dc3ae8100cf47a6b7",
        "--alpha=-4 --beta 1 --gamma 1 --x 0.5 --nmax 2":
            "904bfb1d5e5303fad6abeab6bfe546b588b83ef361090da5fae2bd0d7bca9b00",
        "g2 --x 2.5":
            "11d115d04d9228bfcf39fe536c323a8e553fceeed98635221f889e95984b4997",
        "f4 --x -1.5 --sigma -3 --eps1 1":
            "6142827a13a6866f7204de961f8db5c6a44cd432e9bb822e195639d002b3e4ef",
    }

    @pytest.mark.parametrize("args", sorted(DOCUMENT_PINS))
    def test_document_bytes(self, capsys, args):
        code, out = run(capsys, "instanton", *args.split(), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DOCUMENT_PINS[args]

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

    def test_constant_cartan_power(self, capsys):
        # The first Cartan power at (-4, 1, 1) is zero, the second the
        # constant -1.
        code, doc = run_json(capsys, "instanton", "--alpha=-4", "--beta", "1", "--gamma", "1",
                             "--x", "0.5", "--nmax", "2")
        assert code == 0
        assert doc["results"]["rows"] == [[1, 0.0, 0.0], [2, -1.0, -1.0]]

    def test_x_zero_rows(self, capsys):
        # x = 0 is no pole: the rows are the Cartan powers' dimensions.
        code, doc = run_json(capsys, "instanton", "sl6", "--x", "0", "--nmax", "2")
        assert code == 0
        assert doc["results"]["rows"] == [[1, 35.0, 35.0], [2, 405.0, 440.0]]

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
        assert out.count("float or fraction p/q") == 4
        assert "=-1/3" not in out


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


class TestFloatRange:
    @pytest.mark.parametrize("x", ["100", "25"])
    def test_overflow_exit_code(self, capsys, x):
        # e8's adjoint at x = 25 is about e^725, past the float range.
        code = cli.main(["qdim", "adjoint", "e8", "--x", x, "--json"])
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert code == cli.EXIT_FLOAT == 5
        assert doc["status"] == "error"
        assert doc["results"]["error"] == f"qdim_adjoint at x={x}.0 is not a finite float"

    def test_overflowing_sinh_with_finite_value(self, capsys):
        # sl2's adjoint is sinh(3x/2) / sinh(x/2): math.sinh(750) overflows,
        # but the value at x = 500 is about e^500.
        code, doc = run_json(capsys, "qdim", "adjoint", "sl2", "--x", "500")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(math.exp(500), rel=1e-15)

    def test_underflowing_sinh_gives_dimension(self, capsys):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--x", "5e-324")
        assert code == 0
        assert doc["results"]["value"] == 248.0

    @pytest.mark.parametrize("x", ["2.5e-323", "1e-310", "2.3e-308"])
    def test_subnormal_sinh_argument_gives_dimension(self, capsys, x):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--x", x)
        assert code == 0
        assert doc["results"]["value"] == 248.0

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_x_is_usage_error(self, capsys, x):
        code, doc = run_json(capsys, "qdim", "adjoint", "e8", "--x", x)
        assert code == 2
        assert doc["results"]["error"] == f"--x must be finite, got {x}"

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

    def test_series_order_ignores_environment(self, capsys, monkeypatch):
        # The order comes from --series/--order or DEFAULT_ORDER only;
        # QDIM_SERIES_ORDER changes nothing.
        monkeypatch.delenv("QDIM_SERIES_ORDER", raising=False)
        _, unset = run(capsys, "qdim", "adjoint", "e6", "--json")
        assert json.loads(unset)["inputs"]["series_order"] == 20
        for value in ("6", "abc"):
            monkeypatch.setenv("QDIM_SERIES_ORDER", value)
            assert run(capsys, "qdim", "adjoint", "e6", "--json") == (0, unset)
            code, _ = run_json(capsys, "verify", "s2", "--mode", "numeric",
                               "--trials", "3")
            assert code == 0

    def test_package_reads_no_environment(self):
        # Every document is a function of the command line alone.
        readers = re.compile(r"\b(environ|getenv)\b|^\s*(import|from) os\b", re.M)
        sources = sorted(Path(uqdim.__file__).parent.glob("*.py"))
        assert sources
        assert [path.name for path in sources if readers.search(path.read_text())] == []

    def test_cli_start_up_imports_no_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, and a frozen
        # dataclass execs its generated methods: together about 7 ms of every
        # uqdim process.  -S keeps a site .pth file from importing it first.
        src = str(Path(uqdim.__file__).resolve().parents[1])
        probe = (f"import sys; sys.path.insert(0, {src!r}); import uqdim.cli; "
                 "print('dataclasses' in sys.modules)")
        done = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_cli_start_up_generates_no_evaluator(self):
        # A form program compiles its evaluator on first use, so importing
        # the CLI compiles none.  The audit hook sees every compile() call;
        # the products built after the import show that it sees them, and
        # that each program compiles once and planning its forms compiles
        # nothing.
        src = str(Path(uqdim.__file__).resolve().parents[1])
        probe = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "seen = []",
            "sys.addaudithook(lambda event, args: event == 'compile' and seen.append(args[1]))",
            "import uqdim.cli",
            "print([name for name in seen if str(name).startswith('<form program')])",
            "seen.clear()",
            "from uqdim import universal, vogel_params",
            "v = vogel_params('e8')",
            "universal.adjoint_product(v)",
            "universal.x2_product(v)",
            "universal.y2_product(v, 'beta')",
            "universal.z_product(v, 1, 1)",
            "universal.x2_product(vogel_params('f4'))",
            "print(seen)",
        ])
        done = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[]",
            "['<form program qdim_adjoint>', '<form program qdim_x2>', "
            "'<form program qdim_y2(beta)>', '<form program qdim_z(k=1, l=1)>']",
        ]

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


def readme_block(heading, language):
    """The body of the README's first fenced block under ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"## {heading}\n\n```{language}\n(.*?)```", readme, re.S).group(1)


def readme_commands():
    """The ``uqdim ...`` lines of the README's "Command line" block, as argv
    lists without their trailing comments."""
    return [shlex.split(line, comments=True)[1:]
            for line in readme_block("Command line", "sh").splitlines()
            if line.startswith("uqdim ")]


def readme_library():
    """The top-level statements of the README's "Library" block, each with
    the text of the comment that ends its last line, or None."""
    block = readme_block("Library", "python")
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    return [(node, comments.get(node.end_lineno)) for node in ast.parse(block).body]


class TestReadme:
    def test_block_is_found(self):
        assert len(readme_commands()) == 12

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_line_block_runs(self, capsys, argv):
        code, _ = run(capsys, *argv)
        assert code == 0

    def test_library_block_runs(self):
        # A comment that starts with True promises the value True; one that
        # starts with PowerSeries( promises the repr, up to its "...".
        namespace, promised = {}, 0
        for node, comment in readme_library():
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            if comment and comment.startswith("True"):
                assert value is True, ast.unparse(node)
                promised += 1
            elif comment and comment.startswith("PowerSeries("):
                head, dots, _ = comment.partition("...")
                got = repr(value)
                assert got.startswith(head) if dots else got == comment, (got, comment)
                promised += 1
        assert promised == 3
