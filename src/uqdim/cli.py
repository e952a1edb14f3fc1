"""Command-line surface: dimensions, quantum-dimension series, identity
verification runs, symmetric-cube decomposition tables and one-instanton sums.

Every command is deterministic given its full flag set (including --seed) and
--json emits one canonical machine-readable document per invocation.  Exact
values are printed as rational strings "p/q", never as floats.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 parameter-space pole, 5 float evaluation out of range (a value or an
instanton term that overflows).  4 is no longer produced.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .crosscheck import SUITES, TABLES, build_table_report
from .errors import (
    FloatEvaluationError,
    InvalidRank,
    LengthMismatch,
    PoleAtParameters,
    UnknownAlgebra,
)
from .identities import IDENTITIES, NUMERIC, SERIES, verify_identity
from .instanton import InstantonParams, one_instanton_sum
from .series import DEFAULT_ORDER, MAX_SERIES_ORDER
from .universal import (
    SLOTS,
    VogelParams,
    adjoint_product,
    cartan_power_product,
    casimir_adjoint,
    casimir_y2,
    dim_adjoint,
    parse_algebra,
    vogel_params,
    x2_product,
    y2_product,
    z_product,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARAM_POLE = 3
EXIT_FLOAT = 5


class _ParseError(Exception):
    """An argparse error as (parser, message), raised in place of argparse's
    exit so that main can report it as a --json error document."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 and -1/3 are values, not options (argparse's own pattern
        # reads only the likes of -5 and -0.5 as negative numbers)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d./eE+-]*$")

    def error(self, message):
        raise _ParseError(self, message)


def _series_order(given: int | None) -> int:
    """The series order given on the command line, else DEFAULT_ORDER,
    checked against 0..MAX_SERIES_ORDER."""
    order = DEFAULT_ORDER if given is None else given
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError("series order must be between 0 and MAX_SERIES_ORDER = "
                         f"{MAX_SERIES_ORDER}, got {order}")
    return order


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _resolve_params(args) -> tuple[VogelParams, dict]:
    tokens = getattr(args, "algebra", [])
    explicit = (args.alpha, args.beta, args.gamma)
    if tokens and any(x is not None for x in explicit):
        raise ValueError("give an algebra name or --alpha/--beta/--gamma, not both")
    if tokens:
        aid = parse_algebra(" ".join(tokens))
        v = vogel_params(aid)
        inputs = {"algebra": aid.label}
    elif all(x is not None for x in explicit):
        v = VogelParams(*explicit)
        inputs = {"algebra": None}
    else:
        raise ValueError("an algebra name or all of --alpha/--beta/--gamma is required")
    inputs.update(alpha=str(v.alpha), beta=str(v.beta), gamma=str(v.gamma))
    return v, inputs


def _qdim_product(args, v: VogelParams):
    kind = args.kind
    if kind == "adjoint":
        return adjoint_product(v)
    if kind == "cartan":
        if args.n is None or args.n < 1:
            raise ValueError("qdim cartan requires --n with a positive integer")
        return cartan_power_product(v, args.n)
    if kind == "y2":
        if args.slot not in SLOTS:
            raise ValueError("qdim y2 requires --slot alpha|beta|gamma")
        return y2_product(v, args.slot)
    if kind == "x2":
        return x2_product(v)
    if kind == "z":
        if args.k is None or args.l is None or args.k < 0 or args.l < 0:
            raise ValueError("qdim z requires non-negative --k and --l")
        return z_product(v, args.k, args.l)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# command handlers (each returns an output document)
# ---------------------------------------------------------------------------


def cmd_dim(args) -> dict:
    v, inputs = _resolve_params(args)
    results = {
        "dim": str(dim_adjoint(v)),
        "t": str(v.t),
        "casimir_adjoint": str(casimir_adjoint(v)),
    }
    for slot in SLOTS:
        results[f"casimir_y2_{slot}"] = str(casimir_y2(v, slot))
    return {"command": "dim", "inputs": inputs, "results": results, "status": "pass"}


def cmd_qdim(args) -> dict:
    v, inputs = _resolve_params(args)
    inputs["kind"] = args.kind
    for key in ("n", "slot", "k", "l"):
        value = getattr(args, key)
        if value is not None:
            inputs[key] = value
    # Flags are checked before the product is built: building can be slow
    # (a large Cartan power) or hit a parameter pole.
    if args.x is not None:
        if args.series is not None:
            raise ValueError("--x and --series are mutually exclusive")
        if not math.isfinite(args.x):
            raise ValueError(f"--x must be finite, got {args.x}")
        inputs["x"] = args.x
        results = {"value": _qdim_product(args, v).value_at(args.x)}
    else:
        order = _series_order(args.series)
        inputs["series_order"] = order
        nums, den = _qdim_product(args, v).even_coefficients(order)
        results = {"coefficients": [[2 * j, str(Fraction(num, den))]
                                    for j, num in enumerate(nums)]}
    return {"command": "qdim", "inputs": inputs, "results": results, "status": "pass"}


def cmd_verify(args) -> dict:
    order = _series_order(args.order)
    inputs = {"identity": args.identity, "order": order, "seed": args.seed,
              "mode": args.mode}
    if args.identity in SUITES:
        suite = SUITES[args.identity]()
        results = {"checks": suite["checks"]}
        status = "pass" if suite["passed"] else "fail"
    else:
        trials = args.trials
        if trials is None:
            trials = 100 if args.mode == SERIES else 10000
        inputs["trials"] = trials
        report = verify_identity(args.identity, mode=args.mode, order=order,
                                 trials=trials, seed=args.seed)
        results = {
            "points_checked": report.points_checked,
            "order_checked": report.order_checked,
            "exact_zero": report.exact_zero,
            "max_abs_residual": report.max_abs_residual,
            "failures": [[list(map(str, point)), detail]
                         for point, detail in report.failures],
        }
        status = "pass" if report.passed else "fail"
    return {"command": "verify", "inputs": inputs, "results": results, "status": status}


def cmd_table(args) -> dict:
    report = build_table_report(args.which)
    status = "pass" if report.pop("passed") else "fail"
    return {"command": "table", "inputs": {"which": args.which},
            "results": report, "status": status}


def cmd_instanton(args) -> dict:
    v, inputs = _resolve_params(args)
    ip = InstantonParams(eps1=args.eps1, eps2=args.eps2, sigma_n=args.sigma,
                         x=args.x, n_max=args.nmax)
    inputs.update(eps1=ip.eps1, eps2=ip.eps2, sigma=ip.sigma_n, x=ip.x,
                  nmax=ip.n_max)
    table = one_instanton_sum(v, ip)
    results = {
        "rows": [[n, term, partial] for n, term, partial in table.rows],
        "converged": table.converged,
        "converged_at": table.converged_at,
    }
    return {"command": "instanton", "inputs": inputs, "results": results,
            "status": "pass"}


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    """A rational flag; argparse reports unreadable text as invalid Fraction."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


_rational.__name__ = Fraction.__name__  # the type name in argparse's errors


def _real(text: str) -> float:
    """A float flag: what float() reads, else a fraction p/q to the nearest float."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return float(_rational(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected a float or a fraction p/q") from None
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is too large for a float") from None


def _add_param_args(sp) -> None:
    sp.add_argument("algebra", nargs="*",
                    help='algebra name, e.g. "e8", "sl 6", "so 12"')
    sp.add_argument("--alpha", type=_rational, help="rational value, e.g. -10/3")
    sp.add_argument("--beta", type=_rational)
    sp.add_argument("--gamma", type=_rational)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one canonical JSON document")

    parser = _Parser(
        prog="uqdim",
        description="Exact universal quantum dimensions on Vogel's plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    real = "float or fraction p/q"

    p = sub.add_parser("dim", parents=[common],
                       help="adjoint dimension and Casimir values")
    _add_param_args(p)
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("qdim", parents=[common],
                       help="quantum-dimension series or numeric value")
    p.add_argument("kind", choices=["adjoint", "cartan", "y2", "x2", "z"])
    _add_param_args(p)
    p.add_argument("--n", type=int, help="Cartan power (kind=cartan)")
    p.add_argument("--slot", choices=list(SLOTS), help="Y2 slot (kind=y2)")
    p.add_argument("--k", type=int, help="adjoint factors (kind=z)")
    p.add_argument("--l", type=int, help="Y2(beta) factors (kind=z)")
    p.add_argument("--x", type=_real, help="evaluate numerically at x, a " + real)
    p.add_argument("--series", type=int, metavar="ORDER",
                   help="emit exact series coefficients to this order "
                        f"(0..{MAX_SERIES_ORDER}; default {DEFAULT_ORDER})")
    p.set_defaults(handler=cmd_qdim)

    p = sub.add_parser("verify", parents=[common],
                       help="run an identity or cross-check suite")
    p.add_argument("identity", choices=[*IDENTITIES, *SUITES])
    p.add_argument("--order", type=int,
                   help=f"series truncation order (0..{MAX_SERIES_ORDER}, and at least 1 "
                        f"for an identity in series mode; default {DEFAULT_ORDER})")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[SERIES, NUMERIC], default=SERIES)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="regenerate a symmetric-cube decomposition table")
    p.add_argument("which", choices=sorted(TABLES))
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("instanton", parents=[common],
                       help="one-instanton term table")
    _add_param_args(p)
    p.add_argument("--eps1", type=_real, default=0.0, help=real)
    p.add_argument("--eps2", type=_real, default=0.0, help=real)
    p.add_argument("--sigma", type=_real, default=0.0, help=real)
    p.add_argument("--x", type=_real, required=True, help=real)
    p.add_argument("--nmax", type=int, default=10)
    p.set_defaults(handler=cmd_instanton)

    return parser


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
        return
    print(f"command: {doc['command']}")
    for key, value in doc["inputs"].items():
        print(f"  {key}: {value}")
    for key, value in doc["results"].items():
        if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            print(f"{key}:")
            for item in value:
                if isinstance(item, dict):
                    print("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
                else:
                    print("  " + "  ".join(str(x) for x in item))
        else:
            print(f"{key}: {value}")
    print(f"status: {doc['status']}")


def _error_doc(command: str | None, message: str) -> dict:
    return {"command": command, "inputs": {},
            "results": {"error": message}, "status": "error"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = None
    try:
        # parse_known_args plus a manual sweep lets algebra tokens appear
        # after options, e.g. "qdim z --k 1 --l 1 sl6 --series 0"
        # (parse_intermixed_args does not support subparsers).
        args, extra = parser.parse_known_args(argv)
        bad = [tok for tok in extra if tok.startswith("-")]
        if bad:
            parser.error(f"unrecognized arguments: {' '.join(bad)}")
        if extra:
            if not hasattr(args, "algebra"):
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.algebra = list(args.algebra) + extra
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _ParseError as exc:
        failed, message = exc.args
        if "--json" in argv:
            command = failed.prog.partition(" ")[2] or getattr(args, "command", None)
            _emit(_error_doc(command, message), True)
        else:
            failed.print_usage(sys.stderr)
            print(f"{failed.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE

    as_json = args.json
    try:
        doc = args.handler(args)
    except (UnknownAlgebra, InvalidRank, LengthMismatch, ValueError) as exc:
        _emit(_error_doc(args.command, str(exc)), as_json)
        return EXIT_USAGE
    except PoleAtParameters as exc:
        _emit(_error_doc(args.command, str(exc)), as_json)
        return EXIT_PARAM_POLE
    except FloatEvaluationError as exc:
        _emit(_error_doc(args.command, str(exc)), as_json)
        return EXIT_FLOAT

    _emit(doc, as_json)
    return EXIT_PASS if doc["status"] == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
