"""Command-line front end.

Exit codes: 0 success, 2 invalid input (a scenario or flag value that
violates the schema, or a value outside an operation's domain), 3
infeasible optimization budget, 4 internal inconsistency, 64 unknown
subcommand, 141 output pipe closed before the output was written.
Output is human-readable by default and JSON with --json; JSON output for
a fixed input is byte-stable across runs.

Each subcommand imports its own module when it runs, so a process loads
only what its subcommand needs: every process loads this module, the
error types and the JSON writer (`report`); mean-exponent adds groups,
genus-bound, gs-check and critere add towers, propgroup adds propgroups,
oracle adds oracle and groups, and tv-bound and paper-example add the
scenario pipeline.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import WITNESS_N_MAX
from .errors import (
    InfeasibleProblemError,
    InternalInconsistencyError,
    MeanexpError,
    SchemaError,
)
from .report import dump_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 64
# 128 + SIGPIPE: the status a shell reports for a process a closed pipe ends
EXIT_PIPE = 141

_EXAMPLE_NAMES = {"1": "example1", "2": "example2", "3": "example3",
                  "4": "example4", "5": "example5", "intro": "intro"}


def _int_arg(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"expected an integer, got {text!r}", location=flag) from None


def _testable_prime(p: int, flag: str) -> None:
    """SchemaError naming flag unless p is a prime: first when p is too large
    to test for primality (`arith.PRIME_TEST_BOUND`), before any test reads
    it, then when the test fails."""
    from .arith import PRIME_TEST_BOUND, is_prime

    if abs(p) >= PRIME_TEST_BOUND:
        raise SchemaError("integers tested for primality must be below 2^64 in absolute value", location=flag)
    if not is_prime(p):
        raise SchemaError(f"{p} is not prime", location=flag)


def _parse_shape(text: str):
    """Parse 'p:2,exps:3,1' into a group shape (`groups.AbelianPShape`)."""
    from .groups import AbelianPShape

    p = None
    exps: list[int] = []
    mode = None
    for token in text.split(","):
        token = token.strip()
        if token.startswith("p:"):
            p = _int_arg(token[2:], "--shape")
            mode = None
        elif token.startswith("exps:"):
            mode = "exps"
            rest = token[5:]
            if rest:
                exps.append(_int_arg(rest, "--shape"))
        elif mode == "exps" and token:
            exps.append(_int_arg(token, "--shape"))
        elif token:
            raise SchemaError(f"cannot parse shape token {token!r}", location="--shape")
    if p is None:
        raise SchemaError("shape needs a p: entry", location="--shape")
    _testable_prime(p, "--shape")
    return AbelianPShape(p=p, exps=tuple(exps))


def _emit(payload: dict, args, text_lines=None) -> None:
    if args.json:
        print(dump_report(payload, precision=args.precision))
    else:
        for line in text_lines if text_lines is not None else _default_lines(payload):
            print(line)


def _default_lines(payload: dict, prefix: str = ""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from _default_lines(value, prefix + "  ")
        else:
            yield f"{prefix}{key}: {value}"


def run_packaged_example(name: str) -> dict:
    from importlib import resources

    from .scenario import run_scenario

    path = resources.files(__package__).joinpath("scenarios", f"{name}.json")
    with resources.as_file(path) as concrete:
        return run_scenario(concrete)


def _cmd_mean_exponent(args) -> dict:
    from .groups import mean_exponent, order_log, rank

    shape = _parse_shape(args.shape)
    me = mean_exponent(shape)
    return {
        "shape": shape.to_json(),
        "mean_exponent": float(me),
        "mean_exponent_exact": str(me),
        "rank": rank(shape),
        "order_log": order_log(shape),
    }


def _cmd_genus_bound(args) -> dict:
    from . import towers

    bound = towers.genus_rank_bound(args.rho, args.r1, args.r2, args.delta)
    return {"rho": args.rho, "r1": args.r1, "r2": args.r2, "delta": args.delta, "bound": bound}


def _cmd_gs_check(args) -> dict:
    from . import towers

    verdict = towers.gs_verdict(args.d, args.r_upper)
    return {
        "d": args.d,
        "r_upper": args.r_upper,
        "finite_requires_at_least": towers.gs_finite_requires(args.d),
        "verdict": verdict.value,
    }


def _cmd_critere(args) -> dict:
    from . import towers

    ok = towers.critere_real_quadratic(args.rho, args.t_dec, args.t_total)
    return {
        "rho": args.rho,
        "t_dec": args.t_dec,
        "t_total": args.t_total,
        "tower_infinite": ok,
    }


def _cmd_tv_bound(args) -> dict:
    from .scenario import run_scenario

    return run_scenario(args.scenario)


def _cmd_paper_example(args) -> dict:
    name = _EXAMPLE_NAMES.get(args.which)
    if name is None:
        raise SchemaError(
            f"unknown example {args.which!r}; expected 1..5 or intro", location="paper-example"
        )
    return run_packaged_example(name)


#: Largest --N per propgroup mode.  series and ranks hold N + 1 big
#: integers whose size grows linearly in n; past witnesses' limit the
#: float-log window ends 2^(N+1) no longer convert to floats.
PROPGROUP_N_MAX = {"series": 10_000, "ranks": 10_000, "witnesses": WITNESS_N_MAX}

#: Largest --d of witnesses is 10^WITNESS_D_EXP, and --r at most its square.
#: The exact rows hold the power sums V_m, m <= 4095, of the reciprocal roots
#: of 1 - dT + sum T^(a_i), each root below 2*max(d, sqrt(r)) (Fujiwara's
#: bound), so V_4095 has at most about 4095*(WITNESS_D_EXP + 0.3) digits.
#: The exponent is set by the largest --d the tests feed propgroup (10^20,
#: with --r 10^30); at it a scan takes about 0.6 s and 135 MB, and V_4095
#: stays under 84,000 digits.
WITNESS_D_EXP = 20
WITNESS_D_MAX = 10**WITNESS_D_EXP


def _printable(values, what: str) -> list[int]:
    """values as a list, or SchemaError when one of them has more decimal
    digits than the interpreter converts to text (sys.get_int_max_str_digits;
    Python 3.11 on).  The limit itself is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    values = list(values)
    top = max(map(abs, values), default=0)
    # a value of at most 3 * limit bits is below 8^limit < 10^limit, so only
    # a longer one needs the exact comparison
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise SchemaError(
            f"a {what} has more than {limit} decimal digits, Python's int-to-str limit; "
            "lower --N or --d", location="--N")
    return values


def _cmd_propgroup(args) -> dict:
    if args.N > PROPGROUP_N_MAX[args.mode]:
        raise SchemaError(
            f"expected at most {PROPGROUP_N_MAX[args.mode]} for {args.mode}, got {args.N}", location="--N"
        )
    if args.mode == "witnesses" and args.d > WITNESS_D_MAX:
        raise SchemaError(f"expected at most 10^{WITNESS_D_EXP} for witnesses, got {args.d}", location="--d")
    if args.mode == "witnesses" and args.r > WITNESS_D_MAX**2:
        raise SchemaError(f"expected at most 10^{2 * WITNESS_D_EXP} for witnesses, got {args.r}", location="--r")
    _testable_prime(args.p, "--p")
    from . import propgroups

    params = propgroups.GSGroupParams(
        d=args.d,
        r=args.r,
        p=args.p,
        relation_degrees=tuple(_int_arg(x, "--degrees") for x in args.degrees.split(",")) if args.degrees else (),
    )
    if args.mode == "series":
        series = propgroups.gs_series(params, args.N)
        return {"d": args.d, "r": args.r, "coeffs": _printable(series.coeffs, "series coefficient")}
    if args.mode == "ranks":
        ranks = propgroups.gs_ranks(params, args.N)
        return {"d": args.d, "r": args.r, "p": args.p, "b": _printable(ranks.b, "rank")}
    rows = propgroups.theo2_witnesses(params, args.eps, args.N)
    return {
        "d": args.d,
        "r": args.r,
        "p": args.p,
        "epsilon": args.eps,
        "gs_type": params.gs_type(),
        # finite abelianization needs at least as many relations as generators
        "fab_typical": args.r >= args.d,
        "rows": [row.to_json() for row in rows],
    }


def _cmd_oracle(args) -> dict:
    from . import oracle
    from .groups import mean_exponent

    D = args.disc
    h, shapes = oracle.class_group(D)
    structures = {str(p): shape.to_json() for p, shape in shapes.items()}
    means = {str(p): float(mean_exponent(shape)) for p, shape in shapes.items()}
    return {"disc": D, "h": h, "structures": structures, "mean_exponents": means}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    # global flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a post-subcommand absence from clobbering a
    # pre-subcommand value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON instead of text")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="round floats in JSON output to this many (>= 0) decimal places")

    parser = argparse.ArgumentParser(prog="meanexp", description=__doc__, exit_on_error=False)
    parser.add_argument("--json", action="store_true", default=False, help=argparse.SUPPRESS)
    parser.add_argument("--precision", type=int, default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    sp = sub.add_parser("mean-exponent", parents=[common], help="mean exponent of a finite abelian p-group")
    sp.add_argument("--shape", required=True, help="e.g. p:2,exps:3,1")
    sp.set_defaults(func=_cmd_mean_exponent)

    sp = sub.add_parser("genus-bound", parents=[common], help="genus-theory p-rank lower bound")
    sp.add_argument("--rho", type=int, required=True)
    sp.add_argument("--r1", type=int, required=True)
    sp.add_argument("--r2", type=int, required=True)
    sp.add_argument("--delta", type=int, choices=(0, 1), required=True)
    sp.set_defaults(func=_cmd_genus_bound)

    sp = sub.add_parser("gs-check", parents=[common], help="generator/relation infinitude verdict")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r-upper", type=int, required=True)
    sp.set_defaults(func=_cmd_gs_check)

    sp = sub.add_parser("critere", parents=[common], help="real-quadratic T-split tower criterion")
    sp.add_argument("--rho", type=int, required=True)
    sp.add_argument("--t-dec", type=int, required=True)
    sp.add_argument("--t-total", type=int, required=True)
    sp.set_defaults(func=_cmd_critere)

    sp = sub.add_parser("tv-bound", parents=[common], help="run a scenario file")
    sp.add_argument("--scenario", required=True)
    sp.set_defaults(func=_cmd_tv_bound)

    sp = sub.add_parser("paper-example", parents=[common], help="run a packaged worked example (1..5 or intro)")
    sp.add_argument("which")
    sp.set_defaults(func=_cmd_paper_example)

    sp = sub.add_parser("propgroup", parents=[common], help="dimension series and filtration ranks")
    sp.add_argument("mode", choices=("series", "ranks", "witnesses"))
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--N", type=int, default=16,
                    help="order (series, ranks; at most %d) or last n of the scan (witnesses; at most %d)"
                    % (PROPGROUP_N_MAX["ranks"], PROPGROUP_N_MAX["witnesses"]))
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--degrees", default="", help="comma-separated relation degrees")
    sp.set_defaults(func=_cmd_propgroup)

    sp = sub.add_parser("oracle", parents=[common], help="brute-force class group data")
    sp.add_argument("oracle_mode", choices=("class-group",))
    sp.add_argument("--disc", type=int, required=True)
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        # "command" is the subparsers' dest: an invalid choice there is an
        # unknown subcommand; anything else is an ordinary usage error
        if exc.argument_name != "command":
            parser.error(str(exc))
        print(f"meanexp: unknown subcommand: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        if args.precision is not None and args.precision < 0:
            raise SchemaError(f"expected a precision >= 0, got {args.precision}", location="--precision")
        payload = args.func(args)
    except SchemaError as exc:
        print(f"meanexp: invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleProblemError as exc:
        print(f"meanexp: infeasible problem: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalInconsistencyError as exc:
        print(f"meanexp: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MeanexpError as exc:
        print(f"meanexp: error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        _emit(payload, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # exit does not raise again (the Python docs' SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
