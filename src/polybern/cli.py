"""Command-line interface: sequence tables, identity verification, series eval.

Commands
    polybern table  --kind <sequence> -n <n_max> [flags]   exact value tables
    polybern verify --identity <name> --n-max <int> [...]  identity checking
    polybern eval   --expr <text> --order <int> [--egf]    series coefficients

Exit codes: 0 success/pass, 1 verification or evaluation failure, 2 usage
error. All values are printed as exact rationals ("p/q" or an integer),
never as floats, and in full, past CPython's int/str digit limit
(``_unlimited_int_digits``). Every literal read from the command line goes
through one reader, ``_literal``, which caps its integers at
``caps.MAX_LITERAL_DIGITS`` digits before they are converted.

Each command imports the modules it runs when it runs, so ``--help`` and a
table of Bernoulli numbers never load the polylog or the expression parser.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .polybernoulli import VerificationReport

# ASCII digits only, as in expr: "\d" would match any Unicode digit.
_INT = "-?[0-9]+"
_INT_RE = re.compile(_INT)
_RATIONAL_RE = re.compile(f"{_INT}(/[1-9][0-9]*)?")
_K_RANGE_RE = re.compile(rf"({_INT})(?:\.\.({_INT}))?")

#: The largest sizes the CLI accepts; a larger value is a usage error. They
#: do not bound the cost of a large k. On a 2-vCPU VM ``table --kind poly2nd
#: -n 1000`` takes 10-13 s at k = -3, 21-29 s at k = 5, 42-48 s at k = 12 and
#: 33-36 s at k = -999, nearly all of it the quotient by log(1+t);
#: ``-k 1000 -n 100`` takes 20-23 s. At k > 0 the values carry lcm(1..n)^k, so ``-k 20000 -n 1000``
#: would need gigabytes. ``verify thm4``, which checks (n+1)^2 points per n,
#: takes 5-7 s and 41 MB at n = 50.
MAX_TABLE_N = 1000
MAX_VERIFY_N = 50
MAX_ORDER = 1000


def _check_size(parser: argparse.ArgumentParser, flag: str, value: int, cap: int) -> None:
    """The one rule of the size flags ``table -n``, ``verify --n-max`` and
    ``eval --order``: at least 0 and at most ``cap``."""
    if value < 0:
        parser.error(f"{flag} must be >= 0")
    if value > cap:
        parser.error(f"{flag} must be at most {cap}, not {value}")


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's int/str digit limit while a command runs, so that exact
    results of any size print. ``main`` enters it once, around the command;
    the command-line literals stay bounded because ``_literal`` caps them
    before they are converted."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _literal(pattern: re.Pattern, text: str, what: str) -> re.Match:
    """The match of ``pattern`` on the whole of ``text``, stripped, else
    ``ValueError("<what>: <text>")``.

    Every literal read from the command line passes here, and each of its
    integers is capped at ``caps.MAX_LITERAL_DIGITS`` digits before anything
    converts it: ``main`` lifts CPython's own int/str limit for the whole
    command, so nothing else bounds the conversion."""
    from .caps import MAX_LITERAL_DIGITS

    m = pattern.fullmatch(text.strip())
    if not m:
        raise ValueError(f"{what}: {text!r}")
    if any(len(run) > MAX_LITERAL_DIGITS for run in re.findall("[0-9]+", m[0])):
        raise ValueError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits")
    return m


def _int_flag(text: str) -> int:
    """The ``type`` of every integer flag, with argparse's own wording for a
    value that is not an integer."""
    try:
        return int(_literal(_INT_RE, text, "invalid int value")[0])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rational(text: str) -> Fraction:
    """A rational literal, ``p`` or ``p/q``."""
    return Fraction(_literal(_RATIONAL_RE, text, "not a rational literal")[0])


def _parse_point(text: str):
    """A point of ``verify --x``: a rational literal, or ``x``, the symbolic
    point, as reports print it."""
    if text.strip() == "x":
        from .polynomial import X

        return X
    return _parse_rational(text)


def _parse_k_range(text: str) -> list[int]:
    """An integer or a..b range."""
    text = text.strip()
    m = _literal(_K_RANGE_RE, text, "not an integer or a..b range")
    from .caps import check_k

    lo = check_k(int(m.group(1)))
    if m.group(2) is None:
        return [lo]
    hi = check_k(int(m.group(2)))
    if lo > hi:
        raise ValueError(f"empty k range: {text!r}")
    return list(range(lo, hi + 1))


def _merge_value_flags(argv: list[str]) -> list[str]:
    # argparse cannot tokenize values like "-3..3" after --k/--x, or "-t"
    # after --expr; fold them into --k=-3..3 form before parsing. A
    # following "--flag" is not a value.
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--k", "--x", "--expr") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


class _IdentityNames:
    """The ``--identity`` choices: the sorted names of
    ``polybernoulli.IDENTITIES``, which is imported when argparse first
    checks a value (``in`` iterates) or formats the help."""

    def __iter__(self):
        from .polybernoulli import IDENTITIES

        return iter(sorted(IDENTITIES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybern",
        description="Exact Bernoulli-family sequence tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a sequence table (CSV or JSON)")
    table.add_argument(
        "--kind",
        required=True,
        choices=[
            "bernoulli",
            "bernoulli2nd",
            "poly2nd",
            "stirling1",
            "stirling2",
            "higher-order",
        ],
    )
    table.add_argument("-n", "--n-max", type=_int_flag, required=True, dest="n_max")
    table.add_argument("-k", type=_int_flag, default=None, help="polylog order (poly2nd only)")
    table.add_argument("--x", default=None, help="evaluation point, rational literal p/q")
    table.add_argument("--l", type=_int_flag, default=None, dest="l", help="triangle column (stirling kinds)")
    table.add_argument("--convention", choices=["egf", "ogf"], default=None)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.set_defaults(func=cmd_table, parser=table)

    verify = sub.add_parser("verify", help="check a built-in identity exactly")
    # Set after add_argument, which would otherwise read the names at once.
    verify.add_argument("--identity", required=True).choices = _IdentityNames()
    verify.add_argument("--n-max", type=_int_flag, required=True, dest="n_max")
    verify.add_argument("--k", default=None, help="int or a..b range")
    verify.add_argument("--x", default=None, help="comma list of rationals and x, the symbolic point")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=cmd_verify, parser=verify)

    ev = sub.add_parser("eval", help="evaluate a series expression in t")
    ev.add_argument("--expr", required=True)
    ev.add_argument("--order", type=_int_flag, required=True)
    ev.add_argument("--egf", action="store_true", help="print n!*c_n instead of raw c_n")
    ev.set_defaults(func=cmd_eval, parser=ev)

    return parser


_STIRLING = ("stirling1", "stirling2")

#: The flags that only some kinds take, in the order ``table`` checks them
#: and prints them in ``params``: each flag's dest, the kinds that take it,
#: and the usage error for any other kind.
_TABLE_FLAGS = (
    ("k", ("poly2nd",), "-k applies to --kind poly2nd only"),
    ("l", _STIRLING, "--l applies to stirling kinds only"),
    ("convention", ("bernoulli2nd",), "--convention applies to --kind bernoulli2nd only"),
    ("x", ("bernoulli", "bernoulli2nd", "poly2nd", "higher-order"), "--x does not apply to stirling kinds"),
)


def _table_values(args, parser: argparse.ArgumentParser):
    """The JSON ``params`` and the values of one table. The flags given are
    checked against ``_TABLE_FLAGS`` first, then the point, then what the
    kind requires."""
    kind, n_max = args.kind, args.n_max
    for flag, kinds, error in _TABLE_FLAGS:
        if getattr(args, flag) is not None and kind not in kinds:
            parser.error(error)
    try:
        x = None if args.x is None else _parse_rational(args.x)
        if kind == "poly2nd":
            if args.k is None:
                parser.error("--kind poly2nd requires -k")
            from .caps import check_k

            check_k(args.k)
    except ValueError as exc:
        parser.error(str(exc))
    if kind in _STIRLING and args.l is None:
        parser.error(f"--kind {kind} requires --l (triangle column)")
    if x is None and kind in ("poly2nd", "higher-order"):
        x = Fraction(0)  # these two kinds are always read at a point
    convention = (args.convention or "egf") if kind == "bernoulli2nd" else None
    given = {"k": args.k, "l": args.l, "convention": convention, "x": x}
    params = {flag: str(given[flag]) for flag, _, _ in _TABLE_FLAGS if given[flag] is not None}

    if kind == "poly2nd":
        from .gf import poly_b2nd_values

        return params, poly_b2nd_values(n_max, args.k, x)
    if kind in _STIRLING:
        from .combinatorics import stirling1, stirling2

        fn = stirling1 if kind == "stirling1" else stirling2
        return params, [fn(n, args.l) for n in range(n_max + 1)]

    from . import bernoulli

    if kind == "bernoulli":
        values = bernoulli.bernoulli_numbers(n_max) if x is None else bernoulli.bernoulli_values(n_max, x)
    elif kind == "bernoulli2nd":
        values = bernoulli.bernoulli2nd_numbers(n_max) if x is None else bernoulli.bernoulli2nd_values(n_max, x)
        if convention == "ogf":
            values = [v / math.factorial(n) for n, v in enumerate(values)]
    else:  # higher-order: B_n^(n)(x) = b_n(x - 1) (Norlund)
        values = bernoulli.bernoulli2nd_values(n_max, x - 1)
    return params, values


def cmd_table(args, parser: argparse.ArgumentParser) -> int:
    _check_size(parser, "--n-max", args.n_max, MAX_TABLE_N)
    params, values = _table_values(args, parser)
    entries = [(n, str(v)) for n, v in enumerate(values)]
    if args.format == "csv":
        print("\n".join(["n,value", *(f"{n},{value}" for n, value in entries)]))
    else:
        import json

        rows = [{"n": n, "value": value} for n, value in entries]
        print(json.dumps({"sequence": args.kind, "params": params, "entries": rows}, indent=2))
    return 0


def _report_text(report: VerificationReport) -> str:
    lines = [f"identity: {report.identity}"]
    lines.append(
        "range: " + "; ".join(f"{k}={v}" for k, v in report.range_spec.items())
    )
    lines.append(f"points checked: {report.total}")
    lines.append(f"status: {report.status.upper()}")
    if not report.passed:
        first = report.first_counterexample
        point = ", ".join(f"{k}={v}" for k, v in first["params"].items())
        lines.append(f"failures: {len(report.failures)} of {report.total}")
        lines.append(f"first counterexample: {point}")
        lines.append(f"  lhs: {first['lhs']}")
        lines.append(f"  rhs: {first['rhs']}")
    return "\n".join(lines)


def _report_json(report: VerificationReport) -> str:
    import json

    return json.dumps(
        {
            "identity": report.identity,
            "range": report.range_spec,
            "points": report.total,
            "status": report.status,
            "failures": report.failures,
            "checked": report.checked,
        },
        indent=2,
    )


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    _check_size(parser, "--n-max", args.n_max, MAX_VERIFY_N)
    try:
        ks = None if args.k is None else _parse_k_range(args.k)
        xs = None if args.x is None else [_parse_point(part) for part in args.x.split(",") if part.strip()]
        if xs == []:
            raise ValueError("--x needs at least one rational")
        from .polybernoulli import verify_identity

        report = verify_identity(args.identity, args.n_max, ks, xs)
    except ValueError as exc:
        parser.error(str(exc))
    print(_report_text(report) if args.format == "text" else _report_json(report))
    return 0 if report.passed else 1


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    _check_size(parser, "--order", args.order, MAX_ORDER)
    from .expr import ParseError, eval_expr, parse_expr

    try:
        series = eval_expr(parse_expr(args.expr), args.order)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for n, c in enumerate(series.coeffs):
        value = math.factorial(n) * c if args.egf else c
        print(f"{n}: {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_value_flags(argv))
        with _unlimited_int_digits():
            code = args.func(args, args.parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``). Point stdout at /dev/null so
        # that the flush at exit does not raise again, and say nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
