import decimal
import itertools
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from polybern import bernoulli, cli, combinatorics, expr, gf, polybernoulli, polynomial, series
from polybern.cli import main
from polybern.combinatorics import stirling1, stirling2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines()]
    assert lines[0] == "n,value"
    out = []
    for line in lines[1:]:
        n, value = line.split(",")
        out.append((int(n), F(value)))
    return out


# -- table -------------------------------------------------------------------


def test_table_poly2nd_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "poly2nd", "-k", "2", "-n", "2")
    assert code == 0
    assert parse_csv(out) == [(0, F(1)), (1, F(1, 4)), (2, F(-13, 36))]


def test_table_bernoulli_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "bernoulli", "-n", "2")
    assert code == 0
    assert out.strip().splitlines() == ["n,value", "0,1", "1,-1/2", "2,1/6"]


def test_table_bernoulli2nd_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "bernoulli2nd", "-n", "1")
    assert code == 0
    assert out.strip().splitlines() == ["n,value", "0,1", "1,1/2"]


def test_table_conventions(capsys):
    code, ogf, _ = run_cli(
        capsys, "table", "--kind", "bernoulli2nd", "-n", "5", "--convention", "ogf"
    )
    assert code == 0
    assert [v for _, v in parse_csv(ogf)] == [
        F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720), F(3, 160),
    ]
    code, egf, _ = run_cli(
        capsys, "table", "--kind", "bernoulli2nd", "-n", "5", "--convention", "egf"
    )
    assert code == 0
    import math

    for (n, raw), (_, scaled) in zip(parse_csv(ogf), parse_csv(egf)):
        assert scaled == math.factorial(n) * raw


def test_table_with_evaluation_point(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "bernoulli2nd", "-n", "2", "--x", "1/2"
    )
    assert code == 0
    assert parse_csv(out)[2] == (2, F(1, 12))  # b_2(1/2) = 1/4 - 1/6


def test_table_stirling_requires_column(capsys):
    code, _, err = run_cli(capsys, "table", "--kind", "stirling2", "-n", "4")
    assert code == 2 and "--l" in err

    code, out, _ = run_cli(capsys, "table", "--kind", "stirling2", "-n", "4", "--l", "2")
    assert code == 0
    assert [v for _, v in parse_csv(out)] == [F(0), F(0), F(1), F(3), F(7)]

    code, out, _ = run_cli(capsys, "table", "--kind", "stirling1", "-n", "4", "--l", "2")
    assert code == 0
    assert [v for _, v in parse_csv(out)] == [F(0), F(0), F(1), F(-3), F(11)]


def test_table_higher_order_diagonal(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "higher-order", "-n", "3")
    assert code == 0
    expected = [bernoulli.higher_order_bernoulli_poly(n, n, F(0)) for n in range(4)]
    assert [v for _, v in parse_csv(out)] == expected


def test_table_higher_order_takes_no_series_power(capsys, monkeypatch):
    # The table reads b_n(x - 1) = B_n^(n)(x) and no Miller power; the power,
    # the definition of B_n^(n)(x), gives the expected lines before it is
    # patched to raise.
    power = bernoulli.higher_order_bernoulli_poly
    expected = ["n,value", *(f"{n},{power(n, n, F(1, 3))}" for n in range(41))]

    def refuse(*args):
        raise AssertionError("TruncatedSeries.__pow__ called")

    monkeypatch.setattr(series.TruncatedSeries, "__pow__", refuse)
    code, out, _ = run_cli(capsys, "table", "--kind", "higher-order", "-n", "40", "--x", "1/3")
    assert code == 0 and out.splitlines() == expected


def test_verify_b_equals_higher_order_calls_the_series_power(capsys, monkeypatch):
    # The identity's right side stays the definition, not the table's route.
    calls = []
    power = bernoulli.higher_order_bernoulli_poly

    def counted(n, alpha, x):
        calls.append((n, alpha))
        return power(n, alpha, x)

    monkeypatch.setattr(bernoulli, "higher_order_bernoulli_poly", counted)
    code, out, _ = run_cli(capsys, "verify", "--identity", "b-equals-higher-order", "--n-max", "8")
    assert code == 0 and "status: PASS" in out
    assert calls == [(n, n) for n in range(9)]


def test_table_json_matches_csv(capsys):
    args = ("table", "--kind", "poly2nd", "-k", "-2", "-n", "4")
    code, csv_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["sequence"] == "poly2nd"
    assert payload["params"]["k"] == "-2"
    json_entries = [(e["n"], F(e["value"])) for e in payload["entries"]]
    assert json_entries == parse_csv(csv_out)


def test_table_round_trips_against_library(capsys):
    cases = [
        (("table", "--kind", "bernoulli", "-n", "6"), bernoulli.bernoulli_numbers(6)),
        (
            ("table", "--kind", "bernoulli2nd", "-n", "6"),
            bernoulli.bernoulli2nd_numbers(6),
        ),
        (
            ("table", "--kind", "poly2nd", "-k", "3", "-n", "6", "--x", "1/2"),
            list(polybernoulli.poly_b2nd_values(6, 3, F(1, 2))),
        ),
        (
            ("table", "--kind", "stirling2", "-n", "6", "--l", "3"),
            [stirling2(n, 3) for n in range(7)],
        ),
        (
            ("table", "--kind", "stirling1", "-n", "6", "--l", "3"),
            [stirling1(n, 3) for n in range(7)],
        ),
        (
            ("table", "--kind", "higher-order", "-n", "5", "--x", "-1/3"),
            [
                bernoulli.higher_order_bernoulli_poly(n, n, F(-1, 3))
                for n in range(6)
            ],
        ),
    ]
    for args, expected in cases:
        for fmt in ("csv", "json"):
            code, out, _ = run_cli(capsys, *args, "--format", fmt)
            assert code == 0, args
            if fmt == "csv":
                values = [v for _, v in parse_csv(out)]
            else:
                values = [F(e["value"]) for e in json.loads(out)["entries"]]
            assert values == [F(v) for v in expected], args


def test_table_flag_validation(capsys):
    bad = [
        ("table", "--kind", "bernoulli", "-n", "3", "-k", "2"),
        ("table", "--kind", "poly2nd", "-n", "3"),
        ("table", "--kind", "poly2nd", "-n", "3", "-k", "2", "--convention", "ogf"),
        ("table", "--kind", "stirling1", "-n", "3", "--l", "1", "--x", "2"),
        ("table", "--kind", "bernoulli", "-n", "-1"),
        ("table", "--kind", "bernoulli", "-n", "3", "--x", "0.5"),
        ("table", "--kind", "bernoulli", "-n", "3", "--l", "1"),
    ]
    for args in bad:
        code, _, err = run_cli(capsys, *args)
        assert code == 2, args
        assert err, args


TABLE_KINDS = ("bernoulli", "bernoulli2nd", "poly2nd", "stirling1", "stirling2", "higher-order")
STIRLING = ("stirling1", "stirling2")
#: Each kind's required flag, as the usage-error cases give it by default.
TABLE_REQUIRED = {"poly2nd": ("-k", "3"), "stirling1": ("--l", "1"), "stirling2": ("--l", "1")}
#: The table usage errors in the order table checks them: the kinds that can
#: have the fault, the flag and value that make it (None drops the kind's
#: required flag) and its error.
TABLE_FAULTS = [
    ([k for k in TABLE_KINDS if k != "poly2nd"], "-k", "3", "-k applies to --kind poly2nd only"),
    ([k for k in TABLE_KINDS if k not in STIRLING], "--l", "1", "--l applies to stirling kinds only"),
    ([k for k in TABLE_KINDS if k != "bernoulli2nd"], "--convention", "ogf", "--convention applies to --kind bernoulli2nd only"),
    (STIRLING, "--x", "2/3", "--x does not apply to stirling kinds"),
    ([k for k in TABLE_KINDS if k not in STIRLING], "--x", "abc", "not a rational literal: 'abc'"),
    (["poly2nd"], "-k", None, "--kind poly2nd requires -k"),
    (["poly2nd"], "-k", "20001", "|k| must be at most 20000, not 20001"),
    (STIRLING, "--l", None, "--kind {kind} requires --l (triangle column)"),
]


def table_usage_cases():
    """Each kind with one or two of the faults it can have, never two on one
    flag, and the error of the first of them."""
    cases = []
    for kind in TABLE_KINDS:
        faults = [fault for fault in TABLE_FAULTS if kind in fault[0]]
        for combo in [*itertools.combinations(faults, 1), *itertools.combinations(faults, 2)]:
            if len({flag for _, flag, _, _ in combo}) < len(combo):
                continue
            flags = dict([TABLE_REQUIRED[kind]]) if kind in TABLE_REQUIRED else {}
            flags.update((flag, value) for _, flag, value, _ in combo)
            argv = ["table", "--kind", kind, "-n", "3"]
            argv += [part for flag, value in flags.items() if value is not None for part in (flag, value)]
            names = [f"{flag} {value}" if value else f"no {flag}" for _, flag, value, _ in combo]
            cases.append(pytest.param(argv, combo[0][3].format(kind=kind), id=" + ".join([kind, *names])))
    return cases


@pytest.mark.parametrize("argv, error", table_usage_cases())
def test_table_reports_the_first_usage_error_in_a_fixed_order(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: polybern table ")
    assert [line for line in lines if "error:" in line] == [f"polybern table: error: {error}"]


# -- verify -------------------------------------------------------------------


def test_verify_thm2_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm2", "--n-max", "6", "--k", "-2..2"
    )
    assert code == 0
    assert "status: PASS" in out
    assert "points checked: 175" in out


def test_verify_eq9_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "eq9", "--n-max", "20")
    assert code == 0
    assert "status: PASS" in out


def test_verify_thm1_nmax_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm1", "--n-max", "0")
    assert code == 0
    assert "status: PASS" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--identity",
        "thm3",
        "--n-max",
        "4",
        "--k",
        "2",
        "--x",
        "0,1/2,-2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["points"] == 4 * 3
    assert payload["failures"] == []
    assert all(point["ok"] for point in payload["checked"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_checks_a_repeated_point_once(capsys, fmt):
    def run(points):
        return run_cli(capsys, "verify", "--identity", "thm3", "--n-max", "2", "--x", points, "--format", fmt)

    once = run("1/2")
    assert once[0] == 0
    assert run("1/2,2/4") == run("2/4,1/2,1/2") == once
    if fmt == "json":
        payload = json.loads(once[1])
        assert payload["points"] == 2 * 7 and payload["range"]["x"] == "1/2"
    else:
        assert "; x=1/2\n" in once[1] and "points checked: 14\n" in once[1]


def test_verify_forced_failure_exits_one(capsys, monkeypatch):
    # An intentionally wrong identity fixture: the eq9 checker claims the
    # k=1 table equals b_n(x) + 1.
    def broken_checker(n_max, ks, xs):
        for n in range(n_max + 1):
            lhs = polybernoulli.poly_b2nd_values(n_max, 1, F(0))[n]
            yield (n,), lhs, lhs + 1

    spec = polybernoulli.IDENTITIES["eq9"]
    monkeypatch.setitem(
        polybernoulli.IDENTITIES,
        "eq9",
        spec._replace(checker=broken_checker, params=("n",)),
    )
    code, out, _ = run_cli(capsys, "verify", "--identity", "eq9", "--n-max", "3")
    assert code == 1
    assert "status: FAIL" in out
    assert "first counterexample: n=0" in out
    assert "lhs: 1" in out and "rhs: 2" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_eq9_point_shows_both_value_lists_as_rationals(capsys, monkeypatch, fmt):
    # The eq9 checker imports bernoulli2nd_poly from bernoulli when it runs.
    original = bernoulli.bernoulli2nd_poly
    monkeypatch.setattr(
        bernoulli, "bernoulli2nd_poly", lambda n: original(n) + F(1, 2) if n == 2 else original(n)
    )
    code, out, _ = run_cli(capsys, "verify", "--identity", "eq9", "--n-max", "3", "--format", fmt)
    assert code == 1 and "Fraction(" not in out
    # b_2(x) = x^2 - 1/6 at x = 0, 1, 2 from the gf, against b_2(x) + 1/2.
    lhs, rhs = "[-1/6, 5/6, 23/6]", "[1/3, 4/3, 13/3]"
    if fmt == "text":
        assert "failures: 1 of 4" in out and "first counterexample: n=2, x=x" in out
        assert f"  lhs: {lhs}" in out.splitlines() and f"  rhs: {rhs}" in out.splitlines()
    else:
        failure = json.loads(out)["failures"]
        assert failure == [{"params": {"n": 2, "x": "x"}, "lhs": lhs, "rhs": rhs}]


def test_verify_usage_errors(capsys):
    cases = [
        ("verify", "--identity", "nope", "--n-max", "3"),
        ("verify", "--identity", "eq9"),
        ("verify", "--identity", "eq9", "--n-max", "3", "--k", "1..2"),
        ("verify", "--identity", "thm2", "--n-max", "3", "--k", "x..y"),
        ("verify", "--identity", "thm2", "--n-max", "3", "--k", "5..1"),
        ("verify", "--identity", "thm1", "--n-max", "3", "--x", "1;2"),
        ("verify", "--identity", "stirling-inversion", "--n-max", "3", "--x", "1"),
    ]
    for args in cases:
        code, _, err = run_cli(capsys, *args)
        assert code == 2, args
        assert err, args


def test_verify_a_range_without_points_is_a_usage_error(capsys):
    # thm3's domain starts at n = 1.
    code, out, err = run_cli(capsys, "verify", "--identity", "thm3", "--n-max", "0")
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        "polybern verify: error: identity 'thm3' has no point in the range "
        "n_max=0; k=-3,-2,-1,0,1,2,3; x=-2,0,1/2"
    ]
    # An --x with no point is the CLI's own check, before the library's.
    code, out, err = run_cli(capsys, "verify", "--identity", "thm1", "--n-max", "3", "--x", ",")
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "polybern verify: error: --x needs at least one rational"
    ]


def test_verify_flag_without_value_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "thm2", "--n-max", "2", "--k", "--x", "1"
    )
    assert code == 2
    assert "argument --k: expected one argument" in err
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm1", "--n-max", "2", "--x", "-1/2"
    )
    assert code == 0
    assert "range: n_max=2; x=-1/2" in out


def test_verify_negative_k_range_tokenizes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm3", "--n-max", "3", "--k", "-1..1",
        "--x", "-2,0",
    )
    assert code == 0
    assert "points checked: 18" in out


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3"])
def test_verify_x_takes_the_symbolic_point_as_reports_print_it(capsys, name):
    argv = ("verify", "--identity", name, "--n-max", "3", "--x", "1/2, x", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    payload = json.loads(out)
    report = polybernoulli.verify_identity(name, 3, xs=[F(1, 2), polynomial.X])
    assert payload["range"]["x"] == "1/2,x"
    assert payload["checked"] == report.checked and payload["points"] == report.total


@pytest.mark.parametrize("point", ["y", "X", "2*x", "x+1", "xx"])
def test_verify_x_takes_no_other_name(capsys, point):
    code, out, err = run_cli(capsys, "verify", "--identity", "thm1", "--n-max", "2", "--x", f"1/2,{point}")
    assert code == 2 and not out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"polybern verify: error: not a rational literal: {point!r}"]


# -- eval ---------------------------------------------------------------------


def test_eval_egf_example(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--expr", "t/log1p(t)", "--order", "3", "--egf"
    )
    assert code == 0
    assert out.strip().splitlines() == ["0: 1", "1: 1/2", "2: -1/6", "3: 1/4"]


def test_eval_raw_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--expr", "log1p(exp(t)-1)", "--order", "4"
    )
    assert code == 0
    assert out.strip().splitlines() == ["0: 0", "1: 1", "2: 0", "3: 0", "4: 0"]


def test_eval_failure_exits_one(capsys):
    code, _, err = run_cli(capsys, "eval", "--expr", "1/(t-t)", "--order", "2")
    assert code == 1
    assert "series quotient not a power series" in err


def test_eval_parse_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "eval", "--expr", "Li(t, t)", "--order", "2")
    assert code == 1
    assert "column 4" in err


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 3000 + "t" + ")" * 3000,
        "-" * 3000 + "t",
        "exp(" * 400 + "t" + ")" * 400,
        "+".join(["t"] * 3000),
    ],
    ids=["parentheses", "unary-minus", "nested-exp", "flat-sum"],
)
def test_eval_too_deep_exits_one(capsys, expr):
    code, out, err = run_cli(capsys, "eval", f"--expr={expr}", "--order", "4")
    assert code == 1 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: column ")
    assert "nested deeper than" in lines[0]


@pytest.mark.parametrize(
    "expr, message",
    [
        ("2^3000000", "error: column 3: exponent larger than 1000"),
        ("1 + " + "7" * 101, "error: column 5: integer literal longer than 100 digits"),
        ("(2^40)^40", "error: column 8: nested exponents multiply to more than 1000"),
        ("Li(100000000, t)", "error: column 4: Li order larger than 20000 in absolute value"),
    ],
    ids=["exponent", "literal", "power-of-power", "li-order"],
)
def test_eval_over_a_cap_exits_one(capsys, expr, message):
    code, out, err = run_cli(capsys, "eval", "--expr", expr, "--order", "0")
    assert code == 1 and not out
    assert err.strip().splitlines() == [message]


@pytest.mark.parametrize(
    "argv, too_big",
    [
        (("table", "--kind", "poly2nd", "-k", "20001", "-n", "2"), 20001),
        (("table", "--kind", "poly2nd", "-k", "-100000000", "-n", "2"), 100000000),
        (("verify", "--identity", "thm2", "--n-max", "2", "--k", "20001"), 20001),
        (("verify", "--identity", "thm2", "--n-max", "2", "--k", "-5..99999999999"), 99999999999),
        (("verify", "--identity", "thm3", "--n-max", "2", "--k", "-20001..0"), 20001),
    ],
    ids=["table", "table-huge", "verify", "verify-range-top", "verify-range-bottom"],
)
def test_k_over_the_cap_exits_two(capsys, argv, too_big):
    assert polybernoulli.MAX_ABS_K == 20000
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith(f"error: |k| must be at most 20000, not {too_big}")


@pytest.mark.parametrize(
    "argv, message, work",
    [
        (("table", "--kind", "bernoulli", "-n", "1001"), "--n-max must be at most 1000, not 1001", "_table_values"),
        (("verify", "--identity", "thm2", "--n-max", "51"), "--n-max must be at most 50, not 51", "verify_identity"),
        (("eval", "--expr", "t", "--order", "1001"), "--order must be at most 1000, not 1001", "eval_expr"),
    ],
    ids=["table-n", "verify-n-max", "eval-order"],
)
def test_size_over_its_cap_exits_two_before_any_work(capsys, monkeypatch, argv, message, work):
    assert (cli.MAX_TABLE_N, cli.MAX_VERIFY_N, cli.MAX_ORDER) == (1000, 50, 1000)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} called")

    owner = {"verify_identity": polybernoulli, "eval_expr": expr}.get(work, cli)
    monkeypatch.setattr(owner, work, forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")


def test_k_at_the_cap_runs(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "poly2nd", "-k", "20000", "-n", "1")
    assert code == 0 and not err
    # b_1^(k) = 2^(-k), 6,021 digits; Decimal spells it out without the
    # int/str limit.
    expected = format(decimal.Context(prec=7000).power(2, 20000), "f")
    assert out.splitlines() == ["n,value", "0,1", f"1,1/{expected}"]


def test_eval_prints_values_past_the_int_str_digit_limit(capsys):
    # Li_{-15000}(t) has t^2 coefficient 2^15000, 4,516 digits. Decimal
    # spells it out without the int/str limit, which the CLI restores.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run_cli(capsys, "eval", "--expr", "Li(-15000, t)", "--order", "2")
    assert limit() == before
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[:2] == ["0: 0", "1: 1"] and len(lines) == 3
    expected = format(decimal.Context(prec=5000).power(2, 15000), "f")
    assert len(expected) == 4516
    assert lines[2] == f"2: {expected}"


def test_eval_usage_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "--order", "2")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "eval", "--expr", "t", "--order", "-1")
    assert code == 2 and err


@pytest.mark.parametrize(
    "argv, error",
    [
        (("table", "--kind", "poly2nd", "-n", "3"), "polybern table: error: --kind poly2nd requires -k"),
        (("eval", "--expr", "t", "--order", "-1"), "polybern eval: error: --order must be >= 0"),
    ],
)
def test_a_command_usage_error_prints_that_commands_usage(capsys, argv, error):
    # The usage and prog of argparse's own errors for the same command.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: polybern {argv[0]} [-h]")
    assert [line for line in err.splitlines() if "error:" in line] == [error]


SEVENS = "7" * 4000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--kind", "poly2nd", "-k", "-3", "-n", "50", "--x", f"1/{SEVENS}"), None),
        (("table", "--kind", "bernoulli", "-n", "200", "--x", f"1/{SEVENS}"), None),
        (("table", "--kind", "bernoulli2nd", "-n", "3", "--x", "7" * 101), None),
        (("table", "--kind", "higher-order", "-n", "3", "--x", "-" + "7" * 5000), None),
        (("verify", "--identity", "thm1", "--n-max", "3", "--x", f"0,{SEVENS}/3"), None),
        (("verify", "--identity", "thm2", "--n-max", "3", "--k", "1" * 101), None),
        (("verify", "--identity", "thm2", "--n-max", "3", "--k", f"1..{'2' * 101}"), None),
        (("verify", "--identity", "thm2", "--n-max", "3", "--k", "\u0661..\u0662"), "not an integer or a..b range"),
        (("verify", "--identity", "thm2", "--n-max", "3", "--k", "\u0663"), "not an integer or a..b range"),
        (("verify", "--identity", "thm1", "--n-max", "3", "--x", "\u0661/2"), "not a rational literal"),
        (("table", "--kind", "bernoulli", "-n", "3", "--x", "\uff11/2"), "not a rational literal"),
        (("table", "--kind", "bernoulli", "-n", "\u0663"), "argument -n/--n-max: invalid int value: '\u0663'"),
        (("eval", "--expr", "t", "--order", "\uff12"), "argument --order: invalid int value: '\uff12'"),
        (("table", "--kind", "stirling2", "-n", "3", "--l", "\uff13"), "argument --l: invalid int value: '\uff13'"),
        (("verify", "--identity", "thm2", "--n-max", "\u0663"), "argument --n-max: invalid int value: '\u0663'"),
        (("table", "--kind", "poly2nd", "-k", "\u0662", "-n", "2"), "argument -k: invalid int value: '\u0662'"),
        (("table", "--kind", "bernoulli", "-n", "1_0"), "argument -n/--n-max: invalid int value: '1_0'"),
        (("table", "--kind", "poly2nd", "-k", SEVENS, "-n", "2"), "argument -k: integer literal longer than 100 digits"),
        (("eval", "--expr", "t", "--order", "2" * 101), "argument --order: integer literal longer than 100 digits"),
    ],
    ids=[
        "poly2nd-4000-digits", "bernoulli-4000-digits", "bernoulli2nd-101-digits",
        "higher-order-5000-digits", "verify-x-4000-digits", "verify-k-101-digits",
        "verify-k-range-101-digits", "verify-k-arabic-indic-range", "verify-k-arabic-indic",
        "verify-x-arabic-indic", "table-x-fullwidth", "table-n-arabic-indic", "eval-order-fullwidth",
        "table-l-fullwidth", "verify-n-max-arabic-indic", "table-k-arabic-indic", "table-n-underscore",
        "table-k-4000-digits", "eval-order-101-digits",
    ],
)
def test_literal_over_the_cap_or_not_ascii_exits_two_before_any_work(capsys, monkeypatch, argv, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("poly_b2nd_values", "verify_identity"):
        monkeypatch.setattr(polybernoulli, name, forbidden)
    monkeypatch.setattr(gf, "poly_b2nd_values", forbidden)
    for name in ("bernoulli_numbers", "bernoulli_values", "bernoulli2nd_values", "higher_order_bernoulli_poly"):
        monkeypatch.setattr(bernoulli, name, forbidden)
    monkeypatch.setattr(expr, "eval_expr", forbidden)
    monkeypatch.setattr(combinatorics, "stirling2", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    expected = message or "integer literal longer than 100 digits"
    assert f"error: {expected}" in errors[0]
    assert "set_int_max_str_digits" not in err


def test_literals_at_the_digit_cap_run(capsys):
    big, den = "7" * 100, "1" + "3" * 99
    code, out, err = run_cli(capsys, "table", "--kind", "bernoulli", "-n", "1", "--x", f"-{big}/{den}")
    assert code == 0 and not err
    assert parse_csv(out) == [(0, F(1)), (1, F(-int(big), int(den)) - F(1, 2))]
    code, out, err = run_cli(capsys, "verify", "--identity", "thm2", "--n-max", "1", "--k", "0..2", "--x", f"0,{big}")
    assert code == 0 and not err
    assert "range: n_max=1; k=0,1,2; x=0," + big in out
    code, out, err = run_cli(capsys, "table", "--kind", "poly2nd", "-k", "-" + "0" * 99 + "2", "-n", "1")
    assert code == 0 and not err
    assert out.splitlines() == ["n,value", "0,1", "1,4"]  # b_1^(k) = 2^(-k)


# -- process-level smoke -------------------------------------------------------


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polybern", "table", "--kind", "bernoulli", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["n,value", "0,1", "1,-1/2", "2,1/6"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expr", "exp(t)", "--order", "1000"],
        ["verify", "--identity", "thm2", "--n-max", "20", "--format", "json"],
    ],
)
def test_a_closed_stdout_exits_one_without_a_traceback(argv):
    # Each output is larger than a pipe's buffer, so the command is still
    # writing when the reader closes the pipe after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "polybern", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


def test_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, polybern.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and err
