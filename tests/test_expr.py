import importlib
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import naive_div
from polybern.expr import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    BinOp,
    Call,
    Const,
    EvalError,
    ParseError,
    Pow,
    Var,
    eval_expr,
    parse_expr,
)
from polybern.polybernoulli import MAX_ABS_K
from polybern.series import constant_series, t_series


def ev(text, order):
    return eval_expr(parse_expr(text), order)


# -- parsing -----------------------------------------------------------------


def test_parse_division_ast():
    assert parse_expr("t / log1p(t)") == BinOp("div", Var(), Call("log1p", (Var(),)))


def test_parse_gf_expression_ast():
    ast = parse_expr("Li(2, 1 - exp(-t)) / log1p(t)")
    assert isinstance(ast, BinOp) and ast.op == "div"
    li = ast.left
    assert isinstance(li, Call) and li.name == "Li"
    assert li.args[0] == 2
    inner = li.args[1]
    assert inner == BinOp(
        "sub", Const(F(1)), Call("exp", (BinOp("mul", Const(F(-1)), Var()),))
    )
    assert ast.right == Call("log1p", (Var(),))


def test_parse_precedence_and_associativity():
    assert parse_expr("1+2*t^2") == BinOp(
        "add", Const(F(1)), BinOp("mul", Const(F(2)), Pow(Var(), 2))
    )
    # Left associativity: t - t - t == (t - t) - t.
    assert ev("t-t-t", 2) == -t_series(2)
    # Unary minus binds looser than ^: -t^2 is -(t^2).
    assert ev("-t^2", 2).coeffs == (F(0), F(0), F(-1))


def test_parse_rational_literals_fold():
    assert parse_expr("3/4") == Const(F(3, 4))
    assert parse_expr("1 / 2") == Const(F(1, 2))
    assert parse_expr("-1/2") == BinOp("mul", Const(F(-1)), Const(F(1, 2)))
    # Folding happens at the atom, so 2/3^2 squares the literal 2/3.
    assert parse_expr("2/3^2") == Pow(Const(F(2, 3)), 2)
    assert ev("2/3^2", 0).coeffs == (F(4, 9),)
    # No folding when the denominator is not an integer literal.
    assert parse_expr("1/(t-t)") == BinOp(
        "div", Const(F(1)), BinOp("sub", Var(), Var())
    )


def test_parse_li_rejects_non_literal_order():
    with pytest.raises(ParseError, match="Li order must be an integer literal") as exc:
        parse_expr("Li(t, t)")
    assert exc.value.column == 4


def test_parse_li_accepts_negative_order():
    ast = parse_expr("Li(-2, t)")
    assert ast == Call("Li", (-2, Var()))
    assert ev("Li(-2, t)", 3).coeffs == (F(0), F(1), F(4), F(9))


def test_parse_pow1p():
    assert parse_expr("pow1p(1/2)") == Call("pow1p", (F(1, 2),))
    assert ev("pow1p(1/2)", 2).coeffs == (F(1), F(1, 2), F(-1, 8))
    assert ev("pow1p(-1)", 2).coeffs == (F(1), F(-1), F(1))
    assert ev("pow1p(1/3)*pow1p(2/3)", 3) == ev("pow1p(1)", 3)
    with pytest.raises(ParseError, match="rational literal"):
        parse_expr("pow1p(t)")


def test_parse_errors_report_columns():
    cases = {
        "": 1,
        "t +": 4,
        "(t": 3,
        "t)": 2,
        "foo(t)": 1,
        "t^-1": 3,
        "t^t": 3,
        "1/0": 3,
        "t @ 2": 3,
        "Li(2 t)": 6,
        "exp(]": 5,
    }
    for text, column in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert exc.value.column == column, text
        assert f"column {column}" in str(exc.value)


def test_parse_rejects_fuzz_corpus():
    corpus = [
        "(",
        ")",
        "* t",
        "t *",
        "Li(2)",
        "Li(2,)",
        "Li(, t)",
        "exp()",
        "exp(t",
        "log1p t",
        "1/",
        "t^",
        "t^(2)",
        "t t",
        "1..2",
        "((t)",
        "t))",
        "2 2",
        "Li(1-exp(-t), 2)",
        "pow1p()",
        "_weird",
        "t-",
        "-",
        "^2",
        "1.5",
        "t/*t",
    ]
    for text in corpus:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert exc.value.column >= 1, text


@given(st.text(max_size=40))
def test_parser_never_crashes(text):
    try:
        parse_expr(text)
    except ParseError as exc:
        assert exc.column >= 1


def test_exponent_cap():
    assert parse_expr(f"t^{MAX_EXPONENT}") == Pow(Var(), MAX_EXPONENT)
    with pytest.raises(ParseError, match=f"exponent larger than {MAX_EXPONENT}") as exc:
        parse_expr(f"2^{MAX_EXPONENT + 1}")
    assert exc.value.column == 3
    with pytest.raises(ParseError, match="exponent larger") as exc:
        parse_expr("(1+t)^3000000")
    assert exc.value.column == 7


def test_li_order_cap():
    assert parse_expr(f"Li(-{MAX_ABS_K}, t)") == Call("Li", (-MAX_ABS_K, Var()))
    for text, column in [
        (f"Li({MAX_ABS_K + 1}, t)", 4),
        ("Li(100000000, t)", 4),
        (f"1 + Li(-{MAX_ABS_K + 1}, t)", 8),
    ]:
        with pytest.raises(ParseError, match=f"Li order larger than {MAX_ABS_K}") as exc:
            parse_expr(text)
        assert exc.value.column == column, text


def test_nested_exponents_multiply_under_the_cap():
    # (2^10)^10 is 2^100 and ((1+t)^2)^3 is (1+t)^6: both multiply to at most
    # MAX_EXPONENT and still evaluate.
    assert ev("(2^10)^10", 0).coeffs == (F(2**100),)
    assert ev("((1+t)^2)^3", 6) == ev("(1+t)^6", 6)
    assert parse_expr(f"(t^{MAX_EXPONENT})^1") == Pow(Pow(Var(), MAX_EXPONENT), 1)
    assert parse_expr("((2^1000)^0)^1000") == Pow(Pow(Pow(Const(F(2)), 1000), 0), 1000)
    for text, column in [
        ("(2^40)^40", 8),
        ("(2^1000)^1000", 10),
        ("((2^10)^10)^11", 13),
        # The chain runs through sums, products, calls and unary minus.
        ("(1 + 2^40 * t)^40", 16),
        ("(exp(t^40))^40", 13),
        ("(-(2^501))^2", 12),
    ]:
        with pytest.raises(ParseError, match=f"multiply to more than {MAX_EXPONENT}") as exc:
            parse_expr(text)
        assert exc.value.column == column, text


def test_series_eval_workload_expressions_parse(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    texts = [
        op.argv[op.argv.index("--expr") + 1]
        for seed in range(1, 11)
        for op in workloads.ops_for("series-eval", seed)
        if not op.known_fault
    ]
    assert len(texts) == 60
    for text in texts:
        parse_expr(text)


def test_literal_digit_cap():
    digits = "9" * MAX_LITERAL_DIGITS
    assert parse_expr(digits) == Const(F(int(digits)))
    for text, column in [
        ("t + " + digits + "9", 5),
        ("1/" + digits + "9", 3),
        ("Li(" + digits + "9, t)", 4),
        ("t^" + digits + "9", 3),
    ]:
        with pytest.raises(ParseError, match=f"longer than {MAX_LITERAL_DIGITS} digits") as exc:
            parse_expr(text)
        assert exc.value.column == column, text


@pytest.mark.parametrize("text, column", [("²", 1), ("t^²", 3)])
def test_parser_rejects_non_ascii_digits(text, column):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.column == column


def test_parser_depth_limit_boundary():
    # MAX_DEPTH open parentheses (or calls, or unary minus signs) parse; one
    # more is an error at the opening that crosses the limit.
    assert parse_expr("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH) == Var()
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_expr("(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1))
    assert exc.value.column == MAX_DEPTH + 1
    assert ev("-" * MAX_DEPTH + "t", 2) == t_series(2)
    assert ev("log1p(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, 1) == t_series(1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expr("exp(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1))


def test_parser_tree_height_limit():
    # A flat sum of n terms is a tree n-1 operators tall.
    assert ev("+".join(["t"] * (MAX_DEPTH + 1)), 1).coeffs == (F(0), F(MAX_DEPTH + 1))
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_expr("+".join(["t"] * (MAX_DEPTH + 2)))
    assert exc.value.column == 2 * (MAX_DEPTH + 1)


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert ev("t/log1p(t)", 2).coeffs == (F(1), F(1, 2), F(-1, 12))
    assert ev("exp(t)*exp(-t)", 6) == constant_series(F(1), 6)
    assert ev("Li(2, 1-exp(-t))/log1p(t)", 2).coeffs == (F(1), F(1, 4), F(-13, 72))
    assert ev("log1p(exp(t)-1)", 4) == t_series(4)


def test_eval_unit_denominator_matches_the_naive_quotient():
    # A denominator with a nonzero constant term divides without a shift,
    # as in the benchmark's exp(a*t) / (1 - b*t)^2.
    order = 9
    num = [F(2) ** j / F(math.factorial(j)) for j in range(order + 1)]
    den = [F(1), F(-6), F(9)] + [F(0)] * (order - 2)
    assert list(ev("exp(2*t)/(1-3*t)^2", order).coeffs) == naive_div(num, den, order)


def test_eval_zero_denominator():
    with pytest.raises(EvalError, match="series quotient not a power series"):
        ev("1/(t-t)", 2)


def test_eval_valuation_mismatch():
    with pytest.raises(EvalError, match="series quotient not a power series"):
        ev("t/t^2", 3)


def test_eval_zero_numerator():
    assert ev("(t-t)/t", 3) == constant_series(F(0), 3)


def test_eval_pads_after_valuation_shifts():
    # Each division costs one order internally; the result still comes back
    # at the requested order.
    assert ev("t^3/t^3", 4) == constant_series(F(1), 4)
    assert ev("(t/log1p(t)) * (log1p(t)/t)", 5) == constant_series(F(1), 5)
    assert ev("t/log1p(t)", 0).coeffs == (F(1),)


def test_eval_composition_requires_zero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        ev("exp(1+t)", 3)
    with pytest.raises(ValueError, match="zero constant term"):
        ev("Li(2, 1+t)", 3)
    with pytest.raises(ValueError, match="zero constant term"):
        ev("log1p(1)", 3)


def test_eval_rejects_negative_order():
    with pytest.raises(ValueError, match="order"):
        eval_expr(parse_expr("t"), -1)


def test_eval_powers_and_constants():
    assert ev("t^0", 3) == constant_series(F(1), 3)
    assert ev("(1+t)^3", 3).coeffs == (F(1), F(3), F(3), F(1))
    assert ev("5", 2) == constant_series(F(5), 2)
