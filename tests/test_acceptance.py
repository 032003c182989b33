"""Acceptance suite: one test per criterion, every comparison exact
(tolerance zero), one printed pass/fail line each, wall-clock bound asserted.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from oracles import set_partition_count
from polybern import bernoulli, polybernoulli
from polybern.cli import main
from polybern.combinatorics import (
    falling_factorial_poly,
    to_falling_basis,
    to_monomial_basis,
)
from polybern.polynomial import Polynomial, X
from polybern.series import (
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
    pow1p_series,
    t_series,
)


@contextmanager
def criterion(num, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_seconds
    status = "PASS" if in_budget else "FAIL (over time budget)"
    print(
        f"criterion {num:2d}: {status} ({elapsed:.2f}s, budget {budget_seconds}s)"
        f" - {description}"
    )
    assert in_budget, f"criterion {num} took {elapsed:.2f}s >= {budget_seconds}s"


def cli_lines(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


def test_criterion_01_small_value_agreement(capsys):
    with criterion(1, 1.0, "second-kind values match the classical list in both conventions"):
        code, ogf = cli_lines(
            capsys, "table", "--kind", "bernoulli2nd", "-n", "5", "--convention", "ogf"
        )
        assert code == 0
        assert ogf == [
            "n,value",
            "0,1",
            "1,1/2",
            "2,-1/12",
            "3,1/24",
            "4,-19/720",
            "5,3/160",
        ]
        code, egf = cli_lines(capsys, "table", "--kind", "bernoulli2nd", "-n", "5")
        assert code == 0
        for n in range(6):
            raw = F(ogf[n + 1].split(",")[1])
            scaled = F(egf[n + 1].split(",")[1])
            assert scaled == math.factorial(n) * raw
        # b_0 and b_1 agree across conventions (0! = 1! = 1).
        assert ogf[1:3] == egf[1:3] == ["0,1", "1,1/2"]


def test_criterion_02_theorem1_equals_gf():
    with criterion(2, 10.0, "k=2 closed formula == generating function (numeric + symbolic)"):
        points = [F(0), F(1), F(-1), F(1, 2)]
        report = polybernoulli.verify_identity("thm1", 25, xs=points)
        assert report.passed and report.total == 26 * 4
        symbolic = polybernoulli.poly_b2nd_values(15, 2, X)
        for n in range(16):
            assert polybernoulli.poly_b2nd_theorem1(n, X) == symbolic[n]


def test_criterion_03_theorem2_equals_gf():
    with criterion(3, 60.0, "all-k closed formula == generating function; thm1 == thm2 at k=2"):
        points = [F(0), F(1), F(-1), F(1, 2)]
        report = polybernoulli.verify_identity(
            "thm2", 25, ks=range(-5, 6), xs=points
        )
        assert report.passed and report.total == 26 * 11 * 4
        for n in range(26):
            for x in points:
                assert (
                    polybernoulli.poly_b2nd_theorem1(n, x)
                    == polybernoulli.poly_b2nd_theorem2(n, 2, x)
                )


def test_criterion_04_theorem3_forward_difference():
    with criterion(4, 30.0, "forward difference == double sum (n<=20, k in -3..3)"):
        report = polybernoulli.verify_identity("thm3", 20)
        assert report.passed
        assert report.total == 20 * 7 * 3
        assert report.range_spec["x"] == "-2,0,1/2"


def test_criterion_05_theorem4_addition_grid():
    with criterion(5, 30.0, "addition formula on (n+1)x(n+1) rational grids (n<=10)"):
        report = polybernoulli.verify_identity("thm4", 10)
        assert report.passed
        assert report.total == 6 * sum((n + 1) ** 2 for n in range(11))


def test_criterion_06_k1_reduction():
    with criterion(6, 5.0, "k=1 table equals second-kind polynomials, symbolically (n<=20)"):
        report = polybernoulli.verify_identity("eq9", 20)
        assert report.passed and report.total == 21


def test_criterion_07_higher_order_bridge():
    with criterion(7, 10.0, "b_n(x) == B_n^(n)(x+1) as exact polynomials (n<=20)"):
        report = polybernoulli.verify_identity("b-equals-higher-order", 20)
        assert report.passed and report.total == 21


def test_criterion_08_stirling_structure():
    with criterion(8, 5.0, "Stirling inversion, brute-force counts, basis round trips"):
        report = polybernoulli.verify_identity("stirling-inversion", 30)
        assert report.passed and report.total == sum(n + 1 for n in range(31))

        from polybern.combinatorics import stirling2

        for n in range(9):
            for l in range(n + 1):
                assert stirling2(n, l) == set_partition_count(n, l)

        rng = random.Random(8)
        for _ in range(25):
            degree = rng.randint(0, 12)
            coeffs = tuple(
                F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(degree + 1)
            )
            p = Polynomial(coeffs)
            assert to_monomial_basis(to_falling_basis(p)) == p
        # And the falling-basis side: (x)_3 has basis vector e_3.
        assert to_falling_basis(falling_factorial_poly(3)) == [F(0), F(0), F(0), F(1)]


def test_criterion_09_series_engine_soundness():
    with criterion(9, 5.0, "div/mul round trips, compose inverses, pow1p product law (order<=20)"):
        rng = random.Random(9)

        def random_series(order):
            return TruncatedSeries(
                tuple(
                    F(rng.randint(-8, 8), rng.randint(1, 9))
                    for _ in range(order + 1)
                )
            )

        for order in (0, 1, 5, 12, 20):
            for _ in range(5):
                num = random_series(order)
                den = random_series(order)
                if den.coeffs[0] == 0:
                    den = den + constant_series(F(1), order)
                assert num.div_unit(den) * den == num

        for order in range(21):
            expm1 = exp_series(F(1), order) - constant_series(F(1), order)
            assert log1p_series(order).compose(expm1) == t_series(order)
            assert expm1.compose(log1p_series(order)) == t_series(order)

        pairs = [
            (F(1, 2), F(1, 3)),
            (F(-3, 4), F(5, 2)),
            (F(7), F(-2, 5)),
            (F(0), F(-11, 3)),
        ]
        for a, b in pairs:
            assert pow1p_series(a, 20) * pow1p_series(b, 20) == pow1p_series(a + b, 20)


def test_criterion_10_cli_end_to_end(capsys, monkeypatch):
    with criterion(10, 5.0, "CLI tables, verify pass/forced-fail/usage exit codes"):
        code, lines = cli_lines(capsys, "table", "--kind", "poly2nd", "-k", "2", "-n", "2")
        assert code == 0 and lines == ["n,value", "0,1", "1,1/4", "2,-13/36"]

        code, lines = cli_lines(capsys, "table", "--kind", "bernoulli", "-n", "2")
        assert code == 0 and lines == ["n,value", "0,1", "1,-1/2", "2,1/6"]

        code, lines = cli_lines(capsys, "table", "--kind", "bernoulli2nd", "-n", "1")
        assert code == 0 and lines == ["n,value", "0,1", "1,1/2"]

        code = main(["verify", "--identity", "thm2", "--n-max", "8", "--k", "-2..2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: PASS" in out

        # Forced failure: a deliberately wrong identity fixture must exit 1.
        def broken_checker(n_max, ks, xs):
            yield (0,), F(0), F(1)

        spec = polybernoulli.IDENTITIES["eq2"]
        monkeypatch.setitem(
            polybernoulli.IDENTITIES,
            "eq2",
            spec._replace(checker=broken_checker, params=("n",)),
        )
        code = main(["verify", "--identity", "eq2", "--n-max", "0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "status: FAIL" in out and "first counterexample" in out

        code = main(["table", "--kind", "poly2nd", "-n", "2"])  # missing -k
        assert code == 2
        err = capsys.readouterr().err
        assert "poly2nd requires -k" in err
