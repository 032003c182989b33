"""Cross-checks against SymPy, an implementation outside this package.

Skipped when SymPy is not installed.
"""

from fractions import Fraction as F

import pytest

from polybern.bernoulli import bernoulli2nd_numbers, bernoulli_numbers
from polybern.combinatorics import stirling1, stirling2
from polybern.polybernoulli import _gf_values

sympy = pytest.importorskip("sympy")
stirling = sympy.functions.combinatorial.numbers.stirling


def as_fraction(value):
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


def test_bernoulli_numbers_match_sympy():
    ours = bernoulli_numbers(200)
    # Recent SymPy returns B_1 = +1/2; this package reads t/(e^t - 1), so B_1 = -1/2.
    assert ours[1] == F(-1, 2)
    for n in range(201):
        if n != 1:
            assert ours[n] == as_fraction(sympy.bernoulli(n)), n


@pytest.mark.parametrize("n", range(0, 201, 20))
def test_stirling_rows_match_sympy(n):
    for m in range(n + 1):
        assert stirling1(n, m) == as_fraction(stirling(n, m, kind=1, signed=True)), (n, m)
        assert stirling2(n, m) == as_fraction(stirling(n, m, kind=2)), (n, m)


def test_bernoulli2nd_numbers_are_integrals_of_falling_factorials():
    # b_n = int_0^1 (x)_n dx = sum_m s(n, m) / (m + 1), s signed first kind.
    ours = bernoulli2nd_numbers(100)
    for n in range(101):
        expected = sum(
            as_fraction(stirling(n, m, kind=1, signed=True)) / (m + 1) for m in range(n + 1)
        )
        assert ours[n] == expected, n


def _sympy_gf(n, k):
    """Raw t^0..t^n coefficients of Li_k(1 - e^(-t)) / log(1+t), from SymPy's
    ring series with Li_k(f) = sum_m f^m / m^k summed term by term."""
    from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_series_inversion

    ring, t = sympy.polys.rings.ring("t", sympy.QQ)
    prec = n + 2
    f = 1 - rs_exp(-t, t, prec)
    li, power = ring(0), ring(1)
    for m in range(1, prec):
        power = rs_mul(power, f, t, prec)
        li += power * sympy.QQ(m) ** (-k)
    log = rs_log(1 + t, t, prec)
    q = rs_mul(li.exquo(t), rs_series_inversion(log.exquo(t), t, n + 1), t, n + 1)
    return [F(int(q[(i,)].numerator), int(q[(i,)].denominator)) for i in range(n + 1)]


@pytest.mark.parametrize("k", range(-3, 4))
def test_gf_values_match_sympy_ring_series(k):
    # Every order from 0 to 30: the small ones take Horner's compose for
    # |k| >= order, the rest the polylog ODE.
    expected = _sympy_gf(30, k)
    for n in range(31):
        assert list(_gf_values(n, k).coeffs) == expected[: n + 1], (n, k)
