from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import falling_coeffs, monomial_from_falling, pascal_row, set_partition_count
from polybern.combinatorics import (
    binomial,
    falling_factorial_at,
    falling_factorial_poly,
    stirling1,
    stirling2,
    stirling1_row,
    stirling2_row,
    to_falling_basis,
    to_monomial_basis,
)
from polybern.polynomial import Polynomial, X


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(10, 5) == 252 == pascal_row(10)[5]
    assert binomial(4, 9) == 0
    assert binomial(4, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_pascal_recurrence():
    for n in range(13):
        row = pascal_row(n)
        assert [binomial(n, k) for k in range(n + 1)] == row


def test_falling_factorial_poly_examples():
    assert falling_factorial_poly(0) == Polynomial.constant(1)
    assert falling_factorial_poly(1) == X
    expanded = falling_factorial_poly(4)
    assert expanded == X ** 4 - 6 * X ** 3 + 11 * X ** 2 - 6 * X
    assert list(expanded.coeffs) == falling_coeffs(4)[: len(expanded.coeffs)]


def test_falling_factorial_at_examples():
    assert falling_factorial_at(F(7, 3), 0) == 1
    assert falling_factorial_at(3, 3) == 6
    assert falling_factorial_at(F(1, 2), 2) == F(-1, 4)
    with pytest.raises(ValueError):
        falling_factorial_at(1, -1)


def test_stirling2_examples_and_brute_force():
    assert stirling2(6, 6) == 1
    assert stirling2(3, 2) == 3 == set_partition_count(3, 2)
    assert stirling2(4, 2) == 7 == set_partition_count(4, 2)
    for n in range(9):
        for l in range(n + 1):
            assert stirling2(n, l) == set_partition_count(n, l)
    assert stirling2(5, 9) == 0
    assert stirling2(5, -1) == 0


def test_stirling1_matches_falling_factorial_expansion():
    assert stirling1(6, 6) == 1
    assert stirling1(4, 2) == 11
    assert stirling1(4, 1) == -6
    for n in range(11):
        expansion = falling_coeffs(n)
        for l in range(n + 1):
            assert stirling1(n, l) == expansion[l]


def test_triangle_structure():
    for kind, fn in (("second", stirling2), ("first-signed", stirling1)):
        assert fn(0, 0) == 1
        for n in range(1, 31):
            row = [fn(n, l) for l in range(n + 1)]
            assert row[0] == 0
            assert row[n] == 1
            for l, value in enumerate(row):
                if kind == "second":
                    assert value >= 0
                elif value != 0:
                    sign = 1 if (n - l) % 2 == 0 else -1
                    assert (value > 0) == (sign > 0)
        with pytest.raises(ValueError):
            fn(-1, 0)


def test_stirling_inversion():
    for n in range(31):
        for m in range(n + 1):
            total = sum(
                (stirling2(n, l) * stirling1(l, m) for l in range(m, n + 1)),
                F(0),
            )
            assert total == (1 if n == m else 0)


def test_monomials_expand_in_falling_basis_at_integer_points():
    # x^n = sum_l S2(n, l) (x)_l, checked as an evaluation identity.
    for n in range(9):
        for x in range(n + 1):
            total = sum(
                (stirling2(n, l) * falling_factorial_at(x, l) for l in range(n + 1)),
                F(0),
            )
            assert total == F(x) ** n


def test_basis_conversion_examples():
    assert to_falling_basis(X * X) == [F(0), F(1), F(1)]
    assert to_falling_basis(Polynomial.constant(5)) == [F(5)]
    assert to_falling_basis(falling_factorial_poly(3)) == [F(0), F(0), F(0), F(1)]
    assert to_monomial_basis([F(0), F(1), F(1)]) == X * X
    assert to_monomial_basis([F(7, 2)]) == Polynomial.constant(F(7, 2))
    assert to_monomial_basis([]) == Polynomial(())


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=20),
        min_size=1,
        max_size=13,
    )
)
def test_basis_conversions_are_mutually_inverse(coeffs):
    p = Polynomial(tuple(coeffs))
    assert to_monomial_basis(to_falling_basis(p)) == p
    d = [F(c) for c in coeffs]
    # Trailing zeros in d vanish in the polynomial, so compare after a
    # round trip through the polynomial side.
    q = to_monomial_basis(d)
    assert to_monomial_basis(to_falling_basis(q)) == q


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=40), max_size=16))
def test_monomial_basis_matches_the_fraction_loop(d):
    p = to_monomial_basis(d)
    assert all(type(c) is F for c in p.coeffs)
    assert p == Polynomial(tuple(monomial_from_falling(d)))


def test_stirling_values_are_fractions_over_int_rows():
    assert to_monomial_basis([F(5, 3)]).coeffs == (F(5, 3),)
    assert type(stirling1(6, 2)) is F and type(stirling2(6, 2)) is F
    assert stirling2_row(0) == (1,)
    assert stirling2_row(5) == (0, 1, 15, 25, 10, 1)
    assert all(type(s) is int for s in stirling2_row(12))
    with pytest.raises(ValueError):
        stirling2_row(-1)
    assert stirling1_row(5) == (0, 24, -50, 35, -10, 1)
    assert all(type(s) is int for s in stirling1_row(12))
    with pytest.raises(ValueError):
        stirling1_row(-1)
