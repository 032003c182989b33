from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import horner
from polybern.polynomial import MAX_CACHED_K, ONE, ZERO, Polynomial, X, common_denominator, grown


def test_canonical_form_strips_trailing_zeros():
    p = Polynomial((F(1), F(0), F(0)))
    assert p.coeffs == (F(1),)
    assert p.degree == 0
    assert Polynomial((0, 0, 0)).is_zero
    assert ZERO.degree == -1


def test_arithmetic():
    assert (X + 1) * (X - 1) == X * X - 1
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    assert X - X == ZERO
    assert 2 * X == X + X
    assert (X * X - X) / 2 == Polynomial((0, F(-1, 2), F(1, 2)))
    assert 3 - X == -X + 3
    assert F(1, 2) - X * X == Polynomial((F(1, 2), 0, -1))


def test_evaluation_is_exact():
    p = X * X - F(1, 6)
    assert p(F(1, 2)) == F(1, 12)
    assert p(F(-3, 7)) == F(9, 49) - F(1, 6)
    assert ZERO(F(5)) == 0


def test_substitution_shifts_argument():
    # (x+1)^2 - 2(x+1) + 5/6 collapses to x^2 - 1/6
    p = X * X - 2 * X + F(5, 6)
    assert p(X + 1) == X * X - F(1, 6)
    assert p(X) is p


def test_division_restrictions():
    with pytest.raises(ValueError):
        (X + 1) / X
    with pytest.raises(ZeroDivisionError):
        (X + 1) / 0
    assert (X + 1) / Polynomial.constant(2) == F(1, 2) * X + F(1, 2)


def test_constant_polynomials_compare_with_numbers():
    assert Polynomial.constant(F(3, 4)) == F(3, 4)
    assert Polynomial.constant(2) == 2
    assert ONE == 1
    assert ZERO == 0
    assert X != 1
    assert hash(Polynomial.constant(F(3, 4))) == hash(F(3, 4))


def test_pow_requires_non_negative_integer():
    with pytest.raises(ValueError):
        X ** -1


def test_str_rendering():
    assert str(X * X - F(1, 6)) == "x^2 - 1/6"
    assert str(X + F(1, 2)) == "x + 1/2"
    assert str(ZERO) == "0"
    assert str(Polynomial.constant(F(-3, 2))) == "-3/2"
    assert str(-2 * X) == "-2*x"


def test_coefficient_access():
    p = X ** 3 - 6 * X ** 2 + 11 * X
    assert p.coefficient(2) == -6
    assert p.coefficient(7) == 0
    assert p.constant_term == 0


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@given(st.lists(rationals, max_size=13))
def test_common_denominator_round_trips_over_the_least_denominator(values):
    nums, den = common_denominator(values)
    assert all(type(c) is int for c in nums) and type(den) is int and den >= 1
    assert [F(c, den) for c in nums] == values
    # Least: no proper divisor den / p clears every denominator.
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        if den % p == 0:
            assert any((v * (den // p)).denominator != 1 for v in values)


def test_common_denominator_edge_cases():
    assert common_denominator([]) == ([], 1)
    assert common_denominator([0, 3, -2]) == ([0, 3, -2], 1)
    assert common_denominator([F(1, 6), F(-3, 4), 2]) == ([2, -9, 24], 12)


@given(st.lists(rationals, max_size=13), rationals)
def test_evaluation_matches_fraction_horner(coeffs, x):
    value = Polynomial(tuple(coeffs))(x)
    assert type(value) is F
    assert value == horner(coeffs, x)


def test_evaluation_edge_points():
    p = 3 * X**3 - F(1, 2) * X + F(2, 3)
    for x in (0, 5, -4, F(0), F(-7, 3)):
        for q in (ZERO, Polynomial.constant(F(-5, 4)), ONE, p):
            value = q(x)
            assert type(value) is F
            assert value == horner(list(q.coeffs), F(x))
    assert ZERO(F(2, 3)) == 0 and p(0) == F(2, 3) and p(-1) == F(-11, 6)


def test_evaluation_puts_the_coefficients_over_their_denominator_once(monkeypatch):
    from polybern import polynomial

    calls = []
    original = polynomial.common_denominator

    def counted(values):
        calls.append(1)
        return original(values)

    monkeypatch.setattr(polynomial, "common_denominator", counted)
    p = F(3, 4) * X**3 - F(1, 6) * X + F(2, 5)
    for x in (F(1, 2), F(-7, 3), 5, F(0)):
        assert p(x) == horner(list(p.coeffs), F(x))
    assert len(calls) == 1


# -- the grow-only cache -------------------------------------------------------


class Interrupted(Exception):
    pass


def fibonacci(n):
    out = [1, 1][: n + 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return tuple(out)


@given(st.lists(st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(0, 30))), max_size=20))
def test_grown_holds_one_fresh_build_whatever_the_calls(calls):
    # A toy recurrence continued from the stored prefix; a call whose builder
    # raises at some term leaves the cache as it was.
    cache = {}

    def more(prefix, n, fail):
        seq = list(prefix)
        for m in range(len(prefix), n + 1):
            if m == fail:
                raise Interrupted
            seq.append(seq[-1] + seq[-2] if m > 1 else 1)
            yield seq[-1]

    for n, fail in calls:
        before = dict(cache)
        try:
            got = grown(cache, "key", n, lambda prefix, n: more(prefix, n, fail))
        except Interrupted:
            assert cache == before
            assert len(before.get("key", ())) <= fail <= n
        else:
            assert got[: n + 1] == fibonacci(n)
            assert len(cache["key"]) == max(len(before.get("key", ())), n + 1)
        held = cache.get("key", ())
        assert held == fibonacci(len(held) - 1)[: len(held)]


def test_grown_calls_no_builder_for_a_stored_prefix_and_keeps_the_latest_keys():
    def refuse(prefix, n):
        raise AssertionError("built again")

    cache = {}
    for key in range(3 * MAX_CACHED_K):
        assert grown(cache, key, 4, lambda prefix, n: range(len(prefix), n + 1)) == tuple(range(5))
    assert list(cache) == list(range(2 * MAX_CACHED_K, 3 * MAX_CACHED_K))
    assert grown(cache, 3 * MAX_CACHED_K - 1, 2, refuse) == tuple(range(5))


def test_grown_keeps_a_longer_prefix_stored_meanwhile():
    # A builder that grows its own key further, as a concurrent caller
    # would, leaves the longer prefix in place.
    cache = {}

    def more(prefix, n):
        grown(cache, "key", 9, lambda p, m: range(len(p), m + 1))
        return range(len(prefix), n + 1)

    assert grown(cache, "key", 3, more) == tuple(range(10))
    assert cache["key"] == tuple(range(10))
