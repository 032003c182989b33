import math
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import naive_div, naive_mul, one_minus_exp_neg_coeffs
from polybern.polynomial import Polynomial, X, common_denominator
from polybern.series import (
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
    pow1p_row,
    pow1p_series,
    t_series,
)


def series(*coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


def one(order):
    return constant_series(F(1), order)


def t_over_log1p(order):
    return t_series(order + 1) / log1p_series(order + 1)


# -- constructors ---------------------------------------------------------


def test_constructor_examples():
    s = TruncatedSeries([1, 0, 0])
    assert s.coeffs == (F(1), F(0), F(0)) and s.order == 2
    assert TruncatedSeries([0, 1]).coeffs == (F(0), F(1))

    # First Gregory coefficients, via the independent unit-division route:
    # divide 1 by log(1+t)/t instead of t by log(1+t).
    log1p_over_t = TruncatedSeries(log1p_series(3).coeffs[1:])
    oracle = one(2) / log1p_over_t
    frozen = TruncatedSeries([F(1), F(1, 2), F(-1, 12)])
    assert oracle == frozen


def test_division_by_a_zero_series_raises_zero_division():
    for order in (0, 2):
        with pytest.raises(ZeroDivisionError, match="series division by zero"):
            one(order) / constant_series(F(0), order)
        with pytest.raises(ZeroDivisionError):
            constant_series(F(0), order) / constant_series(F(0), order)


def test_add_examples():
    assert series(1, 1) + series(1, -1) == series(2, 0)
    s = series(3, -4, F(1, 7))
    assert s + constant_series(F(0), 2) == s
    minus_t = -t_series(3)
    assert log1p_series(3) + minus_t == series(0, 0, F(-1, 2), F(1, 3))


def test_mul_examples():
    assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)
    s = series(2, F(1, 3), -5)
    assert s * one(2) == s
    # Inverse pair: (t/log(1+t)) * (log(1+t)/t) == 1 through t^6.
    a = t_over_log1p(6)
    b = log1p_series(7) / t_series(7)
    assert a * b == one(6)


def test_div_unit_examples():
    geom = one(3).div_unit(series(1, -1, 0, 0))
    assert geom == series(1, 1, 1, 1)
    s = series(5, F(2, 3))
    assert s.div_unit(one(1)) == s

    num = series(1, F(-1, 4), F(1, 36))
    den = series(1, F(-1, 2), F(1, 3))
    expected = [F(1), F(1, 4), F(-13, 72)]
    assert list(num.div_unit(den).coeffs) == expected
    assert naive_div(list(num.coeffs), list(den.coeffs), 2) == expected


def test_div_unit_rejects_non_unit():
    with pytest.raises(ValueError, match="not a unit; use /"):
        t_series(2).div_unit(t_series(2))


def test_div_valuation_examples():
    # / shifts out the denominator's valuation and drops as many orders.
    q = t_series(4) / t_series(4)
    assert q == one(3)
    assert series(0, 0, 1, 0) / series(0, 1, 1, 0) == series(0, 1, -1)
    assert constant_series(F(0), 4) / t_series(4) ** 3 == constant_series(F(0), 1)
    assert t_series(3) ** 3 / t_series(3) ** 3 == one(0)

    # Li_1(1 - e^(-t)) is exactly t, so this is t/log(1+t) again.
    from polybern.polybernoulli import polylog_series

    inner = TruncatedSeries(tuple(one_minus_exp_neg_coeffs(4)))
    li1 = polylog_series(1, inner)
    q1 = li1 / log1p_series(4)
    assert list(q1.coeffs) == [F(1), F(1, 2), F(-1, 12), F(1, 24)]

    inner3 = TruncatedSeries(tuple(one_minus_exp_neg_coeffs(3)))
    q2 = polylog_series(2, inner3) / log1p_series(3)
    assert list(q2.coeffs) == [F(1), F(1, 4), F(-13, 72)]
    assert q2.order == 2


def test_a_numerator_nonzero_below_the_valuation_is_not_a_power_series():
    with pytest.raises(ValueError, match="series quotient not a power series"):
        one(3) / t_series(3)
    with pytest.raises(ValueError, match="series quotient not a power series"):
        t_series(3) / series(0, 0, 1, 0)
    with pytest.raises(ValueError, match="series quotient not a power series"):
        series(0, 0, 1, 5) / series(0, 0, 0, 1)
    with pytest.raises(ValueError, match="order mismatch"):
        t_series(2) / t_series(3)
    with pytest.raises(TypeError):
        t_series(2) / 2


def test_compose_examples():
    n = 5
    expm1 = exp_series(F(1), n) - one(n)
    assert log1p_series(n).compose(expm1) == t_series(n)

    s = series(2, F(-1, 3), F(4, 7), 0)
    assert s.compose(t_series(3)) == s

    # Brute force: sum_m inner^m / m^2, accumulated with naive list products.
    inner = one_minus_exp_neg_coeffs(3)
    outer = TruncatedSeries([F(0), F(1), F(1, 4), F(1, 9)])
    composed = outer.compose(TruncatedSeries(tuple(inner)))
    brute = [F(0)] * 4
    power = list(inner)
    for m in (1, 2, 3):
        for idx in range(4):
            brute[idx] += F(1, m * m) * power[idx]
        power = naive_mul(power, inner, 3)
    assert list(composed.coeffs) == brute == [F(0), F(1), F(-1, 4), F(1, 36)]


def test_compose_multiplies_only_nonzero_terms(monkeypatch):
    # The weights of Li_40 at order 30 composed with 2t: Horner's rule over
    # the one nonzero inner term takes at most n (n + 1) / 2 products, where
    # a dense inner loop would take about n^3 / 6.
    n = 30
    outer = TruncatedSeries([F(0)] + [F(1, m**40) for m in range(1, n + 1)])
    inner = t_series(n) * 2
    products = []
    fraction_mul = F.__mul__
    monkeypatch.setattr(F, "__mul__", lambda a, b: products.append(1) or fraction_mul(a, b))
    composed = outer.compose(inner)
    monkeypatch.undo()
    assert len(products) <= n * (n + 1) // 2
    assert composed.coeffs == tuple(c * 2**m for m, c in enumerate(outer.coeffs))


def test_a_raw_series_goes_over_to_egf_ints_only_for_the_kernel():
    # Weights 1/m^40 share no small denominator; reading, truncating and
    # composing them keeps them raw, and the kernel converts them once.
    s = TruncatedSeries([F(0)] + [F(1, m**40) for m in range(1, 13)])
    assert s.truncate(5).coeffs == s.coeffs[:6]
    assert s.compose(t_series(12)) == s
    assert "_egf" not in s.__dict__ and "_egf" not in s.truncate(5).__dict__
    assert (s * one(12)).coeffs == s.coeffs and "_egf" in s.__dict__


def test_threads_reading_one_series_both_ways_agree():
    # Eight threads read the raw and the egf side of shared series that have
    # only the other side yet; each side is derived on first use, and a race
    # may derive it twice, never differently.
    n = 60
    kernel_built = [exp_series(F(k, 3), n) * log1p_series(n) for k in range(8)]
    raw_built = [TruncatedSeries(s.coeffs) for s in kernel_built]
    expected = [(s.coeffs, [s.egf_coefficient(m) for m in range(n + 1)]) for s in kernel_built]
    kernel_built = [exp_series(F(k, 3), n) * log1p_series(n) for k in range(8)]
    results = {}

    def read(i):
        results[i] = [
            (a.coeffs, [b.egf_coefficient(m) for m in range(n + 1)])
            for a, b in zip(kernel_built[i:] + kernel_built[:i], raw_built[i:] + raw_built[:i])
        ]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for i, rows in results.items():
        assert rows == expected[i:] + expected[:i]


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        log1p_series(3).compose(one(3))


def test_theta_and_its_inverse():
    s = series(0, 3, F(-1, 2), F(2, 3))
    assert s.theta() == series(0, 3, -1, 2)
    assert s.theta().theta_inverse() == s
    assert one(3).theta() == constant_series(F(0), 3)
    with pytest.raises(ValueError, match="zero constant term"):
        one(3).theta_inverse()


def test_exp_and_log1p_of_a_series_examples():
    assert t_series(4).exp() == exp_series(F(1), 4)
    assert t_series(4).log1p() == log1p_series(4)
    # log(1 + (e^t - 1)) = t and exp(log(1 + t)) = 1 + t.
    assert (exp_series(F(1), 6) - one(6)).log1p() == t_series(6)
    assert log1p_series(6).exp() == one(6) + t_series(6)
    assert constant_series(F(0), 0).exp() == one(0)


def test_exp_and_log1p_reject_nonzero_constant_term():
    for method in (TruncatedSeries.exp, TruncatedSeries.log1p):
        with pytest.raises(ValueError, match="^composition requires inner series with zero constant term$"):
            method(series(2, 1, 0))


def test_pow_examples():
    s = series(0, 0, 2, 1, 0, 0, 0)
    assert s ** 0 == one(6)
    assert s ** 1 == s
    assert s ** 2 == series(0, 0, 0, 0, 4, 4, 1)
    assert s ** 4 == constant_series(F(0), 6)
    assert constant_series(F(0), 3) ** 0 == one(3)
    assert constant_series(F(0), 3) ** 5 == constant_series(F(0), 3)
    with pytest.raises(ValueError, match="non-negative integer"):
        s ** -1


def test_exp_series_examples():
    assert exp_series(F(0), 2) == series(1, 0, 0)
    assert exp_series(F(-1), 3) == series(1, -1, F(1, 2), F(-1, 6))
    assert exp_series(F(2), 2) == series(1, 2, 2)


def test_log1p_series_examples():
    assert log1p_series(0) == TruncatedSeries((F(0),))
    assert log1p_series(3) == series(0, 1, F(-1, 2), F(1, 3))


def test_pow1p_series_examples():
    assert pow1p_series(F(0), 2) == series(1, 0, 0)
    assert pow1p_series(F(1, 2), 2) == series(1, F(1, 2), F(-1, 8))


def test_egf_coefficient_examples():
    s = t_over_log1p(4)
    assert s.egf_coefficient(1) == F(1, 2)
    assert s.egf_coefficient(0) == s.coeffs[0]
    assert s.egf_coefficient(2) == F(-1, 6)
    with pytest.raises(ValueError, match="out of range"):
        s.egf_coefficient(5)


# -- mismatches -----------------------------------------------------------


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError, match="order mismatch"):
        one(2) + one(3)
    with pytest.raises(ValueError, match="order mismatch"):
        one(2) * one(3)


def test_polynomial_coefficients_are_rejected():
    # Coefficients are rational only; a symbolic x is a basis change on them.
    with pytest.raises(TypeError):
        TruncatedSeries((F(1), X))
    with pytest.raises(TypeError):
        TruncatedSeries((Polynomial.constant(1),))
    with pytest.raises(TypeError):
        pow1p_series(X, 2)
    with pytest.raises(TypeError):
        exp_series(X, 2)


# -- exact algebraic properties -------------------------------------------

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=30)


def series_strategy(max_order=20):
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.lists(small_fractions, min_size=n + 1, max_size=n + 1).map(
            lambda cs: TruncatedSeries(tuple(cs))
        )
    )


def triple_strategy(max_order=20):
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(small_fractions, min_size=n + 1, max_size=n + 1).map(
                    lambda cs: TruncatedSeries(tuple(cs))
                )
                for _ in range(3)
            )
        )
    )


@given(triple_strategy())
def test_ring_axioms(abc):
    a, b, c = abc
    zero = constant_series(F(0), a.order)
    e = one(a.order)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * e == a


@given(series_strategy(), series_strategy())
def test_div_mul_round_trip(n, d):
    order = min(n.order, d.order)
    n = n.truncate(order)
    d = d.truncate(order)
    if d.coeffs[0] == 0:
        d = d + one(order)
    q = n.div_unit(d)
    assert q * d == n


def test_compose_inverse_pairs_through_order_20():
    for n in range(21):
        expm1 = exp_series(F(1), n) - one(n)
        assert log1p_series(n).compose(expm1) == t_series(n)
        assert expm1.compose(log1p_series(n)) == t_series(n)


@given(small_fractions, small_fractions)
@settings(max_examples=40)
def test_pow1p_product_law(a, b):
    n = 15
    assert pow1p_series(a, n) * pow1p_series(b, n) == pow1p_series(a + b, n)


# x = 0, a positive integer (where (x)_j vanishes past j = x), a negative
# integer, or a non-integer rational of either sign.
shift_points = st.one_of(
    st.just(F(0)),
    st.integers(1, 25).map(F),
    st.integers(-25, -1).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=40),
)


@given(series_strategy(max_order=24), shift_points)
def test_pow1p_row_matches_the_series_product(s, x):
    row = pow1p_row(s, x)
    assert all(type(v) is F for v in row)
    assert list(row) == oracles.pow1p_row(list(s.coeffs), x)


def test_pow1p_row_edge_points():
    s = t_over_log1p(12)
    for x in (F(0), F(1), F(3), F(12), F(13), F(-1), F(-10, 7), F(9, 5)):
        assert list(pow1p_row(s, x)) == oracles.pow1p_row(list(s.coeffs), x)
    # At x = 0 the row is the series' own egf coefficients.
    assert pow1p_row(s, 0) == tuple(s.egf_coefficient(n) for n in range(13))
    assert pow1p_row(constant_series(F(0), 3), F(1, 2)) == (0, 0, 0, 0)


@given(series_strategy(max_order=10))
def test_egf_round_trip(s):
    for n in range(s.order + 1):
        assert s.egf_coefficient(n) / math.factorial(n) == s.coeffs[n]
    from_egf = TruncatedSeries.from_egf(
        *common_denominator([s.egf_coefficient(n) for n in range(s.order + 1)])
    )
    assert from_egf == s and hash(from_egf) == hash(s) and from_egf.coeffs == s.coeffs


@given(series_strategy(max_order=12), series_strategy(max_order=12))
def test_outputs_stay_canonical(a, b):
    order = min(a.order, b.order)
    a = a.truncate(order)
    b = b.truncate(order)
    outputs = [a + b, a - b, a * b, -a]
    if b.coeffs[0] != 0:
        outputs.append(a.div_unit(b))
    for out in outputs:
        for c in out.coeffs:
            assert isinstance(c, F)
            assert c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1


nonzero_fractions = small_fractions.filter(lambda c: c != 0)


def valued_series(min_valuation, max_valuation, max_order):
    """Series of order <= max_order whose valuation is drawn from the range."""
    return st.integers(min_valuation, max_valuation).flatmap(
        lambda v: st.integers(v, max_order).flatmap(
            lambda n: st.tuples(
                nonzero_fractions,
                st.lists(small_fractions, min_size=n - v, max_size=n - v),
            ).map(lambda lr: TruncatedSeries((F(0),) * v + (lr[0],) + tuple(lr[1])))
        )
    )


@given(valued_series(1, 3, 14))
def test_exp_and_log1p_match_horner_composition(f):
    n = f.order
    assert f.exp() == exp_series(F(1), n).compose(f)
    assert f.log1p() == log1p_series(n).compose(f)


@given(valued_series(0, 3, 14), st.integers(min_value=0, max_value=8))
def test_miller_power_matches_repeated_multiplication(f, a):
    n = f.order
    expected = [F(1)] + [F(0)] * n
    for _ in range(a):
        expected = naive_mul(expected, list(f.coeffs), n)
    assert list((f ** a).coeffs) == expected


# -- the integer kernel against raw-Fraction oracles --------------------------
# Coefficients include zeros, large denominators and negative values, and
# constant terms other than 1; orders start at 0.

big_fractions = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**40))
kernel_coeffs = st.one_of(st.just(F(0)), small_fractions, big_fractions)
units = st.one_of(
    st.sampled_from([F(1), F(-1), F(-3), F(2, 7)]),
    nonzero_fractions,
    big_fractions.filter(lambda c: c != 0),
)


def kernel_series(order, constant=kernel_coeffs, valuation=0):
    """Coefficient lists of the given order, zeros below ``valuation`` and
    a coefficient from ``constant`` at it."""
    if valuation > order:
        return st.just([F(0)] * (order + 1))
    rest = st.lists(kernel_coeffs, min_size=order - valuation, max_size=order - valuation)
    return st.tuples(constant, rest).map(lambda p: [F(0)] * valuation + [p[0]] + p[1])


orders = st.integers(min_value=0, max_value=16)


@given(orders.flatmap(lambda n: st.tuples(kernel_series(n), kernel_series(n))))
def test_kernel_mul_matches_naive_mul(ab):
    a, b = ab
    order = len(a) - 1
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == naive_mul(a, b, order)


@given(orders.flatmap(lambda n: st.tuples(kernel_series(n), kernel_series(n, units))))
def test_kernel_div_unit_matches_forward_substitution(pair):
    num, den = pair
    order = len(num) - 1
    q = TruncatedSeries(num).div_unit(TruncatedSeries(den))
    assert list(q.coeffs) == naive_div(num, den, order)


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda vs: st.integers(max(vs), 16).flatmap(
            lambda n: st.tuples(kernel_series(n, valuation=vs[0]), kernel_series(n, units, valuation=vs[1]))
        )
    )
)
def test_kernel_div_valuation_matches_forward_substitution(case):
    # Both valuations run over 0..3, so the numerator's may fall below the
    # denominator's v, and / must then refuse the quotient.
    num, den = case
    v = next(i for i, c in enumerate(den) if c)
    if any(num[:v]):
        with pytest.raises(ValueError, match="series quotient not a power series"):
            TruncatedSeries(num) / TruncatedSeries(den)
        return
    q = TruncatedSeries(num) / TruncatedSeries(den)
    assert list(q.coeffs) == naive_div(num[v:], den[v:], len(num) - 1 - v)


valuations = st.integers(min_value=1, max_value=3)


def valued_lists():
    """Coefficient lists with valuation 1..3 (or all zero), of order 0..16."""
    return st.tuples(valuations, orders).flatmap(
        lambda vn: kernel_series(vn[1], kernel_coeffs.filter(lambda c: c != 0), vn[0])
    )


@given(valued_lists())
def test_kernel_theta_inverse_exp_and_log1p_match_the_naive_loops(f):
    order = len(f) - 1
    s = TruncatedSeries(f)
    assert list(s.theta_inverse().coeffs) == oracles.naive_theta_inverse(f)
    assert list(s.exp().coeffs) == oracles.naive_exp(f, order)
    assert list(s.log1p().coeffs) == oracles.naive_log1p(f, order)


@settings(max_examples=40)
@given(
    st.integers(0, 3).flatmap(
        lambda v: orders.flatmap(lambda n: kernel_series(n, units, min(v, n)))
    ),
    st.integers(min_value=0, max_value=5),
)
def test_kernel_pow_matches_repeated_naive_mul(f, a):
    order = len(f) - 1
    assert list((TruncatedSeries(f) ** a).coeffs) == oracles.naive_pow(f, a, order)


@given(orders.flatmap(lambda n: st.tuples(kernel_series(n), kernel_series(n))), kernel_coeffs)
def test_kernel_linear_operations_match_the_lists(ab, c):
    a, b = ab
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    assert list((sa + sb).coeffs) == [x + y for x, y in zip(a, b)]
    assert list((sa - sb).coeffs) == [x - y for x, y in zip(a, b)]
    assert list((-sa).coeffs) == [-x for x in a]
    assert list((c * sa).coeffs) == list((sa * c).coeffs) == [c * x for x in a]
    assert list(sa.theta().coeffs) == [n * x for n, x in enumerate(a)]
