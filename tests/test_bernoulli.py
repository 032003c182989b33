import importlib.util
import math
import sys
import threading
from fractions import Fraction as F

import pytest

from oracles import naive_mul
from polybern import bernoulli, combinatorics, series
from polybern.bernoulli import (
    bernoulli2nd_numbers,
    bernoulli2nd_poly,
    bernoulli2nd_values,
    bernoulli_numbers,
    bernoulli_values,
    gregory_coefficients,
    higher_order_bernoulli_poly,
)
from polybern.polybernoulli import verify_identity
from polybern.polynomial import Polynomial, X
from polybern.combinatorics import falling_factorial, falling_factorial_at
from polybern.series import (
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
    pow1p_row,
    pow1p_series,
    t_series,
)


def test_classical_bernoulli_values():
    values = bernoulli_numbers(6)
    assert values[0] == 1
    assert values[1] == F(-1, 2)
    assert values[2] == F(1, 6)
    assert values[3] == 0
    assert values[4] == F(-1, 30)
    assert values[6] == F(1, 42)


def test_classical_recurrence_oracle():
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1, with independent binomials.
    values = bernoulli_numbers(50)
    for n in range(1, 51):
        total = sum(
            (F(math.comb(n + 1, j)) * values[j] for j in range(n + 1)), F(0)
        )
        assert total == 0, n


def test_odd_bernoulli_vanish():
    values = bernoulli_numbers(51)
    for m in range(1, 26):
        assert values[2 * m + 1] == 0


def test_second_kind_values_both_conventions():
    assert gregory_coefficients(5) == [
        F(1),
        F(1, 2),
        F(-1, 12),
        F(1, 24),
        F(-19, 720),
        F(3, 160),
    ]
    assert bernoulli2nd_numbers(5) == [
        F(1),
        F(1, 2),
        F(-1, 6),
        F(1, 4),
        F(-19, 30),
        F(9, 4),
    ]


def test_egf_gregory_bridge():
    raw = gregory_coefficients(25)
    scaled = bernoulli2nd_numbers(25)
    for n in range(26):
        assert scaled[n] == math.factorial(n) * raw[n]


def test_growing_cache_preserves_prefix():
    assert bernoulli_numbers(30)[:7] == bernoulli_numbers(6)
    assert bernoulli2nd_numbers(30)[:6] == bernoulli2nd_numbers(5)


def fresh_bernoulli_module():
    """A new copy of polybern.bernoulli whose caches start empty."""
    spec = importlib.util.spec_from_file_location("polybern._fresh_bernoulli", bernoulli.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    return fresh


def test_walking_n_extends_the_cached_prefixes(monkeypatch):
    # Walking n upward from empty caches must take no series quotient (a
    # refill would), and every step must be a prefix of one call at 40.
    fresh = fresh_bernoulli_module()

    def refuse(*args):
        raise AssertionError("div_unit called")

    monkeypatch.setattr(TruncatedSeries, "div_unit", refuse)
    for name in ("bernoulli_numbers", "gregory_coefficients", "bernoulli2nd_numbers"):
        fn = getattr(fresh, name)
        walk = [fn(n) for n in range(41)]
        full = fn(40)
        for n, values in enumerate(walk):
            assert values == full[: n + 1], (name, n)
        assert full == getattr(bernoulli, name)(40), name


def test_concurrent_growth_appends_each_term_once():
    fresh = fresh_bernoulli_module()
    results = {}

    def walk(i):
        for n in range(i % 4, 60, 4):
            results[i] = (fresh.bernoulli_numbers(n), fresh.gregory_coefficients(n))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for numbers, gregory in results.values():
        n = len(numbers) - 1
        assert numbers == bernoulli_numbers(n)
        assert gregory == gregory_coefficients(n)


def test_second_kind_numbers_grow_from_empty_stirling_rows(monkeypatch):
    # Each b_n reads S1 row n, which bernoulli2nd_numbers grows before it
    # takes extend's lock: growing it inside would take the lock again. The
    # lock is a fresh one, so a hung thread holds no lock other tests take.
    fresh = fresh_bernoulli_module()
    monkeypatch.setattr(combinatorics, "_STIRLING1_ROWS", [(1,)])
    monkeypatch.setattr(combinatorics, "_grow_lock", threading.Lock())
    results = []
    thread = threading.Thread(target=lambda: results.append(fresh.bernoulli2nd_numbers(30)), daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "bernoulli2nd_numbers hung"
    assert results == [bernoulli2nd_numbers(30)]
    assert len(combinatorics._STIRLING1_ROWS) == 31


def test_an_interrupted_step_leaves_the_recurrence_intact():
    # The egf step of t/(e^t - 1), interrupted once while it grows D to
    # D_2 = 1/3, and once more after it computed a term that was never
    # appended.
    interrupted = []

    def d(m):
        if m == 2 and not interrupted:
            interrupted.append(m)
            raise KeyboardInterrupt
        return F(1, m + 1)

    step = series.reciprocal_step(d)
    q = [F(1)]
    q.append(step(q))
    with pytest.raises(KeyboardInterrupt):
        step(q)
    step(q)  # the result is dropped, as when extend is interrupted before it appends
    while len(q) < 8:
        q.append(step(q))
    assert q == bernoulli_numbers(7)


def test_second_kind_polynomials():
    assert bernoulli2nd_poly(0) == Polynomial.constant(1)
    assert bernoulli2nd_poly(1) == X + F(1, 2)
    assert bernoulli2nd_poly(2) == X * X - F(1, 6)


def test_second_kind_polynomials_match_generating_function():
    # Cross-check the basis expansion against egf coefficients of
    # t/log(1+t) * (1+t)^x at x = 0..n: two polynomials of degree n that
    # agree at n + 1 points are equal.
    n_max = 25
    quotient = t_series(n_max + 1).div_valuation(log1p_series(n_max + 1), 1)
    rows = [pow1p_series(F(i), n_max) * quotient for i in range(n_max + 1)]
    for n in range(n_max + 1):
        values = [row.egf_coefficient(n) for row in rows[: n + 1]]
        assert [bernoulli2nd_poly(n)(i) for i in range(n + 1)] == values


def test_second_kind_values_match_the_polynomials():
    # One gf row against the basis change, at points that are not integers.
    for x in (F(0), F(4, 3), F(-7, 2)):
        assert bernoulli2nd_values(30, x) == tuple(bernoulli2nd_poly(n)(x) for n in range(31))


@pytest.mark.parametrize(
    "call",
    [
        lambda: bernoulli_values(3, 0.1),
        lambda: higher_order_bernoulli_poly(3, 2, 0.1),
        lambda: bernoulli2nd_poly(3)(0.1),
        lambda: bernoulli2nd_values(3, 0.1),
        lambda: TruncatedSeries([0.1]),
        lambda: Polynomial([0.1]),
        lambda: Polynomial.constant(0.1),
        lambda: constant_series(0.1, 2),
        lambda: exp_series(0.1, 2),
        lambda: pow1p_series(0.1, 2),
        lambda: pow1p_row(t_series(2), 0.1),
        lambda: falling_factorial(0.5, 2),
        lambda: falling_factorial_at(0.5, 2),
    ],
    ids=[
        "bernoulli_values",
        "higher_order_bernoulli_poly",
        "bernoulli2nd_poly",
        "bernoulli2nd_values",
        "TruncatedSeries",
        "Polynomial",
        "Polynomial.constant",
        "constant_series",
        "exp_series",
        "pow1p_series",
        "pow1p_row",
        "falling_factorial",
        "falling_factorial_at",
    ],
)
def test_float_point_is_rejected(call):
    with pytest.raises(TypeError, match="not float"):
        call()


def test_second_kind_polynomials_at_zero():
    numbers = bernoulli2nd_numbers(25)
    for n in range(26):
        assert bernoulli2nd_poly(n)(F(0)) == numbers[n]


def test_higher_order_examples():
    for n in range(5):
        assert higher_order_bernoulli_poly(n, 0) == X ** n
        assert higher_order_bernoulli_poly(n, 0, F(1, 3)) == F(1, 3) ** n
    classical = bernoulli_numbers(8)
    for n in range(9):
        assert higher_order_bernoulli_poly(n, 1, F(0)) == classical[n]


def test_higher_order_squared_series_oracle():
    # (1 - t/2 + t^2/12)^2 * e^{yt} read at index 2 gives y^2 - 2y + 5/6.
    base = [F(1), F(-1, 2), F(1, 12)]
    squared = naive_mul(base, base, 2)
    c2 = Polynomial.constant(squared[2]) + squared[1] * X + squared[0] * X * X / 2
    assert 2 * c2 == X * X - 2 * X + F(5, 6)
    assert higher_order_bernoulli_poly(2, 2) == X * X - 2 * X + F(5, 6)


def test_bernoulli_values_match_the_order_one_power():
    # B_n(x) from the numbers by the binomial sum, against the egf of
    # t/(e^t - 1) * e^(x t) read through higher_order_bernoulli_poly.
    for x in (F(0), F(1, 3), F(-7, 2)):
        values = bernoulli_values(20, x)
        assert values == [higher_order_bernoulli_poly(n, 1, x) for n in range(21)]
    assert bernoulli_values(12, 0) == bernoulli_numbers(12)


def test_higher_order_rejects_negative_order():
    with pytest.raises(ValueError, match="negative order unsupported"):
        higher_order_bernoulli_poly(3, -1)


def test_b_equals_higher_order_bridge():
    assert higher_order_bernoulli_poly(2, 2, X + 1) == X * X - F(1, 6)
    report = verify_identity("b-equals-higher-order", 10)
    assert report.passed and report.total == 11
