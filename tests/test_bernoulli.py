import importlib.util
import math
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_mul
from polybern import bernoulli, combinatorics, polynomial
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
from polybern.polynomial import MAX_CACHED_K, Polynomial, X
from polybern.combinatorics import falling_factorial, falling_factorial_at
from polybern.series import (
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
    pow1p_nums,
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
    assert bernoulli_numbers(0) == [1]
    assert bernoulli_numbers(1) == [1, F(-1, 2)]
    assert bernoulli_numbers(2) == [1, F(-1, 2), F(1, 6)]
    assert bernoulli_numbers(3) == [1, F(-1, 2), F(1, 6), 0]


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


def fresh_module(module):
    """A new copy of a polybern module whose caches start empty."""
    name = module.__name__.replace("polybern.", "polybern._fresh_")
    spec = importlib.util.spec_from_file_location(name, module.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    return fresh


def fresh_sequences():
    """Fresh copies of ``bernoulli`` and ``combinatorics``, the b_n of the
    one reading the S1 rows of the other, their readers by name, and the
    cache of b_n."""
    bern, comb = fresh_module(bernoulli), fresh_module(combinatorics)
    bern.stirling1_row = comb.stirling1_row
    readers = {
        "b": bern.bernoulli2nd_numbers,
        "S1": comb.stirling1_row,
        "S2": comb.stirling2_row,
    }
    return readers, {"b": bern._B2ND}


def fresh_walks(n):
    """S1 and S2 rows 0..n, each walked from row 0 by a fresh cursor."""
    comb = fresh_module(combinatorics)
    rows = {}
    for name, read in (("S1", comb.stirling1_row), ("S2", comb.stirling2_row)):
        rows[name] = []
        for m in range(n + 1):
            comb._LAST_ROW.clear()
            rows[name].append(read(m))
    return rows


def _one_build_each(n):
    readers, caches = fresh_sequences()
    for read in readers.values():
        read(n)
    return {**{name: cache[None] for name, cache in caches.items()}, **fresh_walks(n)}


FRESH = _one_build_each(40)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["b", "S1", "S2"]), st.integers(0, 40)), min_size=1, max_size=12))
def test_interleaved_calls_match_one_fresh_build(calls):
    # Each call returns what one build at n = 40 holds, or, for a Stirling
    # row, what a fresh walk gives; the cache holds a prefix of that build.
    readers, caches = fresh_sequences()
    for name, n in calls:
        got = readers[name](n)
        assert got == (FRESH[name][n] if name.startswith("S") else list(FRESH[name][: n + 1])), (name, n)
        for kind, cache in caches.items():
            held = cache.get(None, ())
            assert held == FRESH[kind][: len(held)], kind


def test_walking_n_extends_the_cached_prefixes(monkeypatch):
    # Walking n upward from empty caches must take no series quotient (a
    # refill would), and every step must be a prefix of one call at 40.
    fresh = fresh_module(bernoulli)

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
    fresh = fresh_module(bernoulli)
    results = {}

    def walk(i):
        for n in range(i % 4, 60, 4):
            results[i] = (fresh.bernoulli2nd_numbers(n), fresh.gregory_coefficients(n))

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
    # A shorter prefix stored over a longer one would lose terms.
    assert len(fresh._B2ND[None]) == 60
    for numbers, gregory in results.values():
        n = len(numbers) - 1
        assert numbers == bernoulli2nd_numbers(n)
        assert gregory == gregory_coefficients(n)


def test_second_kind_numbers_grow_from_empty_stirling_rows(monkeypatch):
    # Each b_n reads S1 row n, which the builder of b_n walks itself, outside
    # the one lock of the caches. The lock is a fresh one, so a hung thread
    # holds no lock other tests take.
    fresh = fresh_module(bernoulli)
    monkeypatch.setattr(combinatorics, "_LAST_ROW", {})
    monkeypatch.setattr(polynomial, "_lock", threading.Lock())
    results = []
    thread = threading.Thread(target=lambda: results.append(fresh.bernoulli2nd_numbers(30)), daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "bernoulli2nd_numbers hung"
    assert results == [bernoulli2nd_numbers(30)]
    m, row = combinatorics._LAST_ROW["S1"]
    assert m == 30 and sum(map(abs, row)) == math.factorial(30)


def test_an_interrupted_step_leaves_the_recurrence_intact(monkeypatch):
    # The builder of b_n, interrupted once while it builds b_5: the cache
    # keeps the prefix it held, and the next call builds on from there.
    fresh = fresh_module(bernoulli)
    assert fresh.bernoulli2nd_numbers(2) == bernoulli2nd_numbers(2)
    original = fresh.stirling1_row
    interrupted = []

    def row(m):
        if m == 5 and not interrupted:
            interrupted.append(5)
            raise KeyboardInterrupt
        return original(m)

    monkeypatch.setattr(fresh, "stirling1_row", row)
    with pytest.raises(KeyboardInterrupt):
        fresh.bernoulli2nd_numbers(7)
    assert fresh._B2ND == {None: tuple(bernoulli2nd_numbers(2))}
    assert fresh.bernoulli2nd_numbers(7) == bernoulli2nd_numbers(7)
    assert interrupted == [5]


def test_second_kind_polynomials_keep_the_latest_n_only():
    bernoulli2nd_poly.cache_clear()
    try:
        for n in range(100):
            bernoulli2nd_poly(n)
        info = bernoulli2nd_poly.cache_info()
        assert info.currsize == MAX_CACHED_K and info.misses == 100
        bernoulli2nd_poly(99)
        assert bernoulli2nd_poly.cache_info().hits == 1
    finally:
        bernoulli2nd_poly.cache_clear()


def test_second_kind_polynomials():
    assert bernoulli2nd_poly(0) == Polynomial.constant(1)
    assert bernoulli2nd_poly(1) == X + F(1, 2)
    assert bernoulli2nd_poly(2) == X * X - F(1, 6)


def test_second_kind_polynomials_match_generating_function():
    # Cross-check the basis expansion against egf coefficients of
    # t/log(1+t) * (1+t)^x at x = 0..n: two polynomials of degree n that
    # agree at n + 1 points are equal.
    n_max = 25
    quotient = t_series(n_max + 1) / log1p_series(n_max + 1)
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


@pytest.mark.parametrize(
    "values",
    [
        bernoulli_values,
        bernoulli2nd_values,
        # the series x-shift behind both
        pytest.param(lambda n, x: pow1p_series(x, n), id="pow1p_series"),
        pytest.param(lambda n, x: pow1p_row(t_series(n), x), id="pow1p_row"),
        pytest.param(lambda n, x: pow1p_nums(t_series(n), x), id="pow1p_nums"),
    ],
)
@pytest.mark.parametrize("x, kind", [(X, "Polynomial"), (0.5, "float")])
def test_rational_tables_name_the_point_types_they_take(values, x, kind):
    with pytest.raises(TypeError, match=f"^a point must be an int or Fraction, not {kind}$"):
        values(3, x)


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
    for x in (F(0), F(1, 3), F(2, 7), F(-7, 2)):
        values = bernoulli_values(40, x)
        assert values == [higher_order_bernoulli_poly(n, 1, x) for n in range(41)]
    assert bernoulli_values(12, 0) == bernoulli_numbers(12)


def test_higher_order_rejects_negative_order():
    with pytest.raises(ValueError, match="negative order unsupported"):
        higher_order_bernoulli_poly(3, -1)


def test_b_equals_higher_order_bridge():
    assert higher_order_bernoulli_poly(2, 2, X + 1) == X * X - F(1, 6)
    report = verify_identity("b-equals-higher-order", 10)
    assert report.passed and report.total == 11
