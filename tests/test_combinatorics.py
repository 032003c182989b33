import importlib.util
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import falling_coeffs, monomial_from_falling, pascal_row, set_partition_count, stirling2_explicit
from polybern import combinatorics
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


# -- the row cursor -------------------------------------------------------------


def fresh_combinatorics():
    """A new copy of ``combinatorics`` whose cursors start empty."""
    spec = importlib.util.spec_from_file_location("polybern._fresh_combinatorics", combinatorics.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    return fresh


READERS = {"S1": "stirling1_row", "S2": "stirling2_row"}
STEPS = {"S1": "_next_stirling1_row", "S2": "_next_stirling2_row"}
N = 40


def fresh_walk(comb, kind, n):
    """Row n of ``kind``, walked from row 0 by an emptied cursor."""
    comb._LAST_ROW.clear()
    return getattr(comb, READERS[kind])(n)


_WALKER = fresh_combinatorics()
FRESH = {kind: [fresh_walk(_WALKER, kind, n) for n in range(N + 1)] for kind in READERS}


def test_a_fresh_walk_matches_the_explicit_rows():
    for n in range(N + 1):
        assert FRESH["S1"][n] == tuple(falling_coeffs(n)), n
        assert FRESH["S2"][n] == tuple(stirling2_explicit(n, m) for m in range(n + 1)), n


_calls = st.lists(
    st.tuples(st.sampled_from(sorted(READERS)), st.integers(0, N), st.one_of(st.none(), st.integers(1, N))),
    min_size=1,
    max_size=15,
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        _calls,
        _calls.map(lambda calls: sorted(calls, key=lambda call: call[1])),
        _calls.map(lambda calls: sorted(calls, key=lambda call: -call[1])),
    )
)
def test_the_cursor_gives_a_fresh_walk_and_keeps_its_row_through_an_interrupt(calls):
    # Rising, falling and repeated n, S1 and S2 interleaved; a call whose
    # stop is not None raises KeyboardInterrupt in its walk's step to that
    # row, if the walk takes that step.
    comb = fresh_combinatorics()
    for kind, n, stop in calls:
        step = getattr(comb, STEPS[kind])

        def interrupted(i, prev):
            if i == stop:
                raise KeyboardInterrupt
            return step(i, prev)

        before = dict(comb._LAST_ROW)
        setattr(comb, STEPS[kind], interrupted)
        try:
            row = getattr(comb, READERS[kind])(n)
        except KeyboardInterrupt:
            assert comb._LAST_ROW == before, (kind, n, stop)
        else:
            assert row == FRESH[kind][n], (kind, n, stop)
            assert comb._LAST_ROW[kind] == (n, row)
        finally:
            setattr(comb, STEPS[kind], step)


def test_a_column_walk_holds_one_row_at_a_time():
    # The whole triangle up to row 400 would take over 14 MB.
    comb = fresh_combinatorics()
    tracemalloc.start()
    try:
        for n in range(401):
            comb.stirling1(n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert comb.stirling1(400, 3) == F(falling_coeffs(400)[3])


def test_threads_walking_different_n_each_get_their_rows():
    # More threads than cores, each reading both kinds in its own order.
    comb = fresh_combinatorics()
    walks = {
        "rising": list(range(N + 1)) * 5,
        "falling": list(range(N, -1, -1)) * 5,
        "rising by 3": list(range(0, N + 1, 3)) * 10,
        "repeated": [N // 2, N // 2, N, 1] * 20,
    }
    wrong = []

    def walk(order):
        for n in walks[order]:
            for kind in READERS:
                if getattr(comb, READERS[kind])(n) != FRESH[kind][n]:
                    wrong.append((order, kind, n))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(order,)) for order in walks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
